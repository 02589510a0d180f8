"""Exact linear algebra over the integers and a prime field.

Small dense systems only: recurrence guessing needs kernels of matrices
with a few dozen columns.  One Gauss-Jordan routine, ``_rref``, serves
every caller, over GF(p) or fraction-free over Z (Bareiss-style: each row
is kept primitive with a positive pivot), so integer data stays in ints and
``fractions`` loads only for a non-integral value.  Full column rank modulo
a prime certifies exactly that the rational kernel is trivial (a primitive
integer null vector survives reduction mod p), so the expensive exact
elimination runs only when the modular rank drops.  The certificate first
reduces a square block, the first ncols + BLOCK_SLACK rows: any set of rows
with full column rank mod p already has no common null vector, so the
whole matrix has none either, and the remaining rows are read only when
the block is rank-deficient.  The certificate prime is below 2**30, so
every residue fits one CPython digit; an unlucky prime only costs an exact
elimination that finds no null vector.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

RANK_PRIME = 1073741789  # 2**30 - 35
BLOCK_SLACK = 8  # rows past ncols in the block kernel_is_trivial reduces first


def _rref(mat: list[list[int]], ncols: int, p: Optional[int] = None) -> list[int]:
    """Reduce the integer matrix ``mat`` in place to reduced row echelon
    form on its first ``ncols`` columns and return the pivot columns.

    Over GF(p) when ``p`` is given (entries already reduced mod p), each
    pivot 1.  Over Z otherwise, without division: each pivot row is made
    primitive with a positive pivot, every other row r becomes a r - b
    (pivot row) with a > 0, and is divided by its content, so row r is a
    positive multiple of the rational reduced row echelon form's row r.
    """
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        lead = prow[col]
        # columns left of col are zero in the pivot row
        if p is None:
            g = math.gcd(*prow[col:]) if lead > 0 else -math.gcd(*prow[col:])
            if g != 1:
                prow[col:] = [x // g for x in prow[col:]]
                lead = prow[col]
        else:
            inv = pow(lead, -1, p)
            prow[col:] = [inv * x % p for x in prow[col:]]
        tail = prow[col:]
        for r, row in enumerate(mat):
            f = row[col]
            if not f or r == rank:
                continue
            if p is not None:
                row[col:] = [(x - f * y) % p for x, y in zip(row[col:], tail)]
                continue
            g = math.gcd(lead, f)
            a, b = lead // g, f // g
            if a != 1:  # a reduced row has entries left of col too
                row[:col] = [a * x for x in row[:col]]
            row[col:] = [a * x - b * y for x, y in zip(row[col:], tail)]
            g = math.gcd(*row)
            if g > 1:
                row[:] = [x // g for x in row]
        pivots.append(col)
    return pivots


def scale_rows_to_int(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Clear denominators row by row (row scaling preserves the kernel).
    A row of ints is copied as it is, without loading ``fractions``."""
    out = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            out.append(list(row))
            continue
        from fractions import Fraction

        fracs = [Fraction(x) for x in row]
        lcm = math.lcm(*(f.denominator for f in fracs))
        out.append([int(f * lcm) for f in fracs])
    return out


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Row-echelon rank of an integer matrix over GF(p)."""
    mat = [[x % p for x in row] for row in rows]
    return len(_rref(mat, len(mat[0]) if mat else 0, p))


def kernel_is_trivial(rows: Iterable[Sequence[int]]) -> bool:
    """Exact certificate that an integer matrix has no rational null vector.

    True exactly when the rank mod ``RANK_PRIME`` is full.  ``rows`` may be
    any iterable, a generator included: the first ncols + ``BLOCK_SLACK``
    rows are pulled and reduced first.  A null vector of the matrix is a
    null vector of every subset of its rows, so full column rank of the
    block already decides True and no further row is pulled; only a
    rank-deficient block costs the rest of the rows and a reduction of every
    row.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return False
    ncols = len(first)
    block = [first, *islice(rows, ncols + BLOCK_SLACK - 1)]
    if rank_mod(block, RANK_PRIME) == ncols:
        return True
    rest = list(rows)
    return bool(rest) and rank_mod(block + rest, RANK_PRIME) == ncols


def nullspace(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Basis of the rational kernel, one integer vector per free column.

    Each is the primitive integer multiple, by a positive factor, of the
    reduced row echelon form's basis vector (1 at its free column, 0 at the
    others): primitive, positive at its free column, 0 at every other free
    column.
    """
    mat = scale_rows_to_int(rows)
    if not mat:
        return []
    ncols = len(mat[0])
    pivots = _rref(mat, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        # x_col = -mat[r][free] / mat[r][col] at each pivot, x_free = 1, times their lcm
        scale = math.lcm(*(mat[r][col] for r, col in enumerate(pivots) if mat[r][free]))
        vec = [0] * ncols
        vec[free] = scale
        for r, col in enumerate(pivots):
            vec[col] = -mat[r][free] * scale // mat[r][col]
        g = math.gcd(*vec)
        basis.append([x // g for x in vec] if g > 1 else vec)
    return basis


def solve(rows: Sequence[Sequence[Fraction | int]],
          rhs: Sequence[Fraction | int]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables zero), or None."""
    from fractions import Fraction

    mat = scale_rows_to_int([[*row, b] for row, b in zip(rows, rhs)])
    if not mat:
        return []
    ncols = len(mat[0]) - 1
    pivots = _rref(mat, ncols)
    if any(row[ncols] for row in mat[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = Fraction(mat[r][ncols], mat[r][col])
    return sol


def clear_denominators(vec: Sequence[Fraction | int]) -> list[int]:
    """Scale a rational vector to a primitive integer vector (first nonzero > 0)."""
    ints = scale_rows_to_int([vec])[0]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return ints
