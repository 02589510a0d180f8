"""Exact linear algebra over the rationals and a prime field.

Small dense systems only: recurrence guessing needs kernels of matrices
with a few dozen columns.  One Gauss-Jordan routine, ``_rref``, serves
every caller, over GF(p) or over Q.  Full column rank modulo a prime
certifies exactly that the rational kernel is trivial (a primitive integer
null vector survives reduction mod p), so the expensive rational
elimination runs only when the modular rank drops.  The certificate first
reduces a square block, the first ncols + BLOCK_SLACK rows: any set of rows
with full column rank mod p already has no common null vector, so the
whole matrix has none either, and the remaining rows are read only when
the block is rank-deficient.  The certificate prime is below 2**30, so
every residue fits one CPython digit; an unlucky prime only costs a
rational elimination that finds no null vector.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

RANK_PRIME = 1073741789  # 2**30 - 35
BLOCK_SLACK = 8  # rows past ncols in the block kernel_is_trivial reduces first


def _rref(mat: list[list], ncols: int, p: Optional[int] = None) -> list[int]:
    """Reduce ``mat`` in place to reduced row echelon form on its first
    ``ncols`` columns and return the pivot columns.

    Over GF(p) when ``p`` is given (entries already reduced mod p),
    over Q otherwise (Fraction entries).
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
        # columns left of col are zero in the pivot row, so no row changes there
        if p is None:
            prow[col:] = [x / lead for x in prow[col:]]
        else:
            inv = pow(lead, -1, p)
            prow[col:] = [inv * x % p for x in prow[col:]]
        tail = prow[col:]
        for r, row in enumerate(mat):
            f = row[col]
            if f and r != rank:
                row[col:] = ([x - f * y for x, y in zip(row[col:], tail)] if p is None
                             else [(x - f * y) % p for x, y in zip(row[col:], tail)])
        pivots.append(col)
    return pivots


def scale_rows_to_int(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Clear denominators row by row (row scaling preserves the kernel)."""
    from fractions import Fraction

    out = []
    for row in rows:
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


def nullspace(rows: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Basis of the rational kernel, from a reduced row echelon form."""
    from fractions import Fraction

    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivots = _rref(mat, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -mat[r][free]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence[Fraction | int]],
          rhs: Sequence[Fraction | int]) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables zero), or None."""
    from fractions import Fraction

    mat = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    if not mat:
        return []
    ncols = len(mat[0]) - 1
    pivots = _rref(mat, ncols)
    if any(row[ncols] for row in mat[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = mat[r][ncols]
    return sol


def clear_denominators(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to a primitive integer vector (first nonzero > 0)."""
    ints = scale_rows_to_int([vec])[0]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return ints
