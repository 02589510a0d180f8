"""Connected graded monomial algebras and closed-form dimension presets.

Hilbert dimensions of a monomial algebra are computed with the standard
factor-avoidance automaton (states are proper prefixes of the forbidden
words), in exact integer arithmetic.  The closed-form presets cover the
example algebras used throughout: polynomial rings, free algebras, the
intermediate-growth staircase family, the gap-supported slow-growth
algebra, the partition-function algebra, and floor-power dimension data.

Floor powers ``floor(n**q)`` for rational q are evaluated via exact integer
k-th roots; no floating point touches any dimension value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, pairwise
from math import isqrt
from typing import Iterable, Optional, Sequence

from .dims import DimSeries, FileSyntaxError, Frozen, directives

Word = tuple[str, ...]


class AlgebraError(ValueError):
    """Base class for monomial-algebra errors."""


class AlgebraSyntaxError(FileSyntaxError, AlgebraError):
    """An algebra file failed to parse; carries the offending line."""


def as_fraction(x) -> Fraction:
    """Exact coercion; floats go through their decimal literal."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def floor_root(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x (x >= 0, k >= 1), exactly."""
    if x < 0 or k < 1:
        raise AlgebraError("floor_root needs x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return isqrt(x)
    # integer Newton iteration, seeded above the root by bit length
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def floor_power(n: int, q: Fraction) -> int:
    """floor(n**q) for n >= 0 and rational q > 0, in exact integer arithmetic."""
    if n < 0:
        raise AlgebraError("floor_power needs n >= 0")
    q = Fraction(q)
    if q <= 0:
        raise AlgebraError("floor_power needs q > 0")
    return floor_root(n ** q.numerator, q.denominator)


class MonomialAlgebraPresentation(Frozen):
    """Degree-1 variables modulo a self-reduced set of forbidden words."""

    __slots__ = _fields = ("variables", "forbidden", "name")

    def __init__(self, variables: Sequence[str], forbidden: Iterable[Word] = (),
                 name: Optional[str] = None) -> None:
        variables = tuple(variables)
        if not variables or len(set(variables)) != len(variables):
            raise AlgebraError("variables must be a nonempty list of distinct names")
        varset = set(variables)
        words = []
        for w in forbidden:
            w = tuple(w)
            if len(w) < 2:
                raise AlgebraError(f"forbidden words need length >= 2, got {w!r}")
            if not set(w) <= varset:
                raise AlgebraError(f"forbidden word {w!r} uses unknown variables")
            words.append(w)
        words = sorted(set(words), key=lambda w: (len(w), w))
        kept: list[Word] = []
        for w in words:
            if not any(_is_factor(s, w) for s in kept):
                kept.append(w)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "forbidden", tuple(kept))
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        if not isinstance(other, MonomialAlgebraPresentation):
            return NotImplemented
        return self.variables == other.variables and self.forbidden == other.forbidden

    def __hash__(self):
        return hash((self.variables, self.forbidden))

    def __repr__(self):
        label = self.name or "algebra"
        return f"<{label} on {','.join(self.variables)} with {len(self.forbidden)} forbidden words>"


def _is_factor(f: Word, w: Word) -> bool:
    k = len(f)
    return any(w[s:s + k] == f for s in range(len(w) - k + 1))


def word_is_normal(a: MonomialAlgebraPresentation, w: Word) -> bool:
    """True when no forbidden word occurs as a factor of ``w``."""
    return not any(_is_factor(f, tuple(w)) for f in a.forbidden)


def hilbert_dims(a: MonomialAlgebraPresentation, max_degree: int) -> DimSeries:
    """Count length-n words avoiding every forbidden factor, for n <= max_degree."""
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    start, transitions = _factor_automaton(a)
    vec = {start: 1}
    values = [1]
    for _ in range(max_degree):
        nxt: dict[int, int] = {}
        for state, cnt in vec.items():
            for target in transitions[state]:
                if target is not None:
                    nxt[target] = nxt.get(target, 0) + cnt
        vec = nxt
        values.append(sum(vec.values()))
    return DimSeries(tuple(values), "degree")


def _factor_automaton(a: MonomialAlgebraPresentation):
    """States are proper prefixes of forbidden words; completing a word kills."""
    forbidden = set(a.forbidden)
    prefixes: list[Word] = [()]
    seen = {()}
    for w in a.forbidden:
        for k in range(1, len(w)):
            pre = w[:k]
            if pre not in seen:
                seen.add(pre)
                prefixes.append(pre)
    index = {pre: i for i, pre in enumerate(prefixes)}
    transitions: list[list[Optional[int]]] = []
    for pre in prefixes:
        row: list[Optional[int]] = []
        for x in a.variables:
            t = pre + (x,)
            target: Optional[int] = None
            for cut in range(len(t)):
                suffix = t[cut:]
                if suffix in forbidden:
                    target = None
                    break
                if suffix in seen:
                    target = index[suffix]
                    break
            else:
                target = index[()]
            row.append(target)
        transitions.append(row)
    return index[()], transitions


# ---------------------------------------------------------------------------
# staircase intermediate-growth family
# ---------------------------------------------------------------------------

def warfield_dims(r, max_degree: int) -> DimSeries:
    """Strictly increasing dims with growth exponent r, for 2 < r < 3.

    With q = (r-1)/2 the degree-n dimension is
    1 + n + (floor(n**q) - 1) * floor(n**q) / 2 (1 and 2 at n = 0 and 1);
    the partial sums grow like n**r.
    """
    r = as_fraction(r)
    if not Fraction(2) < r < Fraction(3):
        raise AlgebraError(f"growth exponent must lie strictly between 2 and 3, got {r}")
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    q = (r - 1) / 2
    a, b = q.numerator, q.denominator
    floors = (floor_root(n ** a, b) for n in range(max_degree + 1))
    return DimSeries(tuple(1 + n + (fl - 1) * fl // 2 for n, fl in enumerate(floors)), "degree")


def warfield_monomial_model(r, max_degree: int) -> MonomialAlgebraPresentation:
    """The explicit two-variable monomial algebra behind :func:`warfield_dims`.

    Forbidden words, truncated to the given degree: every x1^i x2 x1^j x2 x1^l
    whose middle run satisfies j < n - floor(n**q) (n the total degree), and
    every word of degree 3 in x2.  Only factor-minimal generators are
    emitted; the result's Hilbert dimensions match the closed form up to
    ``max_degree``.
    """
    r = as_fraction(r)
    if not Fraction(2) < r < Fraction(3):
        raise AlgebraError(f"growth exponent must lie strictly between 2 and 3, got {r}")
    q = (r - 1) / 2
    a, b = q.numerator, q.denominator
    x1, x2 = "x1", "x2"

    def gap(n: int) -> int:
        return n - floor_root(n ** a, b)

    words: list[Word] = []
    for j in range(0, max(0, max_degree - 1)):
        n_j = next((n for n in range(j + 2, max_degree + 1) if gap(n) > j), None)
        if n_j is None:
            continue
        middle = (x2,) + (x1,) * j + (x2,)
        for i in range(n_j - 2 - j + 1):
            l = n_j - 2 - j - i
            words.append((x1,) * i + middle + (x1,) * l)
    for a_run in range(0, max_degree - 2):
        for b_run in range(0, max_degree - 2 - a_run):
            n = a_run + b_run + 3
            if n > max_degree:
                continue
            g = gap(a_run + b_run + 2)
            if a_run >= g and b_run >= g:
                words.append((x2,) + (x1,) * a_run + (x2,) + (x1,) * b_run + (x2,))
    return MonomialAlgebraPresentation((x1, x2), words, name=f"staircase:{r}")


# ---------------------------------------------------------------------------
# gap-supported slow growth (dims 3 + delta)
# ---------------------------------------------------------------------------

def sparse_gap_intervals(limit: int) -> list[tuple[int, int]]:
    """Intervals [(2m+1)^(2m+1)+1, (2m+2)^(2m+2)+1] intersecting [0, limit]."""
    out = []
    m = 0
    while True:
        lo = (2 * m + 1) ** (2 * m + 1) + 1
        hi = (2 * m + 2) ** (2 * m + 2) + 1
        if lo > limit:
            break
        out.append((lo, hi))
        m += 1
    return out


def sparse_gap_indicator(n: int) -> int:
    """1 off the gap intervals, 0 on them (0 and 1 are off every interval)."""
    m = 0
    while True:
        lo = (2 * m + 1) ** (2 * m + 1) + 1
        if n < lo:
            return 1
        hi = (2 * m + 2) ** (2 * m + 2) + 1
        if n <= hi:
            return 0
        m += 1


def example62_dims(max_degree: int) -> DimSeries:
    """dims 1, 2, then 3 + indicator: the two-variable algebra whose third
    basis family x2 x1^i x2 survives exactly off the gap intervals."""
    if max_degree < 2:
        raise AlgebraError("this preset needs max_degree >= 2")
    values = [1, 2] + [3 + sparse_gap_indicator(n) for n in range(2, max_degree + 1)]
    return DimSeries(tuple(values), "degree")


def example62_monomial_model(max_degree: int) -> MonomialAlgebraPresentation:
    """Explicit forbidden words, truncated to ``max_degree``: x1 x2 x1 plus
    every x2 x1^i x2 whose degree i+2 lies on a gap interval.  Words of
    degree 3 in x2 are already multiples of these."""
    if max_degree < 2:
        raise AlgebraError("the model needs max_degree >= 2")
    x1, x2 = "x1", "x2"
    words: list[Word] = [(x1, x2, x1)]
    for lo, hi in sparse_gap_intervals(max_degree):
        for n in range(max(2, lo), min(hi, max_degree) + 1):
            words.append((x2,) + (x1,) * (n - 2) + (x2,))
    return MonomialAlgebraPresentation((x1, x2), words, name="gapped-slow-growth")


# ---------------------------------------------------------------------------
# other closed forms
# ---------------------------------------------------------------------------

def partition_dims(max_degree: int) -> DimSeries:
    """p(n), the number of partitions of n, by the parts dynamic program."""
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    table = [0] * (max_degree + 1)
    table[0] = 1
    for part in range(1, max_degree + 1):
        for s in range(part, max_degree + 1):
            table[s] += table[s - part]
    return DimSeries(tuple(table), "degree")


def floor_power_dims(alpha, max_index: int) -> DimSeries:
    """values[n] = floor(n**alpha) - floor((n-1)**alpha) for n >= 2, with
    values[0] = 0 and values[1] = 1 (identity slot), so the partial sums
    telescope to floor(n**alpha) exactly."""
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise AlgebraError("alpha must be positive")
    if max_index < 0:
        raise AlgebraError("max_index must be nonnegative")
    a, b = alpha.numerator, alpha.denominator
    floors = (floor_root(n ** a, b) for n in range(max_index + 1))
    return DimSeries(tuple(cur - prev for prev, cur in pairwise(chain((0,), floors))), "arity")


def polynomial_ring_dims(d: int, max_degree: int) -> DimSeries:
    """Dims of a polynomial ring on d variables: C(n+d-1, d-1)."""
    if d < 1:
        raise AlgebraError("need at least one variable")
    values = []
    c = 1
    for n in range(max_degree + 1):
        values.append(c)
        c = c * (n + d) // (n + 1)
    return DimSeries(tuple(values), "degree")


def free_algebra_dims(d: int, max_degree: int) -> DimSeries:
    """Dims of a free algebra on d variables: d**n."""
    if d < 1:
        raise AlgebraError("need at least one variable")
    return DimSeries(tuple(d ** n for n in range(max_degree + 1)), "degree")


def adjoin_polynomial_variables(dims: DimSeries, n: int) -> DimSeries:
    """Multiply a degree-indexed series by 1/(1-z)**n: n rounds of prefix sums."""
    if n < 1:
        raise AlgebraError("adjoin at least one variable")
    values = dims.values
    for _ in range(n):
        values = tuple(accumulate(values))
    return DimSeries(values, "degree", exact=dims.exact)


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

def parse_algebra(text: str, name: Optional[str] = None) -> MonomialAlgebraPresentation:
    """Parse ``name``, ``var <id>`` and ``forbid <id> <id> ...`` lines as
    :func:`oplab.dims.directives` reads them, or raise :class:`AlgebraSyntaxError`."""
    variables: list[str] = []
    forbid_lines: list[tuple[int, str, Word]] = []
    label = name
    for lineno, raw, keyword, rest in directives(text):
        fields = rest.split()
        if keyword == "var":
            if len(fields) != 1:
                raise AlgebraSyntaxError(lineno, raw, "expected 'var <id>'")
            if rest in variables:
                raise AlgebraSyntaxError(lineno, raw, "variable declared twice")
            variables.append(rest)
        elif keyword == "forbid":
            if not fields:
                raise AlgebraSyntaxError(lineno, raw, "expected 'forbid <id> <id> ...'")
            forbid_lines.append((lineno, raw, tuple(fields)))
        elif keyword == "name":
            label = rest or None
        else:
            raise AlgebraSyntaxError(lineno, raw, f"unknown directive {keyword!r}")
    if not variables:
        raise AlgebraSyntaxError(0, "", "algebra declares no variables")
    varset = set(variables)
    for lineno, raw, w in forbid_lines:
        if not set(w) <= varset:
            raise AlgebraSyntaxError(lineno, raw, "forbidden word uses unknown variables")
        if len(w) < 2:
            raise AlgebraSyntaxError(lineno, raw, "forbidden words need length >= 2")
    return MonomialAlgebraPresentation(variables, [w for _, _, w in forbid_lines], name=label)


def format_algebra(a: MonomialAlgebraPresentation) -> str:
    lines = []
    if a.name:
        lines.append(f"name {a.name}")
    for v in a.variables:
        lines.append(f"var {v}")
    for w in a.forbidden:
        lines.append("forbid " + " ".join(w))
    return "\n".join(lines) + "\n"
