"""Connected graded monomial algebras and closed-form dimension presets.

Hilbert dimensions of a monomial algebra are counted, in exact integer
arithmetic, on one Aho-Corasick word automaton (:func:`word_automaton`,
whose states are the prefixes of the forbidden words, at most one more
than their total length) by one walk (:func:`count_words`);
:mod:`oplab.branch` counts single-branched avoidance on the same two.
The closed-form presets cover the example algebras used throughout:
polynomial rings, free algebras, the intermediate-growth staircase family,
the gap-supported slow-growth algebra, the partition-function algebra, and
floor-power dimension data.

Floor powers ``floor(n**q)`` for rational q are evaluated via exact integer
k-th roots (Newton from a float estimate, then exact checks); no floating
point decides any dimension value.  A rational parameter is read by
:func:`ratio` as a pair of ints, so ``fractions`` loads only for a
parameter that is neither an int nor plain ``p`` or ``p/q`` text; a term
above :data:`MAX_RATIO_TERM` in lowest terms is rejected.  The gap
intervals are stated once, in :func:`sparse_gap_intervals`.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, islice, repeat, tee
from math import comb, exp, gcd, isqrt, log
from operator import add, mul, sub
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .dims import DimSeries, FileSyntaxError, Frozen, directives, format_ratio

if TYPE_CHECKING:
    from fractions import Fraction

Word = tuple[str, ...]

# the largest numerator or denominator, in lowest terms, of a rational preset parameter
MAX_RATIO_TERM = 1000


class AlgebraError(ValueError):
    """Base class for monomial-algebra errors."""


class AlgebraSyntaxError(FileSyntaxError, AlgebraError):
    """An algebra file failed to parse; carries the offending line."""


def ratio(x: Fraction | int | float | str) -> tuple[int, int]:
    """``x`` as (numerator, denominator) in lowest terms, denominator > 0, of
    the value ``Fraction(x)`` reads, raising what it raises; a float goes
    through its decimal literal.  An int, and text ``p`` or ``p/q`` in ASCII
    digits with q > 0, are read without loading ``fractions``."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str) and x.isascii():
        num, slash, den = x.partition("/")
        den = den if slash else "1"
        if num.isdecimal() and den.isdecimal() and den.strip("0"):
            num, den = int(num), int(den)
            g = gcd(num, den)
            return num // g, den // g
    from fractions import Fraction

    q = Fraction(str(x)) if isinstance(x, float) else Fraction(x)
    return q.numerator, q.denominator


def _parameter(x) -> tuple[int, int]:
    """:func:`ratio` of a rational preset parameter, rejected when its numerator
    or denominator in lowest terms exceeds :data:`MAX_RATIO_TERM`."""
    a, b = ratio(x)
    if max(abs(a), b) > MAX_RATIO_TERM:
        raise AlgebraError(f"numerator and denominator in lowest terms must be at most "
                           f"{MAX_RATIO_TERM}")
    return a, b


def floor_root(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x (x >= 0, k >= 1), exactly."""
    if x < 0 or k < 1:
        raise AlgebraError("floor_root needs x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return isqrt(x)
    # integer Newton iteration, seeded just above the root by a float
    # estimate; the shift keeps that float in range
    shift = max(0, x.bit_length() // k - 60)
    r = (int(exp(log(x >> k * shift) / k + 1e-9)) + 1) << shift
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


def _floor_powers(a: int, b: int, n: int) -> Iterator[int]:
    """floor(i**(a/b)) for i = 0..n, as a lazy chain of C-level maps."""
    powers = map(pow, range(n + 1), repeat(a))
    if b == 1:
        return powers
    if b == 2:  # floor_root's own square-root case, without a Python call per value
        return map(isqrt, powers)
    return map(floor_root, powers, repeat(b))


def floor_power(n: int, q) -> int:
    """floor(n**q) for n >= 0 and rational q > 0 (read by :func:`_parameter`),
    in exact integer arithmetic."""
    if n < 0:
        raise AlgebraError("floor_power needs n >= 0")
    a, b = _parameter(q)
    if a <= 0:
        raise AlgebraError("floor_power needs q > 0")
    return floor_root(n ** a, b)


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
        # a proper factor lies in w[:-1] or w[1:]; a walk dies on reading a factor
        delta = word_automaton(variables, words)
        column = {v: j for j, v in enumerate(variables)}

        def lives(word: Word) -> bool:
            state = 0
            for x in word:
                state = delta[state][column[x]]
                if state is None:
                    return False
            return True

        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "forbidden",
                           tuple(w for w in words if lives(w[:-1]) and lives(w[1:])))
        object.__setattr__(self, "name", name)

    def _key(self):  # without the name
        return self.variables, self.forbidden

    def __repr__(self):
        label = self.name or "algebra"
        return f"<{label} on {','.join(self.variables)} with {len(self.forbidden)} forbidden words>"


def word_is_normal(a: MonomialAlgebraPresentation, w: Word) -> bool:
    """True when no forbidden word occurs as a factor of ``w``."""
    w = tuple(w)
    return not any(w[s:s + len(f)] == f for f in a.forbidden for s in range(len(w) - len(f) + 1))


def hilbert_dims(a: MonomialAlgebraPresentation, max_degree: int) -> DimSeries:
    """Count length-n words avoiding every forbidden factor, for n <= max_degree."""
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    delta = word_automaton(a.variables, a.forbidden)
    return DimSeries(islice(count_words(delta), max_degree + 1), "degree")


def word_automaton(letters: Sequence[Hashable],
                   patterns: Iterable[Sequence]) -> list[list[Optional[int]]]:
    """The Aho-Corasick automaton of the words over ``letters`` with no pattern as a factor.

    States are the prefixes of the patterns, numbered breadth first with
    children in letter order (state 0 is the empty word; no hash decides a
    number).  A state is dead when it is a pattern or its fail state (its
    longest proper suffix that is a state) is dead, so a word dies once any
    suffix is a pattern, self-reduced or not.  ``delta[s][j]`` is the state
    after ``letters[j]`` from s, or None if dead.
    """
    trie: dict[tuple, int] = {}  # (node, letter) -> node, nodes numbered as first built
    ends = set()
    for w in patterns:
        node = 0
        for x in w:
            node = trie.setdefault((node, x), len(trie) + 1)
        ends.add(node)
    fail, dead, goto, queue = {0: 0}, {}, {}, [0]
    for s in queue:  # breadth first: a fail state is shallower, so its row is built
        dead[s] = s in ends or (s > 0 and dead[fail[s]])
        goto[s] = row = []
        for x in letters:
            via_fail = goto[fail[s]][len(row)] if s else 0
            t = trie.get((s, x))
            if t is not None:
                fail[t] = via_fail
                queue.append(t)
            row.append(via_fail if t is None else t)
    number = {s: i for i, s in enumerate(queue)}
    return [[None if dead[t] else number[t] for t in goto[s]] for s in queue]


def count_words(delta: Sequence[Sequence[Optional[int]]], weights: Optional[Sequence[int]] = None,
                limits: Optional[Mapping[int, int]] = None) -> Iterator[int]:
    """Yield, for n = 0, 1, 2, ..., how many n-letter words stay live in ``delta``.

    A word counts ``weights[s]`` times for the state s it ends in (once
    without weights).  ``limits`` caps how often a word reads the letter of
    each listed column; a word is keyed on its state and its capped letter
    counts, packed as ``s * radix + code`` in mixed radix.
    """
    radix, place = 1, {}
    for j, limit in (limits or {}).items():
        place[j] = (radix, limit + 1)
        radix *= limit + 1
    vec = {0: 1}
    while True:
        if weights is None:
            yield sum(vec.values())
        else:
            yield sum(cnt * weights[key // radix] for key, cnt in vec.items())
        nxt: dict[int, int] = {}
        for key, cnt in vec.items():
            state, code = divmod(key, radix)
            for j, target in enumerate(delta[state]):
                if target is None:
                    continue
                key = target * radix + code
                if j in place:
                    unit, base = place[j]
                    if code // unit % base == base - 1:
                        continue
                    key += unit
                nxt[key] = nxt.get(key, 0) + cnt
        vec = nxt


# ---------------------------------------------------------------------------
# staircase intermediate-growth family
# ---------------------------------------------------------------------------

def _staircase_exponent(r) -> tuple[str, tuple[int, int]]:
    """The growth exponent r, read by :func:`ratio` and written as a Fraction
    writes it, and q = (r - 1) / 2 in lowest terms; r must lie in (2, 3)."""
    a, b = _parameter(r)
    if not 2 * b < a < 3 * b:
        raise AlgebraError(f"growth exponent must lie strictly between 2 and 3, "
                           f"got {format_ratio(a, b)}")
    g = gcd(a - b, 2 * b)
    return format_ratio(a, b), ((a - b) // g, 2 * b // g)


def warfield_dims(r, max_degree: int, stream: bool = False) -> DimSeries | Iterator[int]:
    """Strictly increasing dims with growth exponent r, for 2 < r < 3.

    With q = (r-1)/2 the degree-n dimension is
    1 + n + (floor(n**q) - 1) * floor(n**q) / 2 (1 and 2 at n = 0 and 1);
    the partial sums grow like n**r.
    With ``stream`` the values come as a lazy iterator, to be read once,
    and no DimSeries is built.
    """
    a, b = _staircase_exponent(r)[1]
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    floors = _floor_powers(a, b, max_degree)
    # (fl - 1) * fl / 2 is comb(fl, 2), also at fl = 0 and 1
    values = map(add, map(comb, floors, repeat(2)), count(1))
    return values if stream else DimSeries(values, "degree")


def warfield_monomial_model(r, max_degree: int) -> MonomialAlgebraPresentation:
    """The explicit two-variable monomial algebra behind :func:`warfield_dims`.

    Forbidden words, truncated to the given degree: every x1^i x2 x1^j x2 x1^l
    whose middle run satisfies j < n - floor(n**q) (n the total degree), and
    every word of degree 3 in x2.  Only factor-minimal generators are
    emitted; the result's Hilbert dimensions match the closed form up to
    ``max_degree``.
    """
    r, (a, b) = _staircase_exponent(r)
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


def example62_dims(max_degree: int, stream: bool = False) -> DimSeries | Iterator[int]:
    """dims 1, 2, then 3 + [n lies off every gap interval]: the two-variable
    algebra whose third basis family x2 x1^i x2 survives exactly off the
    gap intervals, as runs of 4s between the intervals and of 3s on them.
    With ``stream`` the values come as a lazy iterator, to be read once,
    and no DimSeries is built."""
    if max_degree < 0:
        raise AlgebraError("max_degree must be nonnegative")
    runs, start = [(1, 2)], 2
    for lo, hi in sparse_gap_intervals(max_degree):
        runs += repeat(4, lo - start), repeat(3, hi + 1 - lo)
        start = hi + 1
    values = islice(chain(*runs, repeat(4)), max_degree + 1)
    return values if stream else DimSeries(values, "degree")


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


def floor_power_dims(alpha, max_index: int, stream: bool = False) -> DimSeries | Iterator[int]:
    """values[n] = floor(n**alpha) - floor((n-1)**alpha) for n >= 2, with
    values[0] = 0 and values[1] = 1 (identity slot), so the partial sums
    telescope to floor(n**alpha) exactly.
    With ``stream`` the values come as a lazy iterator, to be read once,
    and no DimSeries is built."""
    a, b = _parameter(alpha)
    if a <= 0:
        raise AlgebraError("alpha must be positive")
    if max_index < 0:
        raise AlgebraError("max_index must be nonnegative")
    floors, previous = tee(_floor_powers(a, b, max_index))
    values = map(sub, floors, chain((0,), previous))
    return values if stream else DimSeries(values, "arity")


def polynomial_ring_dims(d: int, max_degree: int,
                         stream: bool = False) -> DimSeries | Iterator[int]:
    """Dims of a polynomial ring on d variables: C(n+d-1, d-1).
    With ``stream`` the values come as a lazy iterator, to be read once,
    and no DimSeries is built."""
    if d < 1:
        raise AlgebraError("need at least one variable")
    values = map(comb, range(d - 1, max_degree + d), repeat(d - 1))
    return values if stream else DimSeries(values, "degree")


def free_algebra_dims(d: int, max_degree: int, stream: bool = False) -> DimSeries | Iterator[int]:
    """Dims of a free algebra on d variables: d**n, as a running product.
    With ``stream`` the values come as a lazy iterator, to be read once,
    and no DimSeries is built."""
    if d < 1:
        raise AlgebraError("need at least one variable")
    values = islice(accumulate(repeat(d), mul, initial=1), max(0, max_degree + 1))
    return values if stream else DimSeries(values, "degree")


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
