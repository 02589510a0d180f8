"""Generating-series analysis: growth estimation, rational fitting,
polynomial-coefficient recurrence guessing, and zero-run structure.

The fitters take any iterable of exact numbers (a DimSeries, ints or
Fractions): a window of ints stays in ints, fitted by fraction-free
elimination, and any other is converted to Fractions once on entry, so
``fractions`` loads only for a non-integral value (a fit whose denominator
needs one included).  The growth estimator takes nonnegative integers, a
sequence or an iterable of known truncation, and reads them once in one
loop over pieces, checking each; it folds the logarithms of a piece's
partial sums on the tail window into running least-squares sums, so its
memory does not grow with the window.  Every fit runs over exact
rationals; the only floating point lives in the explicitly labelled growth
estimators (logarithms of exact partial sums).
Absence results are "no candidate at these bounds", never a proof beyond
them.  Both fitters share one scan of one integer matrix per bound, whose
rows past N - 20 are a holdout that no fit sees; "none" is exact for the
fitted rows when the top bound's are certified modulo a prime.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate, islice, pairwise
from operator import add, mul, truediv
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .dims import DimSeries, as_dim_values
from .linalg import clear_denominators, kernel_is_trivial, nullspace, scale_rows_to_int

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_HOLDOUT = 20
TAIL_FRACTION = 1 / 3  # gk_estimate fits its slope on the last third of the window
_CHUNK = 4096  # values gk_estimate holds at a time


class SeriesError(ValueError):
    """Base class for series-analysis errors."""


class DegenerateSeriesError(SeriesError):
    """The series is identically zero beyond index 1; growth is undefined."""


class WindowTooShortError(SeriesError):
    """Not enough coefficients for the requested fit bounds plus holdout."""


def _exact(s: Iterable) -> tuple[Fraction, ...]:
    """The coefficients c_0..c_N as exact rationals; a float becomes the
    rational it stores exactly."""
    from fractions import Fraction

    return tuple(Fraction(c) for c in s)


def _window(s: Iterable) -> tuple[Fraction | int, ...]:
    """The coefficients c_0..c_N as they are when every one is an int, else
    as :func:`_exact` gives them."""
    coeffs = tuple(s)
    return coeffs if set(map(type, coeffs)) <= {int} else _exact(coeffs)


def series_shift(s: Iterable) -> tuple[Fraction, ...]:
    """Multiply by z, keeping the truncation window."""
    from fractions import Fraction

    coeffs = _exact(s)
    return ((Fraction(0),) + coeffs)[:len(coeffs)]


def series_derivative(s: Iterable) -> tuple[Fraction, ...]:
    """Formal derivative; the window shrinks by one."""
    return tuple(n * c for n, c in enumerate(_exact(s)) if n >= 1)


def series_mul(a: Iterable, b: Iterable,
               truncation: Optional[int] = None) -> tuple[Fraction, ...]:
    """Cauchy product truncated to the shorter window (or to ``truncation``)."""
    from fractions import Fraction

    a, b = _exact(a), _exact(b)
    n = min(len(a), len(b)) - 1 if truncation is None else truncation
    out = [Fraction(0)] * (n + 1)
    for i, ca in enumerate(a[:n + 1]):
        if ca == 0:
            continue
        for j, cb in enumerate(b[:n + 1 - i]):
            if cb != 0:
                out[i + j] += ca * cb
    return tuple(out)


# ---------------------------------------------------------------------------
# growth estimation
# ---------------------------------------------------------------------------

class GkReport(NamedTuple):
    """Growth estimates from exact partial sums (floating point, labelled).

    ``pointwise`` is log_N(S(N)); ``slope`` the least-squares slope of
    log S against log n on the tail window; ``pointwise_max`` the largest
    pointwise value on the window (closer to a limsup on gappy series);
    ``exp_flag`` marks geometric growth, where both estimates diverge.
    """

    pointwise: float
    slope: float
    pointwise_max: float
    exp_flag: bool
    window: tuple[int, int]
    n_max: int


def gk_estimate(dims: DimSeries | Iterable, truncation: Optional[int] = None) -> GkReport:
    """Estimate the growth exponent limsup log_n(sum of dims up to n).

    ``dims`` is a DimSeries, a sequence of nonnegative integral numbers
    (ints, or Fractions such as CSV gives) or, with its ``truncation`` given,
    any iterable of the values 0..truncation.  The values are read once,
    front to back, in pieces of at most ``_CHUNK``, and checked as they are
    read, as :func:`~oplab.dims.as_dim_values` checks them.  Of the partial
    sums only those at index 1 and at the geometric test's anchors are
    kept.  Sums never decrease, so the positive ones on the tail window are
    a suffix of it; each piece's logs are folded into running least-squares
    sums and dropped, so the memory held does not grow with the window: one
    piece of values, or its logs and those of their indices.

    Each running sum adds its floats left to right from its total so far,
    so it is bit-identical to one left-to-right sum over the whole window,
    which is what the built-in ``sum`` gives up to CPython 3.11 (it
    compensates its rounding from 3.12 on): a report is the same on every
    CPython version."""
    n_max = len(dims) - 1 if truncation is None else truncation
    start = max(2, n_max - int(n_max * TAIL_FRACTION))
    anchors = _anchors(n_max)
    at = {}  # the partial sums at index 1 and at the anchors
    k = 0  # the points (log n, log S(n)) folded into the sums below
    sx = sy = sxx = sxy = 0.0
    ratio_max = -math.inf  # the largest log S(n) / log n so far
    values = iter(dims)
    total = n = 0  # the sum of the values before index n
    while n <= n_max:
        piece = tuple(islice(values, min(_CHUNK, n_max + 1 - n)))
        if not piece:
            raise ValueError(f"expected {n_max + 1} dimension values, got {n}")
        piece = as_dim_values(piece, n)
        for i in (1, *anchors):
            if n <= i < n + len(piece):
                at[i] = total + sum(piece[:i + 1 - n])
        skip = max(0, start - n)  # the values before the window start
        sums = accumulate(piece[skip:], initial=total + sum(piece[:skip]))
        next(sums)
        total += sum(piece)
        n += len(piece)
        ys = list(map(math.log, filter(None, sums)))
        del piece, sums  # gone before the x values are built
        xs = list(map(math.log, range(n - len(ys), n)))
        k += len(ys)
        sx = reduce(add, xs, sx)
        sy = reduce(add, ys, sy)
        sxx = reduce(add, map(mul, xs, xs), sxx)
        sxy = reduce(add, map(mul, xs, ys), sxy)
        ratio_max = max((ratio_max, *map(truediv, ys, xs)))
        del xs, ys  # gone before the next piece is read
    if n_max < 7:
        raise SeriesError("need at least 8 dimension values to estimate growth")
    if total == at[1]:
        raise DegenerateSeriesError("series is zero beyond index 1")
    if k < 2:
        raise DegenerateSeriesError("partial sums vanish on the tail window")
    den = k * sxx - sx * sx
    slope = (k * sxy - sx * sy) / den if den else 0.0
    return GkReport(math.log(total) / math.log(n_max), slope, ratio_max,
                    _geometric([at[a] for a in anchors]), (start, n_max), n_max)


def _anchors(n_max: int) -> list[int]:
    """The geometric test's indices n0, 2 n0, 4 n0, ... <= n_max, from
    n0 = max(2, n_max // 16)."""
    anchors = []
    n = max(2, n_max // 16)
    while n <= n_max:
        anchors.append(n)
        n *= 2
    return anchors


def _geometric(sums: Sequence[int]) -> bool:
    """Do the doubling ratios S(2n)/S(n) keep growing?  (geometric test on
    the partial sums at the anchors; False when fewer than three fit)"""
    if len(sums) < 3:
        return False
    exps = []
    for lo, hi in pairwise(sums):
        if lo == 0:
            return False
        exps.append((math.log(hi) - math.log(lo)) / math.log(2))
    increasing = all(b > a for a, b in zip(exps, exps[1:]))
    return increasing and exps[-1] - exps[0] > 2.0


# ---------------------------------------------------------------------------
# rational fitting
# ---------------------------------------------------------------------------

class RationalFit(NamedTuple):
    """num(z)/den(z) matching every coefficient in the window, holdout included.

    Polynomials are coefficient tuples, low degree first, den normalized to
    den[0] == 1.  The fit of a window of ints stays in ints when den has
    integer coefficients; otherwise the non-integral coefficients, and those
    computed from them, are Fractions.
    """

    numerator: tuple[Fraction | int, ...]
    denominator: tuple[Fraction | int, ...]


def fit_bounds(n_max: int, max_den_degree: Optional[int] = None,
               max_num_degree: Optional[int] = None) -> tuple[int, int]:
    """The (denominator, numerator) degree bounds :func:`fit_rational` searches
    on a window of truncation ``n_max``.

    An unset denominator bound is the largest d <= 8 with 2d + 4 <= n_max -
    DEFAULT_HOLDOUT (0 when there is none); an unset numerator bound is the
    denominator bound plus 3.  The numerator bound is capped at n_max -
    DEFAULT_HOLDOUT - 1, the largest degree that leaves a fitted row.
    """
    if max_den_degree is None:
        max_den_degree = min(8, max(0, (n_max - DEFAULT_HOLDOUT - 4) // 2))
    if max_num_degree is None:
        max_num_degree = max_den_degree + 3
    return max_den_degree, min(max_num_degree, max(0, n_max - DEFAULT_HOLDOUT - 1))


def fit_rational(s: Iterable, max_den_degree: Optional[int] = None,
                 max_num_degree: Optional[int] = None) -> Optional[RationalFit]:
    """Minimal rational function whose expansion reproduces the window.

    On the window scaled to integers, a fit with denominator 1 + b1 z + ...
    + bd z^d and numerator degree <= nu is a null vector k (b1..bd, 1), k > 0,
    of the rows (c_{n-1}, ..., c_{n-d}, c_n), nu < n <= N: row n dotted with
    it is the coefficient of z^n in den * series, scaled.  The bounds are
    scanned by :func:`_null_vectors`, denominator degree first; den and num
    stay in ints when k divides every k b_j and the window is integral.
    """
    coeffs = _window(s)
    n_max = len(coeffs) - 1
    max_den_degree, max_num_degree = fit_bounds(n_max, max_den_degree, max_num_degree)
    if n_max < 2 * max_den_degree + 4:
        raise WindowTooShortError(
            f"need N >= {2 * max_den_degree + 4} for denominator degree {max_den_degree}")
    if n_max <= DEFAULT_HOLDOUT:
        raise WindowTooShortError(
            f"need N > {DEFAULT_HOLDOUT} to keep a holdout of {DEFAULT_HOLDOUT}; got N = {n_max}")
    scaled = scale_rows_to_int([coeffs])[0]

    def rows(d: int, nu: int, stop: int) -> Iterator[list[int]]:
        return ([scaled[n - j] if n >= j else 0 for j in range(1, d + 1)] + [scaled[n]]
                for n in range(nu + 1, stop + 1))

    for (_, nu), vec in _null_vectors(rows, 0, (max_den_degree, max_num_degree), n_max):
        *bs, last = vec
        if last:  # the one basis vector with c_n's column free; its other free b_j are 0
            if any(b % last for b in bs):
                from fractions import Fraction

                den = (1, *(Fraction(b, last) for b in bs))
            else:
                den = (1, *(b // last for b in bs))
            return RationalFit(tuple(sum(map(mul, den, coeffs[n::-1])) for n in range(nu + 1)),
                               den)
    return None


def expand_rational(fit: RationalFit, truncation: int) -> tuple[Fraction, ...]:
    """Power-series expansion of num/den up to the given truncation."""
    from fractions import Fraction

    num, den = fit.numerator, fit.denominator
    if not den or den[0] == 0:
        raise SeriesError("denominator must have nonzero constant term")
    out = [Fraction(0)] * (truncation + 1)
    for n in range(truncation + 1):
        acc = Fraction(num[n] if n < len(num) else 0)
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out[n] = acc / den[0]
    return tuple(out)


# ---------------------------------------------------------------------------
# holonomic guessing
# ---------------------------------------------------------------------------

class RecurrenceCandidate(NamedTuple):
    """sum_i p_i(n) c_{n-i} = 0 on the fit window and the holdout suffix.

    ``polynomials[i]`` lists the integer coefficients of p_i, low degree
    first.  Absence of a candidate at given bounds is not a proof of
    non-holonomicity.
    """

    order: int
    degree: int
    polynomials: tuple[tuple[int, ...], ...]
    fit_window: tuple[int, int]

    def residual(self, coeffs: Sequence[Fraction], n: int) -> Fraction:
        from fractions import Fraction

        acc = Fraction(0)
        for i, poly in enumerate(self.polynomials):
            pn = sum(Fraction(c) * n ** k for k, c in enumerate(poly))
            acc += pn * Fraction(coeffs[n - i])
        return acc

    def annihilates(self, coeffs: Sequence[Fraction], start: int, stop: int) -> bool:
        return all(self.residual(coeffs, n) == 0 for n in range(start, stop + 1))


def guess_holonomic(s: Iterable, max_order: int,
                    max_degree: int) -> Optional[RecurrenceCandidate]:
    """Search for a polynomial-coefficient linear recurrence, smallest order
    first, then smallest degree.

    The window is scaled to integers once (a constant multiple keeps every
    recurrence), so each row is built over the integers: row n holds
    c_{n-i} n^k, and dotted with a candidate it is the residual at n,
    scaled.  The bounds are scanned by :func:`_null_vectors`.
    """
    coeffs = _window(s)
    n_max = len(coeffs) - 1
    needed = (max_order + 1) * (max_degree + 1) + max_order + DEFAULT_HOLDOUT
    if n_max < needed:
        raise WindowTooShortError(
            f"need N >= {needed} for bounds (order {max_order}, degree {max_degree}, "
            f"holdout {DEFAULT_HOLDOUT}); got N = {n_max}")
    scaled = scale_rows_to_int([coeffs])[0]

    def rows(order: int, degree: int, stop: int) -> Iterator[list[int]]:
        return ([scaled[n - i] * n ** k for i in range(order + 1) for k in range(degree + 1)]
                for n in range(order, stop + 1))

    for (order, degree), vec in _null_vectors(rows, 1, (max_order, max_degree), n_max):
        ints = clear_denominators(vec)
        polys = tuple(tuple(ints[i * (degree + 1):(i + 1) * (degree + 1)])
                      for i in range(order + 1))
        return RecurrenceCandidate(order, degree, polys, (order, n_max - DEFAULT_HOLDOUT))
    return None


def _null_vectors(rows: Callable[[int, int, int], Iterator[list[int]]], first: int,
                  top: tuple[int, int],
                  n_max: int) -> Iterator[tuple[tuple[int, int], list[int]]]:
    """The one bound scan behind both fitters.

    ``rows(a, b, stop)`` builds a bound's integer rows up to index
    ``stop``; those up to N - ``DEFAULT_HOLDOUT`` are fitted and the last
    ``DEFAULT_HOLDOUT`` are the holdout.  Every bound's null vector, padded
    with zeros, is one of the top bound's fitted rows, so nothing is
    yielded when :func:`~oplab.linalg.kernel_is_trivial` certifies those.
    Otherwise the bounds are scanned, a from ``first`` up, then b, and each
    :func:`~oplab.linalg.nullspace` basis vector of a bound's fitted rows
    (an integer vector) whose dot product with every holdout row is 0 is
    yielded.
    """
    if kernel_is_trivial(rows(*top, n_max - DEFAULT_HOLDOUT)):  # built only as far as read
        return
    for a in range(first, top[0] + 1):
        for b in range(top[1] + 1):
            mat = list(rows(a, b, n_max))
            fit, holdout = mat[:-DEFAULT_HOLDOUT], mat[-DEFAULT_HOLDOUT:]
            if len(fit) < len(mat[0]) - 1 or kernel_is_trivial(fit):  # fewer rows than unknowns
                continue
            for vec in nullspace(fit):
                if not any(sum(map(mul, row, vec)) for row in holdout):
                    yield (a, b), vec


# ---------------------------------------------------------------------------
# zero runs and the exponential transform
# ---------------------------------------------------------------------------

class ZeroRunReport(NamedTuple):
    """Maximal zero intervals of a coefficient stream (heuristic evidence).

    ``growing`` is True when the last three complete runs (runs followed by
    a nonzero inside the window) have strictly increasing lengths.  Finite
    windows cannot certify an infinite limsup of run lengths.
    """

    runs: tuple[tuple[int, int], ...]
    max_run: int
    growing: bool


def zero_run_report(coeffs: Iterable) -> ZeroRunReport:
    """Scan any coefficient iterable for maximal runs of zeros."""
    runs: list[tuple[int, int]] = []
    start: Optional[int] = None
    for i, c in enumerate(coeffs):
        if c == 0:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - 1))
            start = None
    lens = [hi - lo + 1 for lo, hi in runs[-3:]]  # complete runs: all but a trailing open one
    if start is not None:
        runs.append((start, i))
    max_run = max((hi - lo + 1 for lo, hi in runs), default=0)
    return ZeroRunReport(tuple(runs), max_run, len(lens) == 3 and lens[0] < lens[1] < lens[2])


def exponential_transform(s: Iterable) -> tuple[Fraction, ...]:
    """c_n -> c_n / n! as exact rationals."""
    out = []
    fact = 1
    for n, c in enumerate(_exact(s)):
        if n:
            fact *= n
        out.append(c / fact)
    return tuple(out)
