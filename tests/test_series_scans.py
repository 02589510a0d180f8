"""fit_rational and guess_holonomic against plain bound-by-bound scans.

The oracles solve one Fraction system per (denominator, numerator) bound,
and try every recurrence bound with no top-bound certificate.  The
analysers must return exactly what the oracles return.
"""

import random
from fractions import Fraction

import pytest

from oplab import fit_rational, guess_holonomic, partition_dims
from oplab import series
from oplab.linalg import clear_denominators, kernel_is_trivial, nullspace, scale_rows_to_int, solve
from oplab.series import (
    DEFAULT_HOLDOUT,
    RationalFit,
    RecurrenceCandidate,
    WindowTooShortError,
    expand_rational,
)


def scan_fit(s, max_den=None, max_num=None):
    """Rational fit with one Fraction solve per (denominator, numerator) bound."""
    coeffs = [Fraction(c) for c in s]
    n_max = len(coeffs) - 1
    usable = n_max - DEFAULT_HOLDOUT
    if max_den is None:
        max_den = min(8, max(0, (n_max - DEFAULT_HOLDOUT - 4) // 2))
    for d in range(max_den + 1):
        for nu in range(max_den + 4 if max_num is None else max_num + 1):
            if nu + 1 > usable:
                break
            if d == 0:
                ok = all(coeffs[n] == 0 for n in range(nu + 1, usable + 1))
                den = [Fraction(1)] if ok else None
            else:
                rows = [[coeffs[n - j] if n >= j else Fraction(0) for j in range(1, d + 1)]
                        for n in range(nu + 1, usable + 1)]
                sol = None if len(rows) < d else solve(rows, [-coeffs[n]
                                                             for n in range(nu + 1, usable + 1)])
                den = None if sol is None else [Fraction(1)] + sol
            if den is None:
                continue
            conv = [sum(den[j] * coeffs[n - j] for j in range(min(n, d) + 1))
                    for n in range(n_max + 1)]
            if all(conv[n] == 0 for n in range(nu + 1, n_max + 1)):
                return RationalFit(tuple(conv[:nu + 1]), tuple(den))
    return None


def scan_guess(s, max_order, max_degree):
    """Recurrence guess that tries every bound, with no top-bound certificate."""
    coeffs = [Fraction(c) for c in s]
    usable = len(coeffs) - 1 - DEFAULT_HOLDOUT
    scaled = scale_rows_to_int([coeffs])[0]
    for order in range(1, max_order + 1):
        for degree in range(max_degree + 1):
            rows = [[scaled[n - i] * n ** k for i in range(order + 1) for k in range(degree + 1)]
                    for n in range(order, usable + 1)]
            if len(rows) < len(rows[0]) or kernel_is_trivial(rows):
                continue
            for vec in nullspace(rows):
                ints = clear_denominators(vec)
                polys = tuple(tuple(ints[i * (degree + 1):(i + 1) * (degree + 1)])
                              for i in range(order + 1))
                cand = RecurrenceCandidate(order, degree, polys, (order, usable))
                if cand.annihilates(coeffs, usable + 1, len(coeffs) - 1):
                    return cand
    return None


def _rational_window(rng, n_max):
    den = (Fraction(1),) + tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3)))
    num = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                for _ in range(rng.randint(1, 4)))
    return list(expand_rational(RationalFit(num, den), n_max))


def _holonomic_window(rng, n_max):
    # (n + a) c_n = (b n + e) c_{n-1} + f c_{n-2}: order 2, degree 1
    a, b, e, f = rng.randint(1, 3), rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2)
    vals = [Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 4))]
    for n in range(2, n_max + 1):
        vals.append(((b * n + e) * vals[n - 1] + f * vals[n - 2]) / (n + a))
    return vals


def _windows():
    rng = random.Random(11)
    windows = [
        # the fit window is Fibonacci, the holdout breaks it: the top matrix of
        # either analyser is rank-deficient, and every candidate fails the holdout
        ("fib-broken-holdout", _fib(30) + [7] * 4),
        ("constant-then-jump", [Fraction(1, 3)] * 24 + [Fraction(2)] * 12),
        ("partitions", list(partition_dims(36))),
        ("catalan", _catalan(36)),
    ]
    for i in range(4):
        n_max = rng.randint(31, 38)
        for kind, make in (("rational", _rational_window), ("holonomic", _holonomic_window)):
            vals = make(rng, n_max)
            windows.append((f"{kind}-{i}", vals))
            windows.append((f"{kind}-{i}-zeros", [0] * rng.randint(1, 4) + vals))
            changed = list(vals)
            changed[rng.randrange(len(changed))] += rng.choice((-1, 1, Fraction(1, 2)))
            windows.append((f"{kind}-{i}-changed", changed))
        windows.append((f"random-{i}", [rng.randint(0, 9) for _ in range(n_max + 1)]))
    return windows


def _fib(n):
    vals = [0, 1]
    while len(vals) <= n:
        vals.append(vals[-1] + vals[-2])
    return vals


def _catalan(n):
    vals = [1]
    for k in range(n):
        vals.append(vals[-1] * 2 * (2 * k + 1) // (k + 2))
    return vals


WINDOWS = _windows()


@pytest.mark.parametrize("name, window", WINDOWS, ids=[name for name, _ in WINDOWS])
def test_fit_matches_the_solve_scan(name, window):
    fit = fit_rational(window)
    assert fit == scan_fit(window)
    if name.startswith("rational") and not name.endswith("changed"):
        assert fit is not None


def _bounded_windows():
    # rational windows with numerators up to the fitted rows, at explicit bounds
    rng = random.Random(12)
    cases = []
    for _ in range(12):
        n_max = rng.randint(21, 30)
        den = (Fraction(1),) + tuple(Fraction(rng.choice((0, 0, 1, -1, 2)))
                                     for _ in range(rng.randint(0, 3))) + (Fraction(1),)
        num = tuple(Fraction(rng.choice((0, 0, 1, -1)))
                    for _ in range(rng.randint(0, n_max - 20))) + (Fraction(1),)
        window = list(expand_rational(RationalFit(num, den), n_max))
        cases.append((window, rng.randint(0, (n_max - 4) // 2), rng.randint(0, n_max - 20)))
    return cases


@pytest.mark.parametrize("window, max_den, max_num", _bounded_windows())
def test_fit_matches_the_solve_scan_at_explicit_bounds(window, max_den, max_num):
    assert fit_rational(window, max_den, max_num) == scan_fit(window, max_den, max_num)


def test_bounds_with_fewer_rows_than_denominator_terms_are_skipped():
    # 1/(1 - z^2) plus a degree-7 polynomial needs numerator degree 9; at N=30
    # that leaves one fitted row for two denominator terms, at N=32 three
    coeffs = [int(n % 2 == 0) + (n + 1 if n <= 7 else 0) for n in range(33)]
    assert fit_rational(coeffs[:31], 3, 9) is None is scan_fit(coeffs[:31], 3, 9)
    assert fit_rational(coeffs, 3, 9).denominator == (1, 0, -1)


@pytest.mark.parametrize("name, window", WINDOWS, ids=[name for name, _ in WINDOWS])
def test_guess_matches_the_full_scan(name, window):
    cand = guess_holonomic(window, 2, 2)
    assert cand == scan_guess(window, 2, 2)
    if name.startswith("holonomic") and name.count("-") == 1:
        assert cand is not None


def _counting(monkeypatch):
    calls = {"kernel_is_trivial": 0, "nullspace": 0}
    for name in calls:
        real = getattr(series, name)

        def counted(rows, _name=name, _real=real):
            calls[_name] += 1
            return _real(rows)
        monkeypatch.setattr(series, name, counted)
    return calls


@pytest.mark.parametrize("analyse", [
    lambda: guess_holonomic(partition_dims(300), 6, 6),
    lambda: fit_rational(_catalan(160)),
    lambda: fit_rational(partition_dims(300)),
], ids=["guess-partitions-300", "fit-catalan-160", "fit-partitions-300"])
def test_no_answer_is_one_certificate(monkeypatch, analyse):
    calls = _counting(monkeypatch)
    assert analyse() is None
    assert calls == {"kernel_is_trivial": 1, "nullspace": 0}


@pytest.mark.parametrize("analyse, bounds", [
    (lambda w: fit_rational(w), 6 * 9),  # N=34: den <= 5, num <= 8
    (lambda w: guess_holonomic(w, 2, 2), 2 * 3),
], ids=["fit", "guess"])
def test_rank_deficient_top_scans_every_bound(monkeypatch, analyse, bounds):
    window = dict(WINDOWS)["fib-broken-holdout"]
    calls = _counting(monkeypatch)
    assert analyse(window) is None
    assert calls["kernel_is_trivial"] == 1 + bounds and calls["nullspace"] > 0


def test_fit_needs_a_window_longer_than_the_holdout():
    # the denominator-degree check still comes first, with its own text
    with pytest.raises(WindowTooShortError, match="need N >= 12 for denominator degree 4"):
        fit_rational([1, 2, 3, 5], max_den_degree=4)
    with pytest.raises(WindowTooShortError, match="need N > 20 .*got N = 4$"):
        fit_rational(_fib(4))
    assert fit_rational(_fib(21)) is None  # one fitted row: c_1 != 0, so no constant fit
