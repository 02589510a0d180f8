"""Series lab: growth estimates, rational fits, recurrence guessing, zero runs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import (
    DimSeries,
    MonomialAlgebraPresentation,
    exponential_transform,
    fit_rational,
    free_algebra_dims,
    gk_estimate,
    guess_holonomic,
    hilbert_dims,
    operadization_dims,
    partition_dims,
    polynomial_ring_dims,
    zero_run_report,
)
from oplab.dims import as_dim_values
from oplab.series import (
    DEFAULT_HOLDOUT,
    DegenerateSeriesError,
    RationalFit,
    WindowTooShortError,
    expand_rational,
    series_derivative,
    series_mul,
    series_shift,
)


def fib_values(n):
    vals = [0, 1, 1]
    while len(vals) <= n:
        vals.append(vals[-1] + vals[-2])
    return vals[:n + 1]


class TestDimSeries:
    def test_values_are_kept_as_a_tuple(self):
        assert DimSeries([1, 2, 3], "arity").values == (1, 2, 3)

    @pytest.mark.parametrize("values, kind", [
        ((1, -1), "arity"), ((1, Fraction(2)), "arity"), ((1, 2.0), "arity"),
        ((1, True), "arity"), ((1, 2), "height"),
    ])
    def test_rejects_bad_values_and_kinds(self, values, kind):
        with pytest.raises(ValueError):
            DimSeries(values, kind)

    def test_gk_estimate_takes_integral_fractions(self):
        # CSV input reaches gk_estimate as integral Fractions
        dims = partition_dims(300)
        assert gk_estimate([Fraction(v) for v in dims]) == gk_estimate(dims)
        assert as_dim_values([Fraction(4), 2, Fraction(6, 3)]) == (4, 2, 2)

    @pytest.mark.parametrize("values, bad", [
        ([1, Fraction(1, 2)], 1), ([0, 1, 1.5], 2), ([1, 2, 3, -1], 3), ([Fraction(-2)], 0),
    ])
    def test_plain_sequences_must_be_nonnegative_integers(self, values, bad):
        # no value is truncated to an int: 1/2 is not read as 0, nor 3/2 as 1
        with pytest.raises(ValueError, match=f"dimension {bad} is"):
            as_dim_values(values)
        with pytest.raises(ValueError):
            gk_estimate(list(range(1, 10)) + values)


class TestGkEstimate:
    def test_polynomial_ring_slope(self):
        report = gk_estimate(polynomial_ring_dims(3, 3000))
        assert abs(report.slope - 3) < 0.1
        assert not report.exp_flag

    def test_exponential_flag(self):
        report = gk_estimate(free_algebra_dims(2, 200))
        assert report.exp_flag

    def test_power_law_slopes_at_1e5(self):
        # dims ~ 3 n^(s-1) make the partial sums grow like n^s
        for s in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3)):
            dims = [0, 1] + [3 * _floor_pow(n, s - 1) if s > 1 else 3
                             for n in range(2, 10 ** 5 + 1)]
            report = gk_estimate(dims)
            assert abs(report.slope - float(s)) < 0.05, s
            assert not report.exp_flag

    def test_huge_partial_sums_do_not_overflow(self):
        report = gk_estimate(free_algebra_dims(2, 5000))
        assert report.exp_flag and report.pointwise > 100

    def test_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            gk_estimate([0, 1] + [0] * 50)


def _floor_pow(n, q):
    from oplab.algebra import floor_power
    return floor_power(n, q)


class TestFitRational:
    def test_geometric_with_offset(self):
        vals = [0, 1] + [2 ** (n - 2) for n in range(2, 41)]
        fit = fit_rational(vals)
        assert fit.numerator == (0, 1, -1)
        assert fit.denominator == (1, -2)

    def test_fibonacci_denominator(self):
        fit = fit_rational(fib_values(40))
        assert fit.numerator == (0, 1)
        assert fit.denominator == (1, -1, -1)

    def test_eventually_constant(self):
        vals = [0, 1, 1] + [2] * 37
        fit = fit_rational(vals)
        assert fit.numerator == (0, 1, 0, 1)
        assert fit.denominator == (1, -1)

    def test_fractional_denominator(self):
        # 1/(1 - z/2): the fitted b_1 is not a multiple of the scale
        fit = fit_rational([Fraction(1, 2 ** n) for n in range(40)])
        assert fit.numerator == (1,)
        assert fit.denominator == (1, Fraction(-1, 2))

    def test_no_fit_for_partitions(self):
        fit = fit_rational(partition_dims(60), max_den_degree=6)
        assert fit is None

    def test_expand_round_trip(self):
        vals = fib_values(40)
        fit = fit_rational(vals)
        assert list(expand_rational(fit, 40)) == [Fraction(v) for v in vals]

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_recovers_random_rational_functions(self, data):
        den_deg = data.draw(st.integers(1, 4))
        num_deg = data.draw(st.integers(0, 4))
        den = [Fraction(1)] + [Fraction(data.draw(st.integers(-3, 3)))
                               for _ in range(den_deg)]
        num = [Fraction(data.draw(st.integers(-4, 4))) for _ in range(num_deg + 1)]
        window = expand_rational(
            __import__("oplab.series", fromlist=["RationalFit"]).RationalFit(
                tuple(num), tuple(den)), 60)
        fit = fit_rational(window)
        assert fit is not None
        # same rational function: cross-multiplied polynomials agree
        left = _poly_mul(fit.numerator, tuple(den))
        right = _poly_mul(tuple(num), fit.denominator)
        assert left == right

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            fit_rational([1, 2, 3], max_den_degree=4)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestGuessHolonomic:
    def test_fibonacci_constant_coefficients(self):
        cand = guess_holonomic(fib_values(70), 4, 4)
        assert (cand.order, cand.degree) == (2, 0)
        assert cand.polynomials == ((1,), (-1,), (-1,))

    def test_binomial_first_order(self):
        vals = [(n + 2) * (n + 1) // 2 for n in range(60)]
        cand = guess_holonomic(vals, 3, 3)
        assert cand.order == 1 and cand.degree <= 2
        assert cand.annihilates([Fraction(v) for v in vals], 1, 59)

    def test_partition_absent_at_small_bounds(self):
        cand = guess_holonomic(partition_dims(150), 3, 3)
        assert cand is None

    def test_recovers_random_recurrences(self):
        rng = random.Random(2024)
        for _ in range(8):
            order = rng.randint(1, 3)
            degree = rng.randint(0, 2)
            polys = []
            while True:
                polys = [[rng.randint(-3, 3) for _ in range(degree + 1)]
                         for _ in range(order + 1)]
                if polys[0][-1] != 0:
                    break
            vals = [Fraction(rng.randint(1, 5)) for _ in range(order)]
            n = order
            ok = True
            while len(vals) < 90 and ok:
                p0 = sum(c * n ** k for k, c in enumerate(polys[0]))
                if p0 == 0:
                    ok = False
                    break
                acc = Fraction(0)
                for i in range(1, order + 1):
                    pi = sum(c * n ** k for k, c in enumerate(polys[i]))
                    acc += pi * vals[n - i]
                vals.append(-acc / p0)
                n += 1
            if not ok:
                continue
            cand = guess_holonomic(vals, 3, 3)
            assert cand is not None
            assert cand.annihilates(vals, cand.order, len(vals) - 1)

    def test_holdout_rejection_keeps_searching(self):
        # c_n = c_{n-1} holds on the fit window only; every later bound is still tried
        vals = [Fraction(1, 3)] * 50 + [Fraction(2)] * 20
        assert guess_holonomic(vals, 3, 2) is None

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            guess_holonomic(fib_values(30), 4, 4)

    def test_exponential_transform_equivalence(self):
        w = fib_values(70)
        e = exponential_transform(w)
        c1 = guess_holonomic(w, 4, 4)
        c2 = guess_holonomic(e, 4, 4)
        assert (c1 is not None) and (c2 is not None)


def changed_at(vals, index):
    out = list(vals)
    out[index] += 1
    return out


def catalan_values(n):
    vals = [1]
    for k in range(n):
        vals.append(vals[-1] * 2 * (2 * k + 1) // (k + 2))
    return vals


class TestHoldoutBoundaries:
    # (1 + z) / (1 - 2z + 2z^3) and the Catalan numbers, on windows of N = 40;
    # the holdout is N - 19 .. N, and one changed value there must reject the fit
    N = 40
    RATIONAL = expand_rational(RationalFit((1, 1), (1, -2, 0, 2)), N)
    CATALAN = catalan_values(N)

    def test_unchanged_windows_fit(self):
        fit = fit_rational(self.RATIONAL)
        assert (fit.numerator, fit.denominator) == ((1, 1), (1, -2, 0, 2))
        assert guess_holonomic(self.CATALAN, 2, 2).polynomials == ((1, 1), (2, -4))

    @pytest.mark.parametrize("index", [N - DEFAULT_HOLDOUT + 1, N], ids=["N-19", "N"])
    def test_fit_rejects_a_change_in_the_holdout(self, index):
        fit = fit_rational(changed_at(self.RATIONAL, index))
        assert fit != fit_rational(self.RATIONAL)

    def test_guess_rejects_a_change_at_the_last_index(self):
        cand = guess_holonomic(changed_at(self.CATALAN, self.N), 2, 2)
        assert cand != guess_holonomic(self.CATALAN, 2, 2)


def naive_zero_runs(values):
    """The maximal zero runs of ``values`` as (first, last) pairs, and
    whether each is complete (a nonzero follows it)."""
    runs = []
    for i, v in enumerate(values):
        if v == 0 and (i == 0 or values[i - 1] != 0):
            j = i
            while j + 1 < len(values) and values[j + 1] == 0:
                j += 1
            runs.append(((i, j), j + 1 < len(values)))
    return runs


class TestZeroRuns:
    def test_runs_and_growth(self):
        report = zero_run_report([1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1])
        assert report.runs == ((1, 2), (4, 6), (8, 11))
        assert report.max_run == 4
        assert report.growing

    def test_incomplete_final_run_excluded(self):
        report = zero_run_report([1, 0, 1, 0, 0, 1, 0, 0, 0])
        assert report.runs[-1] == (6, 8)
        assert not report.growing  # only two complete runs

    def test_square_gap_series_grows(self):
        # zero exactly on the intervals [m^2, m^2 + m]
        limit = 120
        vals = [1] * (limit + 1)
        m = 1
        while m * m <= limit:
            for n in range(m * m, min(m * m + m, limit) + 1):
                vals[n] = 0
            m += 1
        assert zero_run_report(vals).growing

    def test_operadized_support_d2(self):
        dims = operadization_dims(hilbert_dims(
            MonomialAlgebraPresentation(("x1", "x2")), 40), 2, 42)
        report = zero_run_report(dims.values)
        assert all(j <= 0 for _, j in report.runs)  # only the n=0 slot is zero

    def test_operadized_support_d3(self):
        dims = operadization_dims(hilbert_dims(
            MonomialAlgebraPresentation(("x", "y", "z")), 18), 3, 40)
        report = zero_run_report(dims.values)
        interior = [r for r in report.runs if r[0] >= 4]
        assert interior and all(j - i + 1 == 1 for i, j in interior)
        assert not report.growing

    def test_streaming_input(self):
        from itertools import chain, repeat
        stream = chain([1], repeat(0, 5), [1], repeat(0, 7), [1])
        report = zero_run_report(stream)
        assert report.runs == ((1, 5), (7, 13))

    @pytest.mark.parametrize("values, runs, max_run, growing", [
        ([], (), 0, False),
        ([0, 0, 0, 0], ((0, 3),), 4, False),
        ([1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0], ((1, 2), (4, 6), (8, 11)), 4, False),
        ([0, 1, 0, 0, 1], ((0, 0), (2, 3)), 2, False),
        ([1, 0, 0, 1, 0, 0, 1, 0, 0, 1], ((1, 2), (4, 5), (7, 8)), 2, False),
        ([0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0], ((0, 0), (2, 3), (5, 7), (9, 13)), 5, True),
    ], ids=["empty", "all-zeros", "trailing-open-run", "two-complete-runs", "three-equal-runs",
            "open-run-after-three-growing"])
    def test_cases(self, values, runs, max_run, growing):
        assert zero_run_report(values) == (runs, max_run, growing)
        assert zero_run_report(iter(values)) == (runs, max_run, growing)

    def test_seeded_lists_match_a_naive_run_finder(self):
        rng = random.Random(32)
        for _ in range(2000):
            values = [rng.choice([0, 0, 1, -2, 3]) for _ in range(rng.randint(0, 40))]
            found = naive_zero_runs(values)
            lens = [j - i + 1 for (i, j), complete in found if complete][-3:]
            report = zero_run_report(values)
            assert report.runs == tuple(run for run, _ in found)
            assert report.max_run == max((j - i + 1 for (i, j), _ in found), default=0)
            assert report.growing == (len(lens) == 3 and lens[0] < lens[1] < lens[2])


class TestExponentialTransform:
    def test_ones(self):
        w = exponential_transform([1, 1, 1, 1])
        assert list(w) == [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)]

    def test_factorials_flatten(self):
        fact = [1]
        for n in range(1, 8):
            fact.append(fact[-1] * n)
        w = exponential_transform(fact)
        assert all(c == 1 for c in w)


class TestInputConvention:
    @pytest.mark.parametrize("dims", [DimSeries(fib_values(80), "arity"),
                                      polynomial_ring_dims(3, 80)], ids=["fib", "polyring3"])
    def test_dimseries_ints_and_fractions_agree(self, dims):
        inputs = (dims, list(dims.values), [Fraction(v) for v in dims.values])
        fits = [fit_rational(s) for s in inputs]
        guesses = [guess_holonomic(s, 2, 2) for s in inputs]
        assert fits[0] is not None and fits.count(fits[0]) == 3
        assert guesses[0] is not None and guesses.count(guesses[0]) == 3

    def test_float_input_becomes_exact(self):
        prod = series_mul([0.5, 1.0], [0.25, 0.1])
        assert all(type(c) is Fraction for c in prod)
        assert prod == (Fraction(1, 8), Fraction(1, 4) + Fraction(0.1) / 2)


class TestSeriesOps:
    def test_shift_and_derivative(self):
        s = [1, 2, 3, 4]
        assert list(series_shift(s)) == [0, 1, 2, 3]
        assert list(series_derivative(s)) == [2, 6, 12]

    def test_mul(self):
        geom = [1] * 6
        sq = series_mul(geom, geom)
        assert list(sq) == [1, 2, 3, 4, 5, 6]
