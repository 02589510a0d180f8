"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import random
import time
from fractions import Fraction
from itertools import chain, repeat

from helpers import divides_oracle, random_monomial
from oplab import (
    Alphabet,
    AvoidanceSystem,
    BranchWord,
    MonomialAlgebraPresentation,
    MonomialOperadPresentation,
    TreeMonomial,
    closed_set_counts,
    compose,
    dim_by_arity,
    enumerate_irr,
    example62_dims,
    example62_monomial_model,
    exponential_transform,
    fit_rational,
    floor_power_dims,
    free_algebra_dims,
    gap_dichotomy_check,
    gk_estimate,
    guess_holonomic,
    hilbert_dims,
    is_local_period,
    is_period,
    min_envelope_dims,
    minimal_period,
    operadization_dims,
    operadize,
    parse_monomial,
    partition_dims,
    polynomial_ring_dims,
    submonomials,
    symmetric_envelope_dims,
    to_path_sequence,
    warfield_dims,
    zero_run_report,
)
from oplab.algebra import sparse_gap_intervals
from oplab.branch import example_at_most_one_index2, parse_branch_word
from oplab.cli import preset_presentation, sweep_family
from oplab.series import series_derivative, series_shift

FIG3 = Alphabet.of(a=1, b=2, c=2)
BINARY = Alphabet.of(a=2)


def _report(number, message):
    print(f"ACCEPTANCE {number:2d} PASS: {message}")


def _all_monomials(alphabet, max_weight):
    return list(enumerate_irr(MonomialOperadPresentation(alphabet, ()), max_weight))


def test_criterion_01_operad_axioms():
    rng = random.Random(20240801)
    start = time.monotonic()
    triples = 0
    while triples < 10_000:
        t = random_monomial(rng, FIG3, 3)
        u = random_monomial(rng, FIG3, 3)
        v = random_monomial(rng, FIG3, 3)
        n, m, r = t.arity, u.arity, v.arity
        i = rng.randint(1, n)
        # sequential: i <= j <= i + m - 1
        j = rng.randint(i, i + m - 1)
        assert compose(compose(t, i, u), j, v) == compose(t, i, compose(u, j - i + 1, v))
        # parallel, upper branch: i + m <= j <= n + m - 1
        if i + m <= n + m - 1:
            j = rng.randint(i + m, n + m - 1)
            assert compose(compose(t, i, u), j, v) == compose(compose(t, j - m + 1, v), i, u)
        # parallel, lower branch: 1 <= j <= i - 1
        if i > 1:
            j = rng.randint(1, i - 1)
            assert compose(compose(t, i, u), j, v) == compose(compose(t, j, v), i + r - 1, u)
        # unit on both sides
        one = TreeMonomial.trivial(FIG3)
        assert compose(one, 1, t) == t
        assert compose(t, rng.randint(1, n), one) == t
        triples += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
    _report(1, f"operad axioms on {triples} random triples in {elapsed:.1f}s")


def test_criterion_02_path_sequences():
    t1 = parse_monomial("a(b(*,*))", FIG3)
    t2 = parse_monomial("b(*,c(*,*))", FIG3)
    t3 = parse_monomial("b(c(*,*),*)", FIG3)
    t4 = parse_monomial("b(c(*,*),b(*,*))", FIG3)

    def words(t):
        return tuple("".join(w) for w in to_path_sequence(t))

    assert words(t1) == ("ab", "ab")
    assert words(t2) == ("b", "bc", "bc")
    assert words(t3) == ("bc", "bc", "b")
    assert words(t4) == ("bc", "bc", "bb", "bb")

    from oplab import from_path_sequence
    count = 0
    for t in _all_monomials(FIG3, 6):
        assert from_path_sequence(to_path_sequence(t), FIG3) == t
        count += 1
    _report(2, f"worked path sequences exact; round trip on {count} monomials (weight <= 6)")


def test_criterion_03_divisibility_oracle():
    alphabet = Alphabet.of(u=1, b=2)
    targets = [t for t in _all_monomials(alphabet, 6) if not t.is_trivial]
    divisors = [t for t in _all_monomials(alphabet, 3) if 1 <= t.weight <= 3]
    from oplab import divides
    checked = 0
    for t in targets:
        oracle_sets = {w: submonomials(t, w) for w in (1, 2, 3)}
        for d in divisors:
            assert divides(d, t) == (d in oracle_sets[d.weight])
            checked += 1
    _report(3, f"divisibility matches the subtree oracle on {checked} pairs "
               f"({len(targets)} targets x {len(divisors)} divisors)")


def test_criterion_04_single_generator_dims():
    ex1 = preset_presentation("ex53-1")
    dims1 = dim_by_arity(ex1, 20)
    assert dims1[1] == 1
    assert all(dims1[n] == 2 ** (n - 2) for n in range(2, 21))

    ex3 = preset_presentation("ex53-3")
    dims3 = dim_by_arity(ex3, 30)
    assert dims3.values[:3] == (0, 1, 1)
    assert all(dims3[n] == 2 for n in range(3, 31))

    fib = preset_presentation("ex53-2")
    dims2 = dim_by_arity(fib, 25, engine="brute")
    assert dims2[1] == dims2[2] == 1
    assert all(dims2[n] == dims2[n - 1] + dims2[n - 2] for n in range(3, 26))

    longer = dim_by_arity(fib, 45, engine="dp")
    fit = fit_rational(longer)
    assert fit is not None and fit.denominator == (1, -1, -1)
    _report(4, "2^(n-2), eventually-2, and Fibonacci dims exact; "
               "fitted denominator 1 - z - z^2")


def test_criterion_05_engine_equivalence():
    family = sweep_family(3)
    assert len(family) == 128
    for _key, p in family:
        assert dim_by_arity(p, 10, engine="brute").values == \
            dim_by_arity(p, 10, engine="dp").values
    fib = preset_presentation("ex53-2")
    start = time.monotonic()
    dims = dim_by_arity(fib, 200, engine="dp")
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"dp to arity 200 took {elapsed:.1f}s"
    assert dims[200] == dims[199] + dims[198]
    _report(5, f"brute == dp on all 128 sweep presentations to arity 10; "
               f"dp reached arity 200 in {elapsed:.2f}s")


def test_criterion_06_operadization_formula():
    rng = random.Random(51)
    for trial in range(10):
        nvars = rng.randint(2, 3)
        variables = tuple(f"x{i + 1}" for i in range(nvars))
        words = [tuple(rng.choices(variables, k=rng.randint(2, 3)))
                 for _ in range(rng.randint(0, 4))]
        algebra = MonomialAlgebraPresentation(variables, words)
        p = operadize(algebra)
        engine = dim_by_arity(p, 15).values
        formula = operadization_dims(hilbert_dims(algebra, 15), nvars, 15).values
        assert engine == formula, (variables, algebra.forbidden)
    _report(6, "operadization dims match the piecewise formula for 10 random "
               "algebras up to arity 15, exactly")


def test_criterion_07_gk_estimation():
    fp = gk_estimate(floor_power_dims("1.5", 10 ** 5))
    assert abs(fp.pointwise - 1.5) < 0.05 and abs(fp.slope - 1.5) < 0.05

    wf = gk_estimate(warfield_dims("2.5", 10 ** 5))
    assert abs(wf.slope - 2.5) < 0.15

    pr = gk_estimate(polynomial_ring_dims(3, 10 ** 4))
    assert abs(pr.slope - 3.0) < 0.1

    fa = gk_estimate(free_algebra_dims(2, 400))
    assert fa.exp_flag
    _report(7, f"growth estimates: 1.5 -> {fp.slope:.3f}, 2.5 -> {wf.slope:.3f}, "
               f"3 -> {pr.slope:.3f}, geometric flagged")


def test_criterion_08_period_machinery():
    unary = Alphabet.of(a=1, b=1)
    w = parse_branch_word("a:1 a:1 b:1 a:1 a:1 b:1 a:1 a", unary)
    assert minimal_period(w) == 3
    assert is_local_period(w, 7)
    assert not is_period(w, 7)
    assert is_period(w, 6)

    rng = random.Random(813)
    mixed = Alphabet.of(a=2, b=3)
    cases = 0
    while cases < 1000:
        block_len = rng.randint(1, 4)
        block = [(g, rng.randint(1, g.arity))
                 for g in (rng.choice(mixed.generators) for _ in range(block_len))]
        n = rng.randint(block_len + 1, 4 * block_len)
        word = BranchWord(tuple(block[(q - 1) % block_len] for q in range(1, n + 1)))
        p = minimal_period(word)
        l = rng.randint(1, 3 * len(word))
        # is_period raises internally if the extension witness disagrees
        assert is_period(word, l) == (l % p == 0)
        cases += 1
    _report(8, "worked period example exact; 1000 period/divisibility fuzz "
               "cases with extension witnesses, zero violations")


def _random_avoidance_system(rng):
    alphabet = rng.choice([BINARY, Alphabet.of(a=2, b=1), Alphabet.of(a=3)])
    words = []
    for _ in range(rng.randint(1, 4)):
        letters = []
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(alphabet.generators)
            letters.append((g, rng.randint(1, g.arity)))
        words.append(BranchWord(tuple(letters)))
    return AvoidanceSystem(alphabet, tuple(words))


def test_criterion_09_avoidance_bounds():
    counts = closed_set_counts(example_at_most_one_index2(), 50)
    assert all(counts[h] == h for h in range(1, 51))

    rng = random.Random(909)
    accepted = 0
    trials = 0
    while accepted < 100:
        trials += 1
        assert trials < 3000, "random system generator starved"
        system = _random_avoidance_system(rng)
        table = closed_set_counts(system, 60)
        good_d = [d for d in range(3, 11) if table[d] <= d - 1]
        if not good_d:
            continue
        accepted += 1
        for d in good_d:
            bound = (d - 1) ** 3
            assert all(table[h] <= bound for h in range(d, 61)), (system, d)
    _report(9, f"height-h counts equal h up to 50; {accepted} random systems "
               f"respect the cubic bound to height 60 ({trials} sampled)")


def test_criterion_10_gap_dichotomy_sweep():
    horizon = 40
    family = sweep_family(3)
    assert len(family) == 128
    exponents = {}
    for key, p in family:
        report = gap_dichotomy_check(p, horizon)
        est = gk_estimate(dim_by_arity(p, horizon + 1))
        exponents[key] = (report, est.slope)
        assert not (1.1 < est.slope < 1.9), (key, est.slope)
        if report.growth_class == "linear":
            assert report.criterion_d is not None
            assert report.first_violation is None
        if est.slope <= 1.1:
            # anything growing at most linearly must satisfy the criterion
            assert report.criterion_d is not None, key
    classes = {}
    for report, _slope in exponents.values():
        classes[report.growth_class] = classes.get(report.growth_class, 0) + 1
    _report(10, f"sweep of 128 presentations: no tail exponent in (1.1, 1.9); "
                f"classes {classes}")


def test_criterion_11_series_analysis():
    # rational fits
    ex1_dims = dim_by_arity(preset_presentation("ex53-1"), 45)
    fit1 = fit_rational(ex1_dims)
    assert fit1.numerator == (0, 1, -1) and fit1.denominator == (1, -2)
    ex3_dims = dim_by_arity(preset_presentation("ex53-3"), 45)
    fit3 = fit_rational(ex3_dims)
    assert fit3.numerator == (0, 1, 0, 1) and fit3.denominator == (1, -1)

    # recurrences
    fib_dims = dim_by_arity(preset_presentation("ex53-2"), 70)
    fib_cand = guess_holonomic(fib_dims, 4, 4)
    assert (fib_cand.order, fib_cand.degree) == (2, 0)
    assert fib_cand.polynomials == ((1,), (-1,), (-1,))
    binom = [(n + 2) * (n + 1) // 2 for n in range(60)]
    binom_cand = guess_holonomic(binom, 3, 3)
    assert binom_cand.order == 1 and binom_cand.degree <= 2

    # partition absence at the pinned bounds
    absent = guess_holonomic(partition_dims(300), 6, 6)
    assert absent is None

    # exponential-transform equivalence at (4, 4)
    w = fib_dims
    assert (guess_holonomic(w, 4, 4) is not None) == \
        (guess_holonomic(exponential_transform(w), 4, 4) is not None)

    # gap indicator zero runs grow across the first four intervals
    intervals = sparse_gap_intervals(16_777_217)
    assert len(intervals) == 4
    limit = intervals[-1][1] + 12
    pieces = []
    position = 0
    for lo, hi in intervals:
        pieces.append(repeat(1, lo - position))
        pieces.append(repeat(0, hi - lo + 1))
        position = hi + 1
    pieces.append(repeat(1, limit - position + 1))
    report = zero_run_report(chain.from_iterable(pieces))
    assert len(report.runs) == 4
    assert report.runs == tuple(intervals)
    assert report.growing

    # shift and derivative identities hold coefficientwise at N = 200
    h = partition_dims(200)
    mins = min_envelope_dims(partition_dims(200))
    assert tuple(int(c) for c in series_shift(h)) == mins.values[:201]
    syms = symmetric_envelope_dims(partition_dims(200))
    zh_prime = series_shift(series_derivative(series_shift(h)))
    assert tuple(int(c) for c in zh_prime) == syms.values[:200]
    _report(11, "rational fits, recurrences, partition absence at (6,6,300), "
                "exponential equivalence, four growing zero runs, and the "
                "envelope series identities all hold")


def test_criterion_12_series_reproduction():
    n = 100
    h_u = example62_dims(n)
    # shifted series: arity-n dim equals degree-(n-1) dim
    p_u = min_envelope_dims(h_u)
    assert p_u.values[:n + 1] == (0,) + h_u.values[:n]
    # single-generator encoding: z + z^2 H(z)
    q_u = operadization_dims(example62_dims(n - 2), 2, n)
    expected = [0, 1] + [h_u[l] for l in range(n - 1)]
    assert list(q_u.values) == expected

    # the encoded presentation reproduces the same dims through the engines
    model = example62_monomial_model(29)
    p = operadize(model)
    engine = dim_by_arity(p, 31).values
    formula = operadization_dims(hilbert_dims(model, 29), 2, 31).values
    assert engine == formula
    assert hilbert_dims(model, 29).values == example62_dims(29).values

    # partition algebra: z P(z) and z (z P(z))'
    p_n = partition_dims(n)
    p_a = min_envelope_dims(p_n)
    assert p_a.values[:n + 1] == (0,) + p_n.values[:n]
    so_a = symmetric_envelope_dims(p_n)
    assert all(so_a[k] == k * p_n[k - 1] for k in range(1, n + 1))
    _report(12, "shifted, encoded, and derivative series identities exact to "
                "N = 100 with the explicit gap-model cross-check")
