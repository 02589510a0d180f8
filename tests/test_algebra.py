"""Monomial algebra Hilbert dims and the closed-form preset families."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_avoiding_words
from oplab import (
    DimSeries,
    MonomialAlgebraPresentation,
    adjoin_polynomial_variables,
    example62_dims,
    example62_monomial_model,
    floor_power_dims,
    free_algebra_dims,
    hilbert_dims,
    partition_dims,
    polynomial_ring_dims,
    warfield_dims,
    warfield_monomial_model,
)
from oplab.algebra import (
    AlgebraError,
    MAX_RATIO_TERM,
    AlgebraSyntaxError,
    count_words,
    floor_power,
    floor_root,
    format_algebra,
    parse_algebra,
    ratio,
    sparse_gap_intervals,
    word_automaton,
    word_is_normal,
)
from oplab.dims import FileSyntaxError, directives
from oplab.monomial import PresentationError, PresentationSyntaxError
from oplab.series import series_mul

SRC = Path(__file__).resolve().parent.parent / "src"


class TestHilbert:
    def test_fibonacci_algebra(self):
        a = MonomialAlgebraPresentation(("x1", "x2"), [("x1", "x1")])
        assert hilbert_dims(a, 8).values == (1, 2, 3, 5, 8, 13, 21, 34, 55)

    def test_two_relation_algebra(self):
        # computed by brute force; consistent with the operad dims 0,1,1,2,2,...
        # via the arity shift dim Q(l+2) = dim A_l
        a = MonomialAlgebraPresentation(("x1", "x2"), [("x2", "x1"), ("x2", "x2")])
        assert hilbert_dims(a, 8).values == (1, 2) + (2,) * 7

    def test_free_algebra(self):
        a = MonomialAlgebraPresentation(("x1", "x2"))
        assert hilbert_dims(a, 6).values == tuple(2 ** n for n in range(7))

    def test_self_reduction_and_validation(self):
        a = MonomialAlgebraPresentation(("x", "y"), [("x", "y"), ("x", "y", "x")])
        assert a.forbidden == (("x", "y"),)
        with pytest.raises(AlgebraError):
            MonomialAlgebraPresentation(("x",), [("x",)])
        with pytest.raises(AlgebraError):
            MonomialAlgebraPresentation(("x",), [("x", "z")])

    def test_negative_degree_is_an_error(self):
        a = MonomialAlgebraPresentation(("x1", "x2"), [("x1", "x1")])
        with pytest.raises(AlgebraError, match="max_degree must be nonnegative"):
            hilbert_dims(a, -1)

    def test_word_is_normal(self):
        a = MonomialAlgebraPresentation(("x", "y"), [("x", "x")])
        assert word_is_normal(a, ("x", "y", "x"))
        assert not word_is_normal(a, ("y", "x", "x"))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, data):
        nvars = data.draw(st.integers(1, 3))
        variables = tuple(f"x{i}" for i in range(nvars))
        words = data.draw(st.lists(
            st.lists(st.sampled_from(variables), min_size=2, max_size=4).map(tuple),
            min_size=0, max_size=4))
        a = MonomialAlgebraPresentation(variables, words)
        dims = hilbert_dims(a, 9)
        for degree in range(10):
            assert dims[degree] == brute_avoiding_words(variables, a.forbidden, degree)


def factor_minimal(words):
    """The distinct words, shortest first, with no other word as a factor."""
    words = sorted(set(map(tuple, words)), key=lambda w: (len(w), w))

    def inside(u, w):
        return u != w and any(w[i:i + len(u)] == u for i in range(len(w) - len(u) + 1))

    return tuple(w for w in words if not any(inside(u, w) for u in words))


class TestSelfReduction:
    def test_seeded_systems_keep_the_factor_minimal_words(self):
        rng = random.Random(31)
        for _ in range(400):
            variables = [f"x{i}" for i in range(rng.randint(1, 4))]
            rng.shuffle(variables)
            words = [tuple(rng.choice(variables) for _ in range(rng.randint(2, 6)))
                     for _ in range(rng.randint(0, 12))]
            assert MonomialAlgebraPresentation(variables, words).forbidden == factor_minimal(words)

    @pytest.mark.parametrize("build", [
        lambda: warfield_monomial_model("5/2", 40),
        lambda: warfield_monomial_model("9/4", 40),
        lambda: warfield_monomial_model("11/4", 30),
        lambda: example62_monomial_model(120),
    ], ids=["warfield-5/2", "warfield-9/4", "warfield-11/4", "ex62"])
    def test_models_keep_the_factor_minimal_words(self, build):
        # each model emits factor-minimal words; their one-letter extensions
        # are multiples, so the reduction drops them again
        model = build()
        words = model.forbidden
        assert factor_minimal(words) == words
        padded = [*words, *(w + (x,) for w in words for x in model.variables),
                  *((x,) + w for w in words for x in model.variables)]
        assert MonomialAlgebraPresentation(model.variables, padded).forbidden == words

    def test_staircase_model_at_degree_200_builds_within_budget(self):
        # the word-by-word factor search this replaced took over 7 s on 2 vCPUs
        start = time.perf_counter()
        model = warfield_monomial_model("5/2", 200)
        assert time.perf_counter() - start < 4.0
        assert len(model.forbidden) == 4573


class TestWordAutomaton:
    def test_states_breadth_first_in_letter_order(self):
        # states (), a, b, ab, ba, abb; ba and abb are patterns, and the fail
        # state of abb is b
        delta = word_automaton("ab", [("b", "a"), ("a", "b", "b")])
        assert delta == [[1, 2], [1, 3], [None, 2], [None, None], [1, 3], [None, 2]]

    def test_pattern_inside_a_longer_prefix_kills(self):
        # x y is a prefix of x y z, and its suffix y is a pattern
        delta = word_automaton("xyz", [("x", "y", "z"), ("y",)])
        assert delta[0][1] is None
        assert delta[delta[0][0]][1] is None
        assert list(islice(count_words(delta), 5)) == [1, 2, 4, 8, 16]

    def test_caps_and_weights(self):
        delta = word_automaton("xy", [])
        assert list(islice(count_words(delta, limits={1: 2}), 5)) == [1, 2, 4, 7, 11]
        assert list(islice(count_words(delta, weights=[3]), 4)) == [3, 6, 12, 24]

    def test_state_numbers_do_not_depend_on_the_hash_seed(self):
        code = ("from oplab.algebra import word_automaton\n"
                "from oplab.trees import Alphabet\n"
                "g = Alphabet.of(a=2, b=1, c=3).generators\n"
                "letters = [(x, i) for x in g for i in range(1, x.arity + 1)]\n"
                "print(word_automaton(letters, [letters[5:1:-1], letters[::2], letters[3:]]))")
        runs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
                               check=True).stdout
                for seed in ("0", "1", "2")}
        assert len(runs) == 1


class TestStaircase:
    def test_small_values(self):
        dims = warfield_dims("2.5", 10)
        assert dims[0] == 1 and dims[1] == 2
        assert dims[4] == 6  # 1 + 4 + (2-1)*2/2

    def test_strictly_increasing_to_1e4(self):
        dims = warfield_dims(Fraction(5, 2), 10 ** 4)
        vals = dims.values
        assert all(vals[n] < vals[n + 1] for n in range(len(vals) - 1))

    def test_range_validation(self):
        for bad in ("2", "3", "1.5", "3.2"):
            with pytest.raises(AlgebraError):
                warfield_dims(bad, 5)

    def test_monomial_model_matches_closed_form(self):
        for r, n in (("2.5", 28), ("2.2", 28), ("2.8", 28), ("5/2", 120)):
            model = warfield_monomial_model(r, n)
            assert hilbert_dims(model, n).values == warfield_dims(r, n).values


class TestGappedSlowGrowth:
    def test_interval_structure(self):
        assert sparse_gap_intervals(300) == [(2, 5), (28, 257)]

    def test_dims(self):
        dims = example62_dims(30)
        assert dims[0] == 1 and dims[1] == 2
        assert dims[2] == 3  # the first interval starts at 2
        assert all(dims[n] == 4 for n in range(6, 28))
        assert all(dims[n] == 3 for n in range(28, 31))

    def test_model_cross_checks_first_60(self):
        model = example62_monomial_model(60)
        assert hilbert_dims(model, 60).values == example62_dims(60).values

    def test_dims_are_the_paper_definition_to_3200(self):
        # Example 6.2: 3 + [n lies off every [(2m+1)^(2m+1)+1, (2m+2)^(2m+2)+1]]
        def on_a_gap(n):
            return any((2 * m + 1) ** (2 * m + 1) + 1 <= n <= (2 * m + 2) ** (2 * m + 2) + 1
                       for m in range(4))

        expected = [1, 2] + [3 + (not on_a_gap(n)) for n in range(2, 3201)]
        assert list(example62_dims(3200, stream=True)) == expected
        assert example62_dims(3200).values == tuple(expected)

    def test_values_at_the_interval_edges(self):
        # each pair is the last index before an interval and its first, or
        # an interval's last index and the first after it
        edges = {3125: 4, 3126: 3, 46657: 3, 46658: 4,
                 823543: 4, 823544: 3, 16777217: 3, 16777218: 4}
        stream = example62_dims(max(edges), stream=True)
        seen, at = {}, 0
        for n in sorted(edges):
            seen[n] = next(islice(stream, n - at, None))
            at = n + 1
        assert seen == edges
        assert next(stream, None) is None

    @pytest.mark.parametrize("max_degree, values", [(0, (1,)), (1, (1, 2)), (2, (1, 2, 3))])
    def test_short_windows(self, max_degree, values):
        assert example62_dims(max_degree).values == values
        assert tuple(example62_dims(max_degree, stream=True)) == values

    def test_negative_degree_is_an_error(self):
        with pytest.raises(AlgebraError, match="nonnegative"):
            example62_dims(-1)

    def test_delta_runs_grow(self):
        # zero runs of the indicator part lengthen across intervals
        intervals = sparse_gap_intervals(50000)
        lengths = [hi - lo + 1 for lo, hi in intervals]
        assert lengths[0] < lengths[1] < lengths[2]


class TestPartition:
    def test_small_values(self):
        assert partition_dims(6).values == (1, 1, 2, 3, 5, 7, 11)

    def test_product_oracle(self):
        n = 40
        dims = partition_dims(n)
        prod = [1] + [0] * n
        for part in range(1, n + 1):
            geom = [1 if k % part == 0 else 0 for k in range(n + 1)]
            prod = series_mul(prod, geom, n)
        assert tuple(int(c) for c in prod) == dims.values

    def test_pentagonal_recurrence(self):
        n = 120
        p = partition_dims(n).values
        for m in range(1, n + 1):
            acc = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                g2 = k * (3 * k + 1) // 2
                if g1 > m and g2 > m:
                    break
                sign = -1 if k % 2 == 0 else 1
                if g1 <= m:
                    acc += sign * p[m - g1]
                if g2 <= m:
                    acc += sign * p[m - g2]
                k += 1
            assert p[m] == acc


RATIO_TEXTS = ["3/2", "6/4", "03/2", "-0", "1.5", " 3/2", "+3/2", "1e0", "3_0", "3/ 2", "x",
               "1/0", "\u0663/2", "0", "00/05", "3/", "/2", "12345678901234567890/6"]


class TestRatio:
    @pytest.mark.parametrize("text", RATIO_TEXTS)
    def test_text_reads_as_fraction_reads_it(self, text):
        try:
            q = Fraction(text)
        except Exception as exc:
            with pytest.raises(type(exc)) as caught:
                ratio(text)
            assert str(caught.value) == str(exc)
        else:
            assert ratio(text) == (q.numerator, q.denominator)

    def test_numbers(self):
        assert ratio(3) == (3, 1) and ratio(-4) == (-4, 1)
        assert ratio(Fraction(-6, 4)) == (-3, 2)
        assert ratio(0.1) == (1, 10)  # a float through its decimal literal
        assert ratio(True) == (1, 1)

    @pytest.mark.parametrize("r", ["5/2", "10/4", Fraction(5, 2), 2.5])
    def test_staircase_model_name_is_in_lowest_terms(self, r):
        assert warfield_monomial_model(r, 12).name == "staircase:5/2"

    @pytest.mark.parametrize("build", [warfield_dims, warfield_monomial_model])
    @pytest.mark.parametrize("r, written", [("3", "3"), ("4/2", "2"), ("-5/2", "-5/2")])
    def test_staircase_range_error_writes_the_exponent(self, build, r, written):
        with pytest.raises(AlgebraError, match=f"between 2 and 3, got {written}$"):
            build(r, 10)


class TestFloorPower:
    def test_floor_root_exact(self):
        for x in list(range(0, 50)) + [10 ** 12, 10 ** 12 + 1, 7 ** 30]:
            for k in (1, 2, 3, 4, 7):
                r = floor_root(x, k)
                assert r ** k <= x < (r + 1) ** k
        # seeded: large k, roots near powers of two, and roots beyond float range
        rng = random.Random(7)
        for _ in range(1500):
            k = rng.choice([3, 5, 17, 100, 999, 1000, rng.randint(3, 2000)])
            r = rng.getrandbits(min(rng.choice([1, 8, 52, 53, 61, 62, 200, 1100]), 20000 // k))
            for x in (r ** k - 1, r ** k, r ** k + 1, rng.getrandbits(rng.randint(1, 4000))):
                if x >= 0:
                    got = floor_root(x, k)
                    assert got ** k <= x < (got + 1) ** k

    def test_floor_roots_of_high_powers_are_fast(self):
        # Newton starts next to the root; from twice the root it would shrink
        # by about 1/k per step
        start = time.process_time()
        assert [floor_root(i ** 999, 1000) for i in range(2000, 2003)] == [1984, 1985, 1986]
        assert sum(floor_root(i ** 999, 1000) for i in range(2001)) > 0
        assert time.process_time() - start < 2

    def test_floor_power_matches_definition(self):
        q = Fraction(3, 4)
        for n in range(1, 200):
            fl = floor_power(n, q)
            assert fl ** 4 <= n ** 3 < (fl + 1) ** 4

    def test_telescoping(self):
        dims = floor_power_dims("1.5", 100)
        assert dims.partial_sums()[100] == 1000
        assert dims.partial_sums()[50] == floor_power(50, Fraction(3, 2))

    def test_alpha_one(self):
        dims = floor_power_dims(1, 8)
        assert dims.values == (0, 1, 1, 1, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 1, Fraction(3, 2), Fraction(5, 3),
                                       Fraction(7, 3), 1.5])
    def test_dims_telescope_to_floor_power(self, alpha):
        # k = 3 roots (5/3, 7/3) take floor_root's Newton path
        sums = floor_power_dims(alpha, 2000).partial_sums()
        assert list(sums) == [floor_power(n, alpha) for n in range(2001)]

    @pytest.mark.parametrize("r", [Fraction(5, 2), Fraction(8, 3)])
    def test_warfield_dims_match_per_index_formula(self, r):
        q = (r - 1) / 2
        expected = [1, 2] + [1 + n + (fl - 1) * fl // 2
                             for n in range(2, 2001) for fl in [floor_power(n, q)]]
        assert list(warfield_dims(r, 2000).values) == expected

    @pytest.mark.parametrize("max_index", [0, 1, 2, 3, 700])
    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 1, Fraction(3, 2), Fraction(5, 3), 2,
                                       Fraction(7, 2)])
    def test_dims_are_floor_power_differences(self, alpha, max_index):
        values = floor_power_dims(alpha, max_index).values
        assert type(values) is tuple and len(values) == max_index + 1 and values[0] == 0
        assert values[1:] == tuple(floor_power(n, alpha) - floor_power(n - 1, alpha)
                                   for n in range(1, max_index + 1))

    @pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 700])
    @pytest.mark.parametrize("r", [Fraction(5, 2), Fraction(7, 3), Fraction(8, 3), "2.9"])
    def test_warfield_dims_are_the_closed_form_at_every_degree(self, r, max_degree):
        q = (Fraction(r) - 1) / 2
        values = warfield_dims(r, max_degree).values
        assert type(values) is tuple and values[:2] == (1, 2)[:max_degree + 1]
        assert values == tuple(1 + n + (fl - 1) * fl // 2
                               for n in range(max_degree + 1) for fl in [floor_power(n, q)])


class TestParameterBound:
    @pytest.mark.parametrize("build", [
        lambda q: floor_power(5, q), lambda q: floor_power_dims(q, 5),
        lambda q: warfield_dims(q, 5), lambda q: warfield_monomial_model(q, 5)])
    @pytest.mark.parametrize("q", ["25000000001/10000000000", "1001/1000", "2501/1000",
                                   "-1001", Fraction(1, 1001), 10 ** 400])
    def test_terms_above_the_bound_are_rejected(self, build, q):
        with pytest.raises(AlgebraError, match=f"at most {MAX_RATIO_TERM}$"):
            build(q)

    @pytest.mark.parametrize("q", ["1e999999", "1e-999999"])
    def test_huge_exponents_are_rejected_promptly(self, q):
        start = time.process_time()
        with pytest.raises(AlgebraError, match=f"at most {MAX_RATIO_TERM}$"):
            floor_power_dims(q, 50, stream=True)
        assert time.process_time() - start < 5

    def test_terms_at_the_bound_are_read(self):
        assert MAX_RATIO_TERM == 1000
        assert floor_power(2, "1000/1000") == 2 and floor_power(2, "2000/2") == 2 ** 1000
        assert floor_power(10 ** 3, "1/1000") == 1
        assert floor_power_dims("999/1000", 3).values == (0, 1, 0, 1)
        assert warfield_dims("999/400", 3).values == (1, 2, 3, 5)


class TestAdjoin:
    def test_unit_series_becomes_polynomial_ring(self):
        base = DimSeries((1, 0, 0, 0, 0), "degree")
        assert adjoin_polynomial_variables(base, 2).values == (1, 2, 3, 4, 5)

    def test_single_adjoin_is_prefix_sums(self):
        dims = warfield_dims("2.5", 30)
        adjoined = adjoin_polynomial_variables(dims, 1)
        assert adjoined.values == dims.partial_sums()

    def test_adjoin_associates(self):
        dims = partition_dims(20)
        twice = adjoin_polynomial_variables(adjoin_polynomial_variables(dims, 1), 1)
        once = adjoin_polynomial_variables(dims, 2)
        assert twice.values == once.values


class TestClosedForms:
    def test_polynomial_ring(self):
        assert polynomial_ring_dims(3, 6).values == (1, 3, 6, 10, 15, 21, 28)

    def test_free_algebra(self):
        assert free_algebra_dims(2, 5).values == (1, 2, 4, 8, 16, 32)


class TestAlgebraFiles:
    def test_round_trip(self):
        a = MonomialAlgebraPresentation(("x1", "x2"), [("x1", "x1")], name="fib")
        again = parse_algebra(format_algebra(a))
        assert again == a and again.name == "fib"

    def test_errors_carry_line(self):
        with pytest.raises(AlgebraSyntaxError) as err:
            parse_algebra("var x\nforbid x z\n")
        assert err.value.lineno == 2
        with pytest.raises(AlgebraSyntaxError):
            parse_algebra("forbid x x\n")
        with pytest.raises(AlgebraSyntaxError):
            parse_algebra("var x\nshenanigans\n")

    def test_repeated_variable_names_its_line(self):
        with pytest.raises(AlgebraSyntaxError) as err:
            parse_algebra("var x\nvar x\n")
        assert (err.value.lineno, err.value.line) == (2, "var x")

    def test_multi_word_name_round_trips(self):
        a = MonomialAlgebraPresentation(("x1", "x2"), [("x1", "x1")], name="two words")
        assert parse_algebra(format_algebra(a)).name == "two words"

    def test_syntax_errors_share_one_implementation(self):
        for cls in (AlgebraSyntaxError, PresentationSyntaxError):
            assert issubclass(cls, FileSyntaxError)
            assert "__init__" not in vars(cls)
        assert issubclass(AlgebraSyntaxError, AlgebraError)
        assert issubclass(PresentationSyntaxError, PresentationError)

    def test_directives_skip_blanks_and_comments(self):
        text = "# head\n\n  var   x1  # note\nforbid x1 x1\n   \nname a  b\n"
        assert list(directives(text)) == [
            (3, "  var   x1  # note", "var", "x1"),
            (4, "forbid x1 x1", "forbid", "x1 x1"),
            (6, "name a  b", "name", "a  b"),
        ]
