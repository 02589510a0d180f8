"""Monomial operad presentations: normal forms, engines, growth dichotomy."""

import gc
import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import oplab.monomial
from helpers import BINARY, UNARY_BINARY, all_monomials
from oplab import (
    Alphabet,
    MonomialOperadPresentation,
    dim_by_arity,
    dim_by_weight,
    divides,
    enumerate_irr,
    format_monomial,
    gap_dichotomy_check,
    is_normal_form,
    parse_monomial,
    submonomials,
)
from oplab.algebra import MonomialAlgebraPresentation
from oplab.cli import sweep_family
from oplab.constructions import operadize
from oplab.monomial import (
    GROWTH_BOUNDED,
    GROWTH_LINEAR,
    GROWTH_SUPERLINEAR,
    CompletenessError,
    PresentationError,
    PresentationSyntaxError,
    _first_violation,
    compile_grammar,
    format_presentation,
    parse_presentation,
)

SHUFFLE = "a(a(*,*),a(*,*))"
CHAIN11 = "a(a(a(*,*),*),*)"
CHAIN21 = "a(*,a(a(*,*),*))"
CHAIN22 = "a(*,a(*,a(*,*)))"


def binary_presentation(*literals, name=None):
    rels = [parse_monomial(lit, BINARY) for lit in literals]
    return MonomialOperadPresentation(BINARY, rels, name=name)


def enumerated_by_weight(p, max_weight):
    """Counts by weight of the normal forms ``enumerate_irr`` streams."""
    counts = Counter(t.weight for t in enumerate_irr(p, max_weight))
    return tuple(counts[w] for w in range(max_weight + 1))


@pytest.fixture
def fibonacci():
    return binary_presentation(SHUFFLE, CHAIN11, name="fibonacci")


class TestPresentation:
    def test_self_reduction(self):
        small = parse_monomial("a(a(*,*),*)", BINARY)
        big = parse_monomial("a(a(a(*,*),*),*)", BINARY)
        p = MonomialOperadPresentation(BINARY, [big, small, small])
        assert p.relations == (small,)

    def test_trivial_relation_rejected(self):
        from oplab import TreeMonomial
        with pytest.raises(PresentationError):
            MonomialOperadPresentation(BINARY, [TreeMonomial.trivial(BINARY)])

    def test_empty_relations_is_free(self):
        p = MonomialOperadPresentation(BINARY, ())
        assert all(is_normal_form(p, t) for t in all_monomials(BINARY, 4))


class TestNormalForms:
    def test_fibonacci_examples(self, fibonacci):
        assert not is_normal_form(fibonacci, parse_monomial(CHAIN11, BINARY))
        assert is_normal_form(fibonacci, parse_monomial("a(a(*,a(*,*)),*)", BINARY))

    def test_enumerate_free_counts(self):
        free = MonomialOperadPresentation(BINARY, ())
        got = list(enumerate_irr(free, 3))
        assert len(got) == 1 + 1 + 2 + 5
        assert len(set(got)) == len(got)
        weights = [t.weight for t in got]
        assert weights == sorted(weights)

    def test_enumerate_fibonacci_counts(self, fibonacci):
        # computed by brute force; both weight-2 monomials are normal since
        # every relation has weight 3
        per_weight = {}
        for t in enumerate_irr(fibonacci, 4):
            per_weight[t.weight] = per_weight.get(t.weight, 0) + 1
        assert [per_weight.get(w, 0) for w in range(5)] == [1, 1, 2, 3, 5]

    def test_all_weight2_relations_kill_everything(self):
        p = binary_presentation("a(a(*,*),*)", "a(*,a(*,*))")
        assert all(t.weight < 2 for t in enumerate_irr(p, 5))

    def test_enumeration_is_deterministic(self, fibonacci):
        a = [repr(t) for t in enumerate_irr(fibonacci, 5)]
        b = [repr(t) for t in enumerate_irr(fibonacci, 5)]
        assert a == b

    def test_enumeration_digests_are_pinned(self, fibonacci):
        # SHA-256 of the format_monomial lines, recorded from an enumerator
        # that built every level, the heaviest included, the same way
        rng = random.Random(29)
        ab = Alphabet.of(a=2, b=3)
        pool = [t for t in all_monomials(ab, 3) if t.weight >= 2]
        mixed = MonomialOperadPresentation(ab, rng.sample(pool, k=4))
        for p, max_weight, count, digest in (
                (fibonacci, 7, 54, "9d014c0b6f53e389aa2cbf29f2e88d8f7c61d9da2ffd2c29a9da37b338fcf99c"),
                (mixed, 5, 2464, "d4d84715821d7074ffb543dc21f79d41c15f2dec68734a44b84936acc29f015b")):
            lines = [format_monomial(t) for t in enumerate_irr(p, max_weight)]
            assert len(lines) == count
            assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_tall_unary_chain(self):
        # one normal form per weight, u(u(...(*))); sorting a level keys it by its path words
        p = MonomialOperadPresentation(Alphabet.of(u=1), ())
        tall = list(enumerate_irr(p, 1500))[-1]
        assert tall.height == 1500
        assert format_monomial(tall) == "u(" * 1500 + "*" + ")" * 1500

    def test_irr_closed_under_submonomials(self, fibonacci):
        for t in enumerate_irr(fibonacci, 5):
            if t.is_trivial:
                continue
            for s in submonomials(t):
                assert is_normal_form(fibonacci, s)


class TestDimensions:
    def test_powers_of_two(self):
        p = binary_presentation(SHUFFLE)
        dims = dim_by_arity(p, 20)
        assert dims[1] == 1
        assert all(dims[n] == 2 ** (n - 2) for n in range(2, 21))

    def test_eventually_constant_two(self):
        p = binary_presentation(SHUFFLE, CHAIN21, CHAIN22)
        dims = dim_by_arity(p, 30)
        assert dims.values[:4] == (0, 1, 1, 2)
        assert all(dims[n] == 2 for n in range(3, 31))

    def test_fibonacci_recurrence(self, fibonacci):
        dims = dim_by_arity(fibonacci, 25, engine="brute")
        assert dims[1] == dims[2] == 1
        assert all(dims[n] == dims[n - 1] + dims[n - 2] for n in range(3, 26))

    def test_engines_agree_on_random_presentations(self):
        rng = random.Random(3)
        pool = [t for t in all_monomials(BINARY, 3) if t.weight >= 2]
        for _ in range(25):
            rels = rng.sample(pool, k=rng.randint(0, 4))
            p = MonomialOperadPresentation(BINARY, rels)
            assert dim_by_arity(p, 9, engine="brute").values == \
                dim_by_arity(p, 9, engine="dp").values
            assert dim_by_weight(p, 8, engine="brute").values == \
                dim_by_weight(p, 8, engine="dp").values == enumerated_by_weight(p, 8)

    def test_engines_agree_with_mixed_arities(self):
        rng = random.Random(9)
        al = Alphabet.of(u=1, b=2, c=3)
        pool = [t for t in all_monomials(al, 2) if t.weight >= 1]
        for _ in range(10):
            rels = rng.sample(pool, k=rng.randint(0, 4))
            p = MonomialOperadPresentation(al, rels)
            assert dim_by_arity(p, 8, engine="brute", weight_cap=6).values == \
                dim_by_arity(p, 8, engine="dp", weight_cap=6).values

    def test_engines_agree_on_every_sweep_presentation(self):
        for key, p in sweep_family(3) + sweep_family(2):
            assert dim_by_arity(p, 12, engine="dp").values == \
                dim_by_arity(p, 12, engine="brute").values, key
            assert dim_by_weight(p, 10, engine="dp").values == \
                dim_by_weight(p, 10, engine="brute").values, key

    def test_engines_agree_when_the_weight_cap_truncates(self):
        # no unary generator, cap below max_arity - 1: counts by weight and arity
        rng = random.Random(5)
        al = Alphabet.of(b=2, c=3)
        pool = [t for t in all_monomials(al, 2) if t.weight == 2]
        free = dim_by_arity(MonomialOperadPresentation(al, ()), 10).values
        for _ in range(10):
            p = MonomialOperadPresentation(al, rng.sample(pool, k=rng.randint(0, 4)))
            dp = dim_by_arity(p, 10, engine="dp", weight_cap=4)
            assert not dp.exact
            assert dp.values == dim_by_arity(p, 10, engine="brute", weight_cap=4).values
            assert dp.values[10] < free[10]

    def test_fibonacci_at_arity_1000(self, fibonacci):
        dims = dim_by_arity(fibonacci, 1000)
        assert dims[1] == dims[2] == 1
        assert all(dims[n] == dims[n - 1] + dims[n - 2] for n in range(3, 1001))

    def test_engines_agree_on_tall_relations(self):
        rng = random.Random(11)
        pool = [t for t in all_monomials(BINARY, 5) if t.weight >= 3]
        presentations = [MonomialOperadPresentation(BINARY, rng.sample(pool, k=rng.randint(1, 3)))
                         for _ in range(15)]
        presentations.append(binary_presentation("a(a(a(a(a(*,*),*),*),*),*)"))
        for p in presentations:
            assert dim_by_arity(p, 10).values == dim_by_arity(p, 10, engine="brute").values
            assert dim_by_weight(p, 9).values == dim_by_weight(p, 9, engine="brute").values
        # one 4-ary generator, relations of height 3 and 5
        chains = operadize(MonomialAlgebraPresentation("wxyz", [tuple("wxyz")]))
        assert chains.max_relation_height == 5
        assert dim_by_arity(chains, 15).values == dim_by_arity(chains, 15, engine="brute").values

    def test_grammar_of_a_tall_relation_is_small(self):
        # a crown records only the relation subtrees matching at a root: here
        # the length of the left branch, 1 to 4 (depth-4 tree tops would
        # number in the hundreds of thousands)
        comb = binary_presentation("a(a(a(a(a(*,*),*),*),*),*)")
        grammar = compile_grammar(comb)
        assert [len(k) for k in grammar.crowns] == [1, 2, 3, 4]
        assert len(grammar.rules) == 4 * 5

    def test_unary_requires_weight_cap(self):
        p = MonomialOperadPresentation(UNARY_BINARY, ())
        with pytest.raises(CompletenessError):
            dim_by_arity(p, 5)
        dims = dim_by_arity(p, 5, weight_cap=4)
        assert not dims.exact

    def test_free_weight_counts_are_catalan(self):
        free = MonomialOperadPresentation(BINARY, ())
        assert dim_by_weight(free, 5).values == (1, 1, 2, 5, 14, 42)

    def test_weight_values_0_and_1(self):
        p = binary_presentation(SHUFFLE)
        wc = dim_by_weight(p, 4)
        assert wc[0] == 1 and wc[1] == 1

    def test_more_relations_never_grow_dims(self):
        rng = random.Random(17)
        pool = [t for t in all_monomials(BINARY, 3) if t.weight >= 2]
        for _ in range(15):
            rels = rng.sample(pool, k=rng.randint(0, 3))
            extra = rng.choice(pool)
            small = MonomialOperadPresentation(BINARY, rels)
            large = MonomialOperadPresentation(BINARY, rels + [extra])
            a = dim_by_arity(small, 9).values
            b = dim_by_arity(large, 9).values
            assert all(y <= x for x, y in zip(a, b))

    def test_reduced_connected_convention(self):
        p = binary_presentation(SHUFFLE)
        dims = dim_by_arity(p, 6)
        assert dims[0] == 0 and dims[1] == 1


class TestBruteBuckets:
    """The brute oracle's root-match buckets against dp and a naive filter."""

    @staticmethod
    def naive_by_arity(p, max_arity, max_weight):
        """Counts by arity from filtering every monomial with divides."""
        counts = Counter(t.arity for t in all_monomials(p.alphabet, max_weight)
                         if t.arity <= max_arity and is_normal_form(p, t))
        return tuple(counts[n] for n in range(max_arity + 1))

    @staticmethod
    def naive_by_weight(p, max_weight):
        """Counts by weight from filtering every monomial with divides."""
        counts = Counter(t.weight for t in all_monomials(p.alphabet, max_weight)
                         if is_normal_form(p, t))
        return tuple(counts[w] for w in range(max_weight + 1))

    def test_top_level_is_counted_not_built(self, monkeypatch):
        # only weights 1..11 are built as children of a heavier level:
        # C_1 + ... + C_11 = 82499 trees, not the 290511 up to C_12
        built = []
        fast_node = oplab.monomial._fast_node

        def counted(*args):
            built.append(None)
            return fast_node(*args)

        monkeypatch.setattr(oplab.monomial, "_fast_node", counted)
        free = MonomialOperadPresentation(BINARY, ())
        catalan = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)
        assert dim_by_arity(free, 13, engine="brute").values == (0, *catalan)
        assert len(built) == 82499
        built.clear()
        assert dim_by_weight(free, 12, engine="brute").values == catalan
        assert len(built) == 82499

    def test_traced_peak_keeps_no_tree_of_the_second_heaviest_level(self):
        # Keeping the 58786 trees of weight 11 peaks at about 12.6 MiB here,
        # counting them one at a time at about 3.6 MiB (CPython 3.11).
        free = MonomialOperadPresentation(BINARY, ())
        tracemalloc.start()
        try:
            dims = dim_by_arity(free, 13, engine="brute")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dims.values[-1] == 208012
        assert peak < 7 * 2 ** 20

    def test_counted_top_level_matches_the_naive_filter(self):
        rng = random.Random(37)
        for al, unary in ((Alphabet.of(a=2, b=3), False), (Alphabet.of(u=1, b=2, c=3), True)):
            pool = [t for t in all_monomials(al, 3) if t.weight >= 2]
            for _ in range(4):
                p = MonomialOperadPresentation(al, rng.sample(pool, k=rng.randint(1, 5)))
                # at weights 2 and 3 the level counted tree by tree is 1 or 2
                for w in (0, 1, 2, 3, 4):
                    assert dim_by_weight(p, w, engine="brute").values == \
                        self.naive_by_weight(p, w), (p, w)
                # the top weight is the cap, or max_arity - 1 without one;
                # max_arity 3 prunes inside it
                for n in (0, 1, 2, 3, 4, 5):
                    cap = 4 if unary or n == 5 else None
                    top = cap if cap is not None else max(0, n - 1)
                    assert dim_by_arity(p, n, engine="brute", weight_cap=cap).values == \
                        self.naive_by_arity(p, n, top), (p, n)
                if not unary:  # a cap below max_arity - 1: arity 6 cuts weight 3's arity 7
                    assert dim_by_arity(p, 6, engine="brute", weight_cap=3).values == \
                        self.naive_by_arity(p, 6, 3), p

    def test_brute_matches_dp_on_seeded_mixed_alphabets(self):
        rng = random.Random(23)
        ab = Alphabet.of(a=2, b=3)
        pool = [t for t in all_monomials(ab, 3) if t.weight >= 2]
        for _ in range(12):
            p = MonomialOperadPresentation(ab, rng.sample(pool, k=rng.randint(1, 5)))
            assert dim_by_arity(p, 9, engine="brute").values == dim_by_arity(p, 9).values
            assert dim_by_weight(p, 5, engine="brute").values == dim_by_weight(p, 5).values == \
                enumerated_by_weight(p, 5)
        ubc = Alphabet.of(u=1, b=2, c=3)
        pool = [t for t in all_monomials(ubc, 3) if t.weight >= 2]
        for _ in range(12):
            p = MonomialOperadPresentation(ubc, rng.sample(pool, k=rng.randint(1, 5)))
            assert dim_by_arity(p, 8, engine="brute", weight_cap=5).values == \
                dim_by_arity(p, 8, weight_cap=5).values
            assert dim_by_weight(p, 5, engine="brute").values == dim_by_weight(p, 5).values == \
                enumerated_by_weight(p, 5)

    def test_relations_with_one_non_leaf_slot(self):
        ab = Alphabet.of(a=2, b=3)
        for literals in (["b(*,a(*,*),*)", "a(*,b(*,*,*))"],
                         ["b(*,*,b(*,*,*))", "a(a(*,*),*)"],
                         ["b(a(*,*),*,*)", "b(*,b(*,*,*),*)", "a(*,a(*,*))"]):
            p = MonomialOperadPresentation(ab, [parse_monomial(x, ab) for x in literals])
            brute = dim_by_arity(p, 9, engine="brute").values
            assert brute == dim_by_arity(p, 9).values, literals
            assert brute[:6] == self.naive_by_arity(p, 5, 4), literals

    def test_bare_generator_relation(self):
        ab = Alphabet.of(a=2, b=3)
        p = MonomialOperadPresentation(ab, [parse_monomial("b(*,*,*)", ab)])
        assert p.relations == (parse_monomial("b(*,*,*)", ab),)
        assert all("b" not in format_monomial(t) for t in enumerate_irr(p, 5))
        free_a = dim_by_arity(MonomialOperadPresentation(Alphabet.of(a=2), ()), 12).values
        assert dim_by_arity(p, 12, engine="brute").values == free_a
        assert dim_by_arity(p, 12).values == free_a
        # with a unary generator beside it
        ub = Alphabet.of(u=1, b=3)
        p = MonomialOperadPresentation(ub, [parse_monomial("b(*,*,*)", ub)])
        assert dim_by_weight(p, 6, engine="brute").values == (1,) * 7
        assert dim_by_arity(p, 4, engine="brute", weight_cap=6).values == (0, 7, 0, 0, 0)

    def test_arity_bound_cuts_inside_a_level(self):
        # weight-3 normal forms over {a:2, b:3} have arities 4 to 7
        ab = Alphabet.of(a=2, b=3)
        p = MonomialOperadPresentation(ab, [parse_monomial("a(a(*,*),*)", ab),
                                            parse_monomial("b(*,*,a(*,*))", ab)])
        arities = {t.arity for t in enumerate_irr(p, 3) if t.weight == 3}
        assert min(arities) < 5 < max(arities)
        for n in (5, 6):
            brute = dim_by_arity(p, n, engine="brute").values
            assert brute == dim_by_arity(p, n).values == self.naive_by_arity(p, n, n - 1)

    def test_collector_state_is_restored(self):
        p = binary_presentation(SHUFFLE, CHAIN11)
        assert gc.isenabled()
        dim_by_arity(p, 12, engine="brute")
        assert gc.isenabled()
        stream = enumerate_irr(p, 8)
        first = [next(stream) for _ in range(6)]
        assert gc.isenabled() and first[0].is_trivial
        stream.close()
        gc.disable()
        try:
            dim_by_weight(p, 8, engine="brute")
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestGapDichotomy:
    def test_eventually_constant_is_linear_with_d5(self):
        p = binary_presentation(SHUFFLE, CHAIN21, CHAIN22)
        report = gap_dichotomy_check(p, 30)
        assert report.criterion_d == 5
        assert report.growth_class == GROWTH_LINEAR
        assert report.first_violation is None

    def test_free_is_superlinear(self):
        free = MonomialOperadPresentation(BINARY, ())
        report = gap_dichotomy_check(free, 12)
        assert report.criterion_d is None
        assert report.growth_class == GROWTH_SUPERLINEAR
        assert report.affine_fit is None

    def test_all_weight2_is_bounded(self):
        p = binary_presentation("a(a(*,*),*)", "a(*,a(*,*))")
        report = gap_dichotomy_check(p, 10)
        assert report.criterion_d == 3
        assert report.growth_class == GROWTH_BOUNDED
        assert report.weight_counts.values[:4] == (1, 1, 0, 0)

    def test_needs_horizon_six(self, fibonacci):
        with pytest.raises(PresentationError):
            gap_dichotomy_check(fibonacci, 5)

    def test_integer_bound_matches_the_fraction_bound(self):
        # the affine bound over Fractions, as gapcheck stated it first
        def reference(sums, a, b):
            return next((n for n, s in enumerate(sums)
                         if s - (a * n + b) > max(Fraction(5), abs(a * n + b) / 10)), None)

        rng = random.Random(9)
        seen = set()
        for _ in range(2000):
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            b = Fraction(rng.randint(-300, 300), rng.randint(1, 12))
            sums = [rng.randint(0, 120) for _ in range(rng.randint(1, 25))]
            expected = reference(sums, a, b)
            assert _first_violation(sums, a, b) == expected, (sums, a, b)
            seen.add(expected is None)
        assert seen == {True, False}
        # the boundary itself is no violation: 5 over, and 10% over a bound of 60
        assert _first_violation([5, 66], Fraction(60), Fraction(0)) is None
        assert _first_violation([6, 66], Fraction(60), Fraction(0)) == 0
        assert _first_violation([5, 67], Fraction(60), Fraction(0)) == 1


class TestPresentationFiles:
    def test_round_trip(self, fibonacci):
        text = format_presentation(fibonacci)
        again = parse_presentation(text)
        assert again == fibonacci
        assert again.name == "fibonacci"

    def test_parse_errors_carry_line(self):
        with pytest.raises(PresentationSyntaxError) as err:
            parse_presentation("generator a 2\nrelation a(*\n")
        assert err.value.lineno == 2
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("generator a\n")
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("relation a(*,*)\n")
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("frobnicate a\n")

    def test_comments_and_blanks(self):
        p = parse_presentation("# comment\n\ngenerator a 2\nrelation a(a(*,*),*)  # tail\n")
        assert len(p.relations) == 1

    @pytest.mark.parametrize("text, lineno", [
        ("generator a 2\ngenerator a 3\n", 2),
        ("generator a 2\n# comment\nrelation 1\n", 3),
        ("generator a 2\nrelation a(*,*)\n\trelation   1  # trivial\n", 3),
    ], ids=["repeated-generator", "trivial-relation", "trivial-relation-spaced"])
    def test_every_rejection_names_its_line(self, text, lineno):
        with pytest.raises(PresentationSyntaxError) as err:
            parse_presentation(text)
        assert err.value.lineno == lineno
        assert err.value.line == text.splitlines()[lineno - 1]

    def test_name_takes_the_rest_of_its_line(self):
        p = binary_presentation(SHUFFLE, name="the fibonacci operad")
        assert parse_presentation(format_presentation(p)).name == "the fibonacci operad"
        assert parse_presentation("name  a\tb  # note\ngenerator a 2\n").name == "a\tb"
