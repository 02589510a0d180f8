"""Monomial operad presentations: normal forms, engines, growth dichotomy."""

import gc
import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oplab.brute
from helpers import BINARY, UNARY_BINARY, all_monomials, mirror, random_monomial
from oplab import (
    Alphabet,
    MonomialOperadPresentation,
    TreeMonomial,
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
from oplab.algebra import MonomialAlgebraPresentation, hilbert_dims, warfield_monomial_model
from oplab.cli import sweep_family
from oplab.constructions import operadization_dims, operadize
from oplab.dims import ENGINES, format_ratio
from oplab.monomial import (
    GROWTH_BOUNDED,
    GROWTH_LINEAR,
    GROWTH_SUPERLINEAR,
    CompletenessError,
    PresentationError,
    PresentationSyntaxError,
    _affine_fit,
    _first_violation,
    compile_grammar,
    format_presentation,
    parse_presentation,
)

SHUFFLE = "a(a(*,*),a(*,*))"
CHAIN11 = "a(a(a(*,*),*),*)"
CHAIN21 = "a(*,a(a(*,*),*))"
CHAIN22 = "a(*,a(*,a(*,*)))"

SRC = Path(__file__).resolve().parent.parent / "src"

# SHA-256 of the crowns, the rules in order, the weight dims to 6 and the
# normal forms to weight 4 of the seeded presentations in
# TestNormalForms.test_seeded_grammars_counts_and_normal_forms_are_pinned,
# recorded when dp added one term per rule and walked the child slots recursively
SEEDED_SHA256 = "8f661448f865b0a6ec4050de6fedecaff65f925fb436472d451c62050546af6d"


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

    def test_hash_is_the_same_in_fresh_interpreters(self):
        # a leaf must not hash by address, as None does up to CPython 3.11
        code = ("from oplab.cli import preset_presentation\n"
                "print(hash(preset_presentation('ex53-2')))")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="7")
        runs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, check=True).stdout for _ in range(2)}
        assert len(runs) == 1


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

    def test_seeded_grammars_counts_and_normal_forms_are_pinned(self):
        # 60 presentations on each alphabet, 1 to 4 relations of weight 2 or 3
        rng = random.Random(41)
        digest = hashlib.sha256()
        for al in (Alphabet.of(a=2), Alphabet.of(a=2, b=3), Alphabet.of(u=1, b=2),
                   Alphabet.of(a=3, b=2, c=1), Alphabet.of(a=5)):
            pool = [t for t in all_monomials(al, 3) if t.weight >= 2]
            for _ in range(60):
                p = MonomialOperadPresentation(al, rng.sample(pool, k=rng.randint(1, 4)))
                grammar = compile_grammar(p)
                lines = [" ".join(map(format_monomial, crown)) for crown in grammar.crowns]
                lines += [f"{c} {g.name} {kids}" for c, g, kids in grammar.rules]
                lines.append(str(dim_by_weight(p, 6).values))
                lines += map(format_monomial, enumerate_irr(p, 4))
                digest.update("\n".join(lines).encode() + b"\n\n")
        assert digest.hexdigest() == SEEDED_SHA256

    def test_wide_generator(self):
        # 1200 slots: the child walk must not recurse once per slot
        wide = Alphabet.of(a=1200)
        got = list(enumerate_irr(MonomialOperadPresentation(wide, ()), 1))
        assert got == [TreeMonomial.trivial(wide), TreeMonomial.node(wide, "a")]

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


class TestWeightBound:
    # Each node adds at least (least arity - 1) to arity - 1, so a count to
    # max_arity reads the weights up to (max_arity - 1) // (least arity - 1)

    @pytest.mark.parametrize("arities, max_arity", [
        ({"a": 3}, 13), ({"a": 4}, 16), ({"a": 3, "b": 4}, 8)], ids=["a3", "a4", "a3-b4"])
    def test_engines_agree_on_both_sides_of_the_bound(self, arities, max_arity):
        # bounds 6, 5 and 3, below max_arity - 1; 8 seeded presentations of
        # 1 to 4 relations of weight 2 to 4 each, about 0.6 s per alphabet on
        # a 2-vCPU Linux VM, most of it in enumerate_irr
        al = Alphabet.of(**arities)
        bound = (max_arity - 1) // (min(arities.values()) - 1)
        rng = random.Random(17)
        for _ in range(8):
            k = rng.randint(1, 4)
            rels: list = []
            while len(rels) < k:
                t = random_monomial(rng, al, 4)
                if t.weight >= 2:
                    rels.append(t)
            p = MonomialOperadPresentation(al, rels)
            dims = dim_by_arity(p, max_arity)
            assert dims.exact and dim_by_arity(p, max_arity, engine="brute") == dims
            # one weight past the bound adds no tree of these arities
            counts = Counter(t.arity for t in enumerate_irr(p, bound + 1))
            assert dims.values == tuple(counts[n] for n in range(max_arity + 1))
            below = dim_by_arity(p, max_arity, weight_cap=bound - 1)
            assert not below.exact and below.values != dims.values
            assert dim_by_arity(p, max_arity, engine="brute", weight_cap=bound - 1) == below
            for cap in (bound, bound + 1, max_arity - 1):
                for engine in ENGINES:
                    assert dim_by_arity(p, max_arity, engine=engine, weight_cap=cap) == dims

    @pytest.mark.parametrize("engine", ["dp", "brute"])
    def test_operadized_model_with_a_third_variable(self, engine):
        # the Warfield 5/2 model at degree 20 plus a variable y, with y x1
        # and y x2 forbidden (its words are w y^k), operadized: one ternary
        # generator, so arity 43 reads weights up to 21, not 42; within 5 s
        # (about 0.8 s with dp and 0.3 s with brute on a 2-vCPU Linux VM;
        # compiling to weight 42 takes about 28 s, so the budget catches a
        # lost bound)
        model = warfield_monomial_model("5/2", 20)
        a = MonomialAlgebraPresentation((*model.variables, "y"),
                                        (*model.forbidden, ("y", "x1"), ("y", "x2")))
        p = operadize(a)
        assert [g.arity for g in p.alphabet.generators] == [3]
        start = time.perf_counter()
        dims = dim_by_arity(p, 43, engine=engine)
        assert time.perf_counter() - start < 5
        assert dims == operadization_dims(hilbert_dims(a, 20), 3, 43)


def mirrored(p):
    """The presentation whose relations are the mirror images of ``p``'s."""
    return MonomialOperadPresentation(p.alphabet, map(mirror, p.relations))


class TestMirrorImages:
    # Reversing the children of every vertex maps the normal forms of p onto
    # those of mirrored(p), so dp must count both alike by arity and by
    # weight, far beyond brute's reach.  TreeOrder is not mirror-symmetric,
    # so the two grammars can number their crowns differently.

    def test_mirror_reverses_every_vertex(self):
        ab = Alphabet.of(a=2, b=3)
        t = parse_monomial("a(a(*,b(*,*,*)),*)", ab)
        assert format_monomial(mirror(t)) == "a(*,a(b(*,*,*),*))"
        rng = random.Random(3)
        for _ in range(50):
            t = random_monomial(rng, ab, 8)
            assert mirror(mirror(t)) == t and mirror(t).weight == t.weight

    def test_every_sweep_presentation_at_arity_1000(self):
        for p in dict.fromkeys(p for _, p in sweep_family(3)):
            assert dim_by_arity(p, 1000).values == dim_by_arity(mirrored(p), 1000).values, p.name

    def test_seeded_presentations(self):
        # 40 presentations on each alphabet, 1 to 4 relations of weight 2 or 3
        rng = random.Random(43)
        for al in (Alphabet.of(a=2), Alphabet.of(a=2, b=3), Alphabet.of(u=1, b=2),
                   Alphabet.of(a=3, b=2, c=1)):
            pool = [t for t in all_monomials(al, 3) if t.weight >= 2]
            for _ in range(40):
                p = MonomialOperadPresentation(al, rng.sample(pool, k=rng.randint(1, 4)))
                q = mirrored(p)
                assert dim_by_weight(p, 60).values == dim_by_weight(q, 60).values
                if not al.has_unary:
                    assert dim_by_arity(p, 200).values == dim_by_arity(q, 200).values

    def test_some_sweep_grammar_is_renumbered(self):
        # the crowns of mirrored(p), in its order, are not all the mirror
        # images of p's crowns in p's order (18 of the 37 sweep presentations),
        # so the arity-1000 check above compares two different grammars
        def renumbered(p):
            ours, theirs = compile_grammar(p), compile_grammar(mirrored(p))
            return ([frozenset(map(mirror, crown)) for crown in ours.crowns]
                    != [frozenset(crown) for crown in theirs.crowns])

        assert any(map(renumbered, dict.fromkeys(p for _, p in sweep_family(3))))


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
        # every normal form below the top weight is built exactly once:
        # C_1 + ... + C_11 = 82499 trees on the free operad, not the 290511
        # up to C_12, and on ex53-2 the 28655 normal forms of weights 1..20
        built = []
        fast_node = oplab.brute._fast_node

        def counted(*args):
            built.append(None)
            return fast_node(*args)

        monkeypatch.setattr(oplab.brute, "_fast_node", counted)
        free = MonomialOperadPresentation(BINARY, ())
        catalan = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)
        assert dim_by_arity(free, 13, engine="brute").values == (0, *catalan)
        assert len(built) == 82499
        built.clear()
        assert dim_by_weight(free, 12, engine="brute").values == catalan
        assert len(built) == 82499
        built.clear()
        ex53_2 = binary_presentation(SHUFFLE, CHAIN11)
        assert dim_by_arity(ex53_2, 22, engine="brute").values == dim_by_arity(ex53_2, 22).values
        assert len(built) == sum(dim_by_weight(ex53_2, 20).values[1:]) == 28655

    def test_traced_peak_keeps_no_tree_of_the_third_heaviest_level(self):
        # Only levels below about half the top weight keep their trees:
        # about 0.04 MiB on the free operad at arity 13, 0.07 and 0.05 MiB
        # on ex53-2 at arities 22 and 24, where keeping every level below
        # W-2 peaked at 1.06, 1.53 and 4.2 MiB (CPython 3.11).
        free = MonomialOperadPresentation(BINARY, ())
        ex53_2 = binary_presentation(SHUFFLE, CHAIN11)
        for p, n, bound in ((free, 13, 0.25 * 2 ** 20), (ex53_2, 22, 0.25 * 2 ** 20),
                            (ex53_2, 24, 0.5 * 2 ** 20)):
            tracemalloc.start()
            try:
                dims = dim_by_arity(p, n, engine="brute")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert dims.values == dim_by_arity(p, n).values
            assert peak < bound, (p, n, peak)

    def test_leaves_no_cyclic_garbage(self):
        # a cycle would wait for the collector, which the walk pauses; the
        # last two runs go through _child_combos, as enumerate_irr and dp do
        ex53_2 = binary_presentation(SHUFFLE, CHAIN11)
        ab = Alphabet.of(a=2, b=3)
        mixed = MonomialOperadPresentation(ab, [parse_monomial("b(*,a(*,*),*)", ab),
                                                parse_monomial("a(*,b(*,*,*))", ab)])
        gc.disable()
        try:
            gc.collect()
            for run in (lambda: dim_by_arity(ex53_2, 22, engine="brute"),
                        lambda: dim_by_arity(mixed, 12, engine="brute"),
                        lambda: dim_by_weight(mixed, 7, engine="brute"),
                        lambda: list(enumerate_irr(mixed, 6)),
                        lambda: dim_by_arity(mixed, 12)):
                run()
                assert gc.collect() == 0
        finally:
            gc.enable()

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
            # the line as (A*n + B)/D, D any common denominator
            d = a.denominator * b.denominator * rng.randint(1, 3)
            sums = [rng.randint(0, 120) for _ in range(rng.randint(1, 25))]
            expected = reference(sums, a, b)
            assert _first_violation(sums, int(a * d), int(b * d), d) == expected, (sums, a, b, d)
            seen.add(expected is None)
        assert seen == {True, False}
        # the boundary itself is no violation: 5 over, and 10% over a bound of 60
        for d in (1, 3):
            assert _first_violation([5, 66], 60 * d, 0, d) is None
            assert _first_violation([6, 66], 60 * d, 0, d) == 0
            assert _first_violation([5, 67], 60 * d, 0, d) == 1

    def test_integer_fit_matches_the_fraction_fit(self):
        # the least-squares line over Fractions, as gapcheck computed it first
        def reference(points):
            k = len(points)
            sx = sum(x for x, _ in points)
            sy = sum(y for _, y in points)
            den = k * sum(x * x for x, _ in points) - sx * sx
            if den == 0:
                return Fraction(0), Fraction(sy, k)
            a = Fraction(k * sum(x * y for x, y in points) - sx * sy, den)
            return a, (sy - a * sx) / k

        rng = random.Random(26)
        seen = set()
        for _ in range(3000):
            lo = rng.randint(-5, 30)
            xs = ([lo] * rng.randint(1, 4) if rng.random() < 0.05
                  else [rng.randint(lo, lo + 12) for _ in range(rng.randint(1, 12))])
            points = [(x, rng.randint(-200, 200)) for x in xs]
            a, b = reference(points)
            big_a, big_b, d = _affine_fit(points)
            assert d > 0 and (Fraction(big_a, d), Fraction(big_b, d)) == (a, b), points
            # the normal equations hold exactly for the residuals D*y - (A*x + B)
            residuals = [d * y - big_a * x - big_b for x, y in points]
            assert sum(residuals) == 0
            assert sum(x * r for (x, _), r in zip(points, residuals)) == 0
            assert (format_ratio(big_a, d), format_ratio(big_b, d)) == (str(a), str(b))
            seen |= {("a<0", a < 0), ("a integral", a.denominator == 1),
                     ("b<0", b < 0), ("b integral", b.denominator == 1)}
        assert len(seen) == 8  # negative and not, integral and not, for slope and offset
        for num in range(-30, 31):
            for den in range(1, 13):
                assert format_ratio(num, den) == str(Fraction(num, den))


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
