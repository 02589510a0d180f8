"""Tree monomials: grafting, path sequences, divisibility, submonomials."""

import gc
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BINARY, FIG3, all_monomials, divides_oracle, random_monomial
from oplab import (
    LEAF,
    Alphabet,
    Generator,
    TreeMonomial,
    compose,
    divides,
    format_monomial,
    from_path_sequence,
    parse_monomial,
    submonomials,
    to_path_sequence,
)
from oplab.trees import (
    AlphabetMismatchError,
    DegenerateDivisorError,
    LeafIndexError,
    LiteralSyntaxError,
    MalformedPathError,
    TreeError,
    _fast_node,
    matches_at_root,
)


def _unary_chain(height):
    """a(a(...a(*)...)) of the given height, built by the engines' constructor."""
    t = LEAF
    for _ in range(height):
        t = _fast_node(FIG3, FIG3["a"], (t,))
    return t


@pytest.fixture
def fig3():
    return {
        "t1": parse_monomial("a(b(*,*))", FIG3),
        "t2": parse_monomial("b(*,c(*,*))", FIG3),
        "t3": parse_monomial("b(c(*,*),*)", FIG3),
        "t4": parse_monomial("b(c(*,*),b(*,*))", FIG3),
    }


def paths(t):
    return tuple("".join(w) for w in to_path_sequence(t))


class TestConstruction:
    def test_generator_validation(self):
        with pytest.raises(TreeError):
            Generator("a", 0)
        with pytest.raises(TreeError):
            Generator("", 2)
        with pytest.raises(TreeError):
            Generator("a b", 2)
        with pytest.raises(TreeError):
            Generator("1", 2)

    def test_alphabet_validation(self):
        with pytest.raises(TreeError):
            Alphabet(())
        with pytest.raises(TreeError):
            Alphabet((Generator("a", 2), Generator("a", 3)))
        assert FIG3.has_unary and not BINARY.has_unary
        assert BINARY.max_arity == 2

    def test_arity_weight_height(self, fig3):
        t1, t4 = fig3["t1"], fig3["t4"]
        assert (t1.arity, t1.weight, t1.height) == (2, 2, 2)
        assert (t4.arity, t4.weight, t4.height) == (4, 3, 2)
        trivial = TreeMonomial.trivial(FIG3)
        assert (trivial.arity, trivial.weight, trivial.height) == (1, 0, 0)

    def test_children_must_match_arity(self):
        with pytest.raises(TreeError):
            TreeMonomial(FIG3, FIG3["b"], (LEAF,))

    def test_trivial_child_rejected(self):
        with pytest.raises(TreeError):
            TreeMonomial(FIG3, FIG3["a"], (TreeMonomial.trivial(FIG3),))

    def test_structural_equality(self, fig3):
        again = parse_monomial("b(c(*,*),b(*,*))", FIG3)
        assert again == fig3["t4"] and hash(again) == hash(fig3["t4"])
        assert fig3["t2"] != fig3["t3"]

    def test_fast_node_twin(self):
        # the enumeration engines' unvalidated constructor, whose hash is lazy
        inner = _fast_node(FIG3, FIG3["c"], (LEAF, LEAF))
        fast = _fast_node(FIG3, FIG3["b"], (inner, _fast_node(FIG3, FIG3["a"], (LEAF,))))
        twin = parse_monomial("b(c(*,*),a(*))", FIG3)
        assert (fast.arity, fast.weight, fast.height) == (twin.arity, twin.weight, twin.height)
        assert fast == twin and twin == fast
        assert hash(fast) == hash(twin)
        assert fast in {twin} and twin in {fast}
        assert {twin: 1}[fast] == 1
        assert fast != parse_monomial("b(c(*,*),*)", FIG3)
        assert format_monomial(fast) == "b(c(*,*),a(*))"

    def test_tall_tree_hash(self):
        # a lazy hash must not recurse once per level
        chains = [_unary_chain(height) for height in (3000, 3000, 2999)]
        assert hash(chains[0]) == hash(chains[1]) != hash(chains[2])
        assert chains[0].height == 3000

    def test_tall_tree_walks(self):
        # printing, path words and equality must not recurse once per level either
        tall, twin, shorter = (_unary_chain(height) for height in (3000, 3000, 2999))
        assert format_monomial(tall) == "a(" * 3000 + "*" + ")" * 3000
        assert to_path_sequence(tall) == (("a",) * 3000,)
        assert tall == twin and not tall != twin
        assert tall != shorter and not tall == shorter


class TestLiterals:
    def test_round_trip(self, fig3):
        for t in fig3.values():
            assert parse_monomial(format_monomial(t), FIG3) == t
        assert format_monomial(TreeMonomial.trivial(FIG3)) == "1"
        assert parse_monomial("1", FIG3).is_trivial

    def test_whitespace_insignificant(self, fig3):
        assert parse_monomial(" b( c(*, *) , b(* ,*) ) ", FIG3) == fig3["t4"]

    def test_syntax_errors(self):
        for bad in ["", "b(*)", "b(*,*", "d(*,*)", "b(*,*)x", "a()", "*"]:
            with pytest.raises(LiteralSyntaxError):
                parse_monomial(bad, FIG3)

    def test_syntax_error_messages(self):
        for bad, message in [
            ("", "empty tree-monomial literal"),
            ("b(*)", "b has arity 2 but got 1 children in 'b(*)'"),
            ("b(*,*", "unexpected end of literal 'b(*,*'"),
            ("b(*;*)", "expected ')' but found ';' in 'b(*;*)'"),
            ("b(*,d(*,*))", "unknown generator 'd' in 'b(*,d(*,*))'"),
            ("b(*,c)", "expected '(' but found ')' in 'b(*,c)'"),
            ("b(*,*)x", "trailing tokens after monomial in 'b(*,*)x'"),
            ("b(,*)", "expected generator name, found ',' in 'b(,*)'"),
            ("b(* *)", "expected ')' but found '*' in 'b(* *)'"),
        ]:
            with pytest.raises(LiteralSyntaxError, match=re.escape(message) + "$"):
                parse_monomial(bad, FIG3)

    def test_tall_literal_round_trips(self):
        text = "b(*," * 3000 + "*" + ")" * 3000
        t = parse_monomial(text, FIG3)
        assert (t.height, t.arity) == (3000, 3001)
        assert format_monomial(t) == text


class TestPathSequences:
    def test_worked_examples(self, fig3):
        assert paths(fig3["t1"]) == ("ab", "ab")
        assert paths(fig3["t2"]) == ("b", "bc", "bc")
        assert paths(fig3["t3"]) == ("bc", "bc", "b")
        assert paths(fig3["t4"]) == ("bc", "bc", "bb", "bb")

    def test_trivial(self):
        assert to_path_sequence(TreeMonomial.trivial(FIG3)) == ((),)

    def test_reconstruction(self, fig3):
        assert from_path_sequence([("a", "b"), ("a", "b")], FIG3) == fig3["t1"]
        assert from_path_sequence([("b",), ("b", "c"), ("b", "c")], FIG3) == fig3["t2"]
        assert from_path_sequence([()], FIG3).is_trivial

    def test_unrealizable(self):
        # b is binary, so three leaves cannot all carry the word ab
        with pytest.raises(MalformedPathError):
            from_path_sequence([("a", "b")] * 3, FIG3)
        with pytest.raises(MalformedPathError):
            from_path_sequence([("b",), ("c", "b")], FIG3)
        with pytest.raises(MalformedPathError):
            from_path_sequence([(), ("b",)], FIG3)
        with pytest.raises(MalformedPathError):
            from_path_sequence([("z",)], FIG3)

    def test_round_trip_exhaustive_weight4(self):
        for t in all_monomials(FIG3, 4):
            assert from_path_sequence(to_path_sequence(t), FIG3) == t

    def test_adjacent_words_share_prefix(self):
        for t in all_monomials(FIG3, 3):
            words = to_path_sequence(t)
            for u, v in zip(words, words[1:]):
                k = 0
                while k < min(len(u), len(v)) and u[k] == v[k]:
                    k += 1
                assert k >= 1


class TestCompose:
    def test_figure4_compositions(self, fig3):
        t1, t2 = fig3["t1"], fig3["t2"]
        assert paths(compose(t1, 1, t2)) == ("abb", "abbc", "abbc", "ab")
        assert paths(compose(t1, 2, t2)) == ("ab", "abb", "abbc", "abbc")

    def test_unit_axiom(self, fig3):
        one = TreeMonomial.trivial(FIG3)
        for t in fig3.values():
            assert compose(one, 1, t) == t
            for i in range(1, t.arity + 1):
                assert compose(t, i, one) == t

    def test_arity_weight_additivity(self, fig3):
        rng = random.Random(7)
        for _ in range(100):
            t1 = random_monomial(rng, FIG3, 4)
            t2 = random_monomial(rng, FIG3, 4)
            i = rng.randint(1, t1.arity)
            c = compose(t1, i, t2)
            assert c.arity == t1.arity + t2.arity - 1
            assert c.weight == t1.weight + t2.weight

    def test_leaf_index_errors(self, fig3):
        t = fig3["t1"]
        for bad in (0, 3, -1):
            with pytest.raises(LeafIndexError):
                compose(t, bad, t)

    def test_alphabet_mismatch(self, fig3):
        other = Alphabet.of(b=2)
        with pytest.raises(AlphabetMismatchError):
            compose(fig3["t3"], 1, parse_monomial("b(*,*)", other))

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_sequential_axiom(self, seed):
        rng = random.Random(seed)
        t = random_monomial(rng, FIG3, 3)
        u = random_monomial(rng, FIG3, 3)
        v = random_monomial(rng, FIG3, 3)
        i = rng.randint(1, t.arity)
        j = rng.randint(i, i + u.arity - 1)
        left = compose(compose(t, i, u), j, v)
        right = compose(t, i, compose(u, j - i + 1, v))
        assert left == right

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_parallel_axiom(self, seed):
        rng = random.Random(seed)
        t = random_monomial(rng, FIG3, 3)
        u = random_monomial(rng, FIG3, 3)
        v = random_monomial(rng, FIG3, 3)
        n, m, r = t.arity, u.arity, v.arity
        i = rng.randint(1, n)
        if i + m <= n + m - 1:
            j = rng.randint(i + m, n + m - 1)
            assert compose(compose(t, i, u), j, v) == compose(compose(t, j - m + 1, v), i, u)
        if i > 1:
            j = rng.randint(1, i - 1)
            assert compose(compose(t, i, u), j, v) == compose(compose(t, j, v), i + r - 1, u)


class TestDivides:
    def test_self_division(self, fig3):
        for t in fig3.values():
            if not t.is_trivial:
                assert divides(t, t)

    def test_anchored_examples(self):
        d_left = parse_monomial("a(a(*,*),*)", BINARY)
        d_right = parse_monomial("a(*,a(*,*))", BINARY)
        balanced = parse_monomial("a(a(*,*),a(*,*))", BINARY)
        # the balanced tree contains both one-sided shapes
        assert divides(d_left, balanced)
        assert divides(d_right, balanced)
        # the all-index-2 chain contains only the right-sided shape
        chain22 = parse_monomial("a(*,a(*,a(*,*)))", BINARY)
        assert not divides(d_left, chain22)
        assert divides(d_right, chain22)

    def test_degenerate_divisor(self, fig3):
        with pytest.raises(DegenerateDivisorError):
            divides(TreeMonomial.trivial(FIG3), fig3["t1"])

    def test_trivial_dividend(self):
        d = parse_monomial("a(*,*)", BINARY)
        assert not divides(d, TreeMonomial.trivial(BINARY))

    def test_matches_oracle_small(self):
        monomials = all_monomials(BINARY, 4)
        divisors = [t for t in monomials if 1 <= t.weight <= 2]
        targets = [t for t in monomials if not t.is_trivial]
        for t in targets:
            for d in divisors:
                assert divides(d, t) == divides_oracle(d, t)


class TestLabels:
    # matches_at_root tests labels by identity, then by name and arity

    def test_twin_alphabets_give_the_same_answers(self):
        one, other = Alphabet.of(a=2, b=3), Alphabet.of(a=2, b=3)
        assert one == other and one["a"] is not other["a"]
        rng = random.Random(11)
        pool = [t for t in (random_monomial(rng, one, 5) for _ in range(40)) if not t.is_trivial]
        twins = [parse_monomial(format_monomial(t), other) for t in pool]
        answers = []
        for d, d2 in zip(pool, twins):
            for t, t2 in zip(pool, twins):
                match = matches_at_root(d, t)
                assert matches_at_root(d, t2) == matches_at_root(d2, t) == match
                assert divides(d, t2) == divides(d2, t) == divides(d, t)
                answers.append(match)
        assert any(answers) and not all(answers)

    def test_arity_is_part_of_the_label(self):
        a2, a3 = Alphabet.of(a=2, b=2), Alphabet.of(a=3, b=2)
        two, three = parse_monomial("a(*,*)", a2), parse_monomial("a(*,*,*)", a3)
        assert not matches_at_root(two, three) and not matches_at_root(three, two)
        below = parse_monomial("b(a(*,*,*),*)", a3)
        assert not matches_at_root(parse_monomial("b(a(*,*),*)", a2), below)
        assert matches_at_root(parse_monomial("b(*,*)", a2), below)


class TestSubmonomials:
    def test_chain_windows_collapse(self):
        chain = parse_monomial("a(a(a(*,*),*),*)", BINARY)
        subs = submonomials(chain, 2)
        assert subs == {parse_monomial("a(a(*,*),*)", BINARY)}

    def test_weight_cap_stops_the_descent(self):
        chain = LEAF
        for _ in range(3000):
            chain = TreeMonomial(BINARY, BINARY["a"], (chain, LEAF))
        assert submonomials(chain, 2) == {parse_monomial("a(a(*,*),*)", BINARY)}

    def test_full_weight(self, fig3):
        t = fig3["t4"]
        assert submonomials(t, t.weight) == {t}

    def test_weight_one_labels(self, fig3):
        labels = submonomials(fig3["t4"], 1)
        assert labels == {parse_monomial("b(*,*)", FIG3), parse_monomial("c(*,*)", FIG3)}

    def test_trivial_rejected(self):
        with pytest.raises(TreeError):
            submonomials(TreeMonomial.trivial(FIG3))

    def test_counts_against_anchor_enumeration(self):
        # each submonomial is a normal subtree; spot check set semantics
        t = parse_monomial("b(c(b(*,*),*),b(*,*))", FIG3)
        subs = submonomials(t)
        assert all(divides(s, t) for s in subs)
        assert len({(s.weight, s) for s in subs}) == len(subs)

    def test_leaves_no_cyclic_garbage(self):
        # a helper that calls itself through its own closure cell leaves a
        # cycle per call for the collector
        t = parse_monomial("a(a(b(*),*),a(*,b(*)))", Alphabet.of(a=2, b=1))
        gc.disable()
        try:
            gc.collect()
            for weight in (None, 2, 3):
                assert submonomials(t, weight)
                assert gc.collect() == 0
        finally:
            gc.enable()
