"""The path-sequence sort key of tree monomials."""

import random

import pytest

from helpers import FIG3, all_monomials
from oplab import (
    Alphabet,
    MonomialOperadPresentation,
    TreeMonomial,
    TreeOrder,
    compose,
    enumerate_irr,
    format_monomial,
    parse_monomial,
)
from oplab.cli import preset_presentation
from oplab.monomial import compile_grammar

BINARY = Alphabet.of(a=2)
TWO_BINARY = Alphabet.of(a=2, b=2)


@pytest.fixture
def fig3():
    return {
        "t1": parse_monomial("a(b(*,*))", FIG3),
        "t2": parse_monomial("b(*,c(*,*))", FIG3),
        "t3": parse_monomial("b(c(*,*),*)", FIG3),
    }


class TestTreeOrder:
    def test_exact_keys(self, fig3):
        # paths (ab, ab) with ranks a=0, b=1
        assert TreeOrder(FIG3).key(fig3["t1"]) == (2, ((2, (0, 1)), (2, (0, 1))))
        # ranks follow declaration order, not names: c=0, b=1; paths (b, bc, bc)
        cb = Alphabet.of(c=2, b=2)
        assert TreeOrder(cb).key(parse_monomial("b(*,c(*,*))", cb)) == \
            (3, ((1, (1,)), (2, (1, 0)), (2, (1, 0))))

    def test_enumeration_order(self):
        free = preset_presentation("free-operad:2")
        assert [format_monomial(t) for t in enumerate_irr(free, 3)] == [
            "1", "a(*,*)",
            "a(*,a(*,*))", "a(a(*,*),*)",
            "a(*,a(*,a(*,*)))", "a(*,a(a(*,*),*))", "a(a(*,*),a(*,*))",
            "a(a(*,a(*,*)),*)", "a(a(a(*,*),*),*)",
        ]

    def test_more_leaves_wins(self, fig3):
        key = TreeOrder(FIG3).key
        assert key(fig3["t1"]) < key(fig3["t2"])  # 2 leaves < 3 leaves

    def test_first_differing_word(self, fig3):
        key = TreeOrder(FIG3).key
        # first words b vs bc: the longer word is larger
        assert key(fig3["t2"]) < key(fig3["t3"])

    def test_reflexive(self, fig3):
        key = TreeOrder(FIG3).key
        assert key(parse_monomial("b(*,c(*,*))", FIG3)) == key(fig3["t2"])

    def test_totality_exhaustive(self):
        # distinct monomials get distinct keys
        key = TreeOrder(TWO_BINARY).key
        monomials = all_monomials(TWO_BINARY, 5)
        assert len({key(t) for t in monomials}) == len(monomials)

    def test_antisymmetry_sample(self):
        key = TreeOrder(TWO_BINARY).key
        rng = random.Random(11)
        monomials = all_monomials(TWO_BINARY, 4)
        for _ in range(500):
            t1, t2 = rng.choice(monomials), rng.choice(monomials)
            assert (key(t1) < key(t2)) == (key(t2) > key(t1))
            assert (key(t1) == key(t2)) == (t1 == t2)

    def test_truncated_classes_have_minimum(self):
        key = TreeOrder(TWO_BINARY).key
        by_arity = {}
        for t in all_monomials(TWO_BINARY, 4):
            by_arity.setdefault(t.arity, []).append(t)
        for ts in by_arity.values():
            m = min(ts, key=key)
            assert all(key(m) < key(t) for t in ts if t != m)

    def test_composition_monotonic(self):
        key = TreeOrder(TWO_BINARY).key
        rng = random.Random(23)
        monomials = all_monomials(TWO_BINARY, 4)
        by_arity = {}
        for t in monomials:
            by_arity.setdefault(t.arity, []).append(t)
        classes = [v for v in by_arity.values() if len(v) >= 2]
        for _ in range(300):
            t0, t0p = sorted(rng.sample(rng.choice(classes), 2), key=key, reverse=True)
            u = rng.choice(monomials)
            i = rng.randint(1, t0.arity)
            assert key(compose(t0, i, u)) > key(compose(t0p, i, u))
            j = rng.randint(1, u.arity)
            assert key(compose(u, j, t0)) > key(compose(u, j, t0p))


def left_comb(alphabet, height):
    """a(a(...a(*,*)...,*),*) with ``height`` vertices of the first generator."""
    gen = TreeMonomial.node(alphabet, alphabet.generators[0].name)
    comb = gen
    for _ in range(height - 1):
        comb = compose(gen, 1, comb)
    return comb


class TestByWeight:
    def test_same_order_as_the_full_key(self):
        order = TreeOrder(TWO_BINARY)
        monomials = all_monomials(TWO_BINARY, 4)
        random.Random(5).shuffle(monomials)
        assert order.by_weight(monomials) == sorted(monomials, key=lambda t: (t.weight,
                                                                              order.key(t)))

    def test_a_tall_comb_needs_no_key(self, monkeypatch):
        # every subtree of a comb has its own weight, so no tie needs a key
        calls = []
        key = TreeOrder.key
        monkeypatch.setattr(TreeOrder, "key", lambda self, t: calls.append(t) or key(self, t))
        comb = left_comb(BINARY, 60)
        p = MonomialOperadPresentation(BINARY, [comb, left_comb(BINARY, 61)])
        assert p.relations == (comb,)
        grammar = compile_grammar(p, 62)
        assert len(grammar.crowns) == 59
        assert calls == []
