"""Shared test utilities: random monomials, exhaustive lists, naive oracles."""

from __future__ import annotations

import random

from oplab import (
    LEAF,
    Alphabet,
    MonomialOperadPresentation,
    TreeMonomial,
    compose,
    enumerate_irr,
    submonomials,
)

FIG3 = Alphabet.of(a=1, b=2, c=2)
BINARY = Alphabet.of(a=2)
UNARY_BINARY = Alphabet.of(u=1, b=2)


def random_monomial(rng: random.Random, alphabet: Alphabet, max_weight: int) -> TreeMonomial:
    """Grow a random monomial by grafting generators at random leaves."""
    t = TreeMonomial.trivial(alphabet)
    for _ in range(rng.randint(0, max_weight)):
        g = rng.choice(alphabet.generators)
        t = compose(t, rng.randint(1, t.arity), TreeMonomial.node(alphabet, g.name))
    return t


def all_monomials(alphabet: Alphabet, max_weight: int) -> list[TreeMonomial]:
    """Every monomial of weight <= max_weight (free presentation, no relations)."""
    free = MonomialOperadPresentation(alphabet, ())
    return list(enumerate_irr(free, max_weight))


def mirror(t: TreeMonomial) -> TreeMonomial:
    """``t`` with the children of every vertex in reverse order, built
    bottom-up from an explicit stack, so a tall tree does not recurse."""
    if t.is_trivial:
        return t
    built: dict[int, TreeMonomial] = {}  # id of a vertex of t -> its mirror image
    stack = [t]
    while stack:
        s = stack[-1]
        waiting = [c for c in s.children if c is not LEAF and id(c) not in built]
        if waiting:
            stack += waiting
            continue
        stack.pop()
        built[id(s)] = TreeMonomial(s.alphabet, s.generator,
                                    [c if c is LEAF else built[id(c)] for c in reversed(s.children)])
    return built[id(t)]


def divides_oracle(d: TreeMonomial, t: TreeMonomial) -> bool:
    """Naive subtree oracle: enumerate submonomials and compare."""
    if t.is_trivial:
        return False
    return d in submonomials(t, d.weight)


def brute_avoiding_words(variables, forbidden, degree: int) -> int:
    """Count length-`degree` words with no forbidden factor, by enumeration."""
    forbidden = [tuple(w) for w in forbidden]

    def contains_factor(word):
        for f in forbidden:
            k = len(f)
            if any(word[s:s + k] == f for s in range(len(word) - k + 1)):
                return True
        return False

    count = 0
    stack = [()]
    while stack:
        w = stack.pop()
        if len(w) == degree:
            count += 1
            continue
        for x in variables:
            nw = w + (x,)
            if not contains_factor(nw):
                stack.append(nw)
    return count
