"""The sort key that fixes the order of relations, normal forms and crowns.

Monomial relations are already a Gröbner basis, so no leading-monomial
machinery is needed: the order only has to be total and deterministic.
Tree monomials compare by leaf count first (more leaves is larger), then by
their path words, each word by length and then letter by letter in the
alphabet's declaration order.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Iterable

from .trees import Alphabet, TreeMonomial, to_path_sequence


class TreeOrder:
    """The path-sequence order on the tree monomials over one alphabet."""

    __slots__ = ("_rank",)

    def __init__(self, alphabet: Alphabet) -> None:
        self._rank = alphabet._rank

    def key(self, t: TreeMonomial):
        """A sort key: key(t1) < key(t2) iff t1 is smaller than t2."""
        rank = self._rank
        words = to_path_sequence(t)
        return (len(words), tuple((len(w), tuple(rank[x] for x in w)) for w in words))

    def by_weight(self, trees: Iterable[TreeMonomial]) -> list[TreeMonomial]:
        """``trees`` sorted by (weight, key), computing keys only to order
        trees of equal weight: a key costs O(h^2) on a tree h levels tall."""
        weight = attrgetter("weight")
        ordered = []
        for _, group in groupby(sorted(trees, key=weight), weight):
            group = list(group)
            if len(group) > 1:
                group.sort(key=self.key)
            ordered += group
        return ordered
