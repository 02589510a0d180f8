"""The ``brute`` engine: normal forms counted by building them.

``brute`` is the independent oracle for ``dp``.  It explicitly builds every
normal form below the top weight by composing smaller normal forms (sound
because every submonomial of a normal form is normal, so only a
root-anchored divisor can appear when a fresh root is added).  It keeps
each weight level in buckets keyed by (root mask, arity), where the mask
has one bit per distinct non-leaf relation child matching at the tree's
root, found with ``matches_at_root`` on the built trees (its only
per-tree root test), so the root check runs once per tuple of child
buckets instead of once per candidate tree.  A relation child whose
children are all leaves matches at every root with its label, by
``matches_at_root``'s own rule that leaf positions impose no constraint,
so its bit comes from the generator.  The top weight, which no heavier
level takes as children, is counted from the accepted bucket tuples (the
product of their sizes) and not built; no crown or grammar enters, so
``brute`` stays independent of ``dp``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Optional

from .monomial import _gc_paused
from .trees import LEAF, _fast_node, matches_at_root

if TYPE_CHECKING:
    from .monomial import MonomialOperadPresentation
    from .trees import Alphabet

_bucket = itemgetter(0)


def _root_buckets(nslots: int, rels: list, weight: int, sizes: list[dict],
                  max_arity: Optional[int]) -> list[tuple]:
    """Bucket tuples, one bucket per child slot and of total weight
    ``weight``, over which no relation in ``rels`` matches at the root: each
    as its buckets' (weight, (mask, arity)) keys, the arity its trees share
    and their number, the product of the bucket sizes in ``sizes``.

    A relation is (one required mask per slot, slots up to its last
    non-leaf child); a child fits a slot when its mask holds the required
    bits, so the relations alive after a slot are those every earlier child
    fits, and one whose remaining slots are all leaves rejects every
    completion.
    """
    out: list[tuple] = []
    acc: list[tuple] = []

    def rec(slot: int, remaining: int, arity: int, count: int, alive: list) -> None:
        rest = nslots - slot - 1
        for w1 in range(remaining + 1) if rest else (remaining,):
            for key, n in sizes[w1].items():
                mask, a = key
                if max_arity is not None and arity + a + rest > max_arity:
                    continue
                still = [(need, end) for need, end in alive if need[slot] & mask == need[slot]]
                if any(end <= slot + 1 for _, end in still):
                    continue
                acc.append((w1, key))
                if rest:
                    rec(slot + 1, remaining - w1, arity + a, count * n, still)
                else:
                    out.append((tuple(acc), arity + a, count * n))
                acc.pop()

    rec(0, weight, 0, 1, rels)
    return out


def _mask(base: int, root_tests: list, t) -> int:
    """``base`` plus the bits of the relation children in ``root_tests``
    that match at ``t``'s root."""
    for pattern, bit in root_tests:
        if matches_at_root(pattern, t):
            base |= bit
    return base


def _level(alphabet: Alphabet, groups: list, tests: dict, trees: list) -> Iterator[tuple]:
    """(bucket key, tree) for each normal form of the accepted groups, whose
    child buckets are read from ``trees``; the key is (root mask, arity),
    and ``tests[g]`` holds the base mask and root tests of a g-rooted tree.

    Children are normal forms, so only a root-anchored relation match needs
    checking; every tree is distinct because (root label, child tuple)
    determines it.
    """
    for g, slots, arity, _ in groups:
        base, root_tests = tests[g]
        for children in product(*[trees[w][key] for w, key in slots]):
            t = _fast_node(alphabet, g, children)
            yield (_mask(base, root_tests, t), arity), t


def _hung_sizes(alphabet: Alphabet, groups: list, lighter: list, tests: dict,
                trees: list) -> Counter:
    """Bucket sizes of the level whose accepted groups are ``groups``, when
    the level just below it, whose groups are ``lighter``, kept no trees.

    A group reads that level in at most one slot, and then every other
    slot is a leaf, since the child weights sum to its weight.  Such groups
    are collected by the bucket they read, with the leaves before and after
    that slot; the lighter level is rebuilt once, and each rebuilt tree
    hangs in every slot that reads its bucket.
    """
    heavy = len(trees) - 1  # the lighter level's weight
    hung: dict = {}
    rest = []
    for g, slots, arity, n in groups:
        i = next((i for i, (w, _) in enumerate(slots) if w == heavy), None)
        if i is None:
            rest.append((g, slots, arity, n))
        else:
            hung.setdefault(slots[i][1], []).append(
                (g, tests[g], (LEAF,) * i, (LEAF,) * (len(slots) - i - 1), arity))
    sizes = Counter(map(_bucket, _level(alphabet, rest, tests, trees)))
    for key, t in _level(alphabet, lighter, tests, trees):
        for g, (base, root_tests), before, after, arity in hung.get(key, ()):
            u = _fast_node(alphabet, g, (*before, t, *after))
            sizes[_mask(base, root_tests, u), arity] += 1
    return sizes


def _brute_counts(p: MonomialOperadPresentation, max_weight: int,
                  max_arity: Optional[int] = None) -> list[Counter]:
    """Nontrivial normal forms counted by arity, one Counter per weight
    1..max_weight, each summed from its accepted groups ``(generator, child
    buckets, arity, size)``, one bucket (weight, (mask, arity)) per slot.

    Each distinct non-leaf child of a relation gets one bit, and a built
    normal form's root mask holds the bits of those it matches at the root
    (a leaf's mask is 0).  A relation rooted at g is then one required bit
    per slot, and the root check runs once per bucket tuple, not once per
    candidate tree.  A group's size is the product of its child buckets'
    sizes, which every built level records.

    With a top weight W, only levels 1..W-3 keep their trees.  Level W-2 is
    built and counted one tree at a time, then rebuilt once into the groups
    of level W-1 that read it (see ``_hung_sizes``); level W-1 is counted
    one tree at a time, and level W is not built: its groups' sizes count
    it.
    """
    bits: dict = {}
    for r in p.relations:
        for c in r.children:
            if c is not LEAF:
                bits.setdefault(c, 1 << len(bits))
    roots = []
    tests = {}
    for g in p.alphabet.generators:
        needs = [tuple(0 if c is LEAF else bits[c] for c in r.children)
                 for r in p.relations if r.generator == g]
        rels = [(need, max((i + 1 for i, b in enumerate(need) if b), default=0))
                for need in needs]
        roots.append((g, rels))
        # a child of weight 1 has only leaves below it: it matches every g root
        tests[g] = (sum(b for c, b in bits.items() if c.generator == g and c.weight == 1),
                    [(c, b) for c, b in bits.items() if c.generator == g and c.weight > 1])
    sizes: list[dict] = [{(0, 1): 1}]
    trees: list[Optional[dict]] = [{(0, 1): [LEAF]}]
    counts = []
    lighter: list = []
    for w in range(1, max_weight + 1):
        groups = [(g, slots, arity, n) for g, rels in roots
                  for slots, arity, n in _root_buckets(g.arity, rels, w - 1, sizes, max_arity)]
        per_arity: Counter = Counter()
        for _, _, arity, n in groups:
            per_arity[arity] += n
        counts.append(per_arity)
        if w == max_weight:
            break
        kept: Optional[dict] = None
        with _gc_paused():
            if w < max_weight - 2:
                kept = {}
                for key, t in _level(p.alphabet, groups, tests, trees):
                    kept.setdefault(key, []).append(t)
                level: dict = {key: len(ts) for key, ts in kept.items()}
            elif w == max_weight - 1 and w > 1:
                level = _hung_sizes(p.alphabet, groups, lighter, tests, trees)
            else:  # level W-2, or level 1 = W-1, whose children are leaves
                level = Counter(map(_bucket, _level(p.alphabet, groups, tests, trees)))
        sizes.append(level)
        trees.append(kept)
        lighter = groups
    return counts
