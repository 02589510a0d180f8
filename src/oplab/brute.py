"""The ``brute`` engine: normal forms counted by building them.

``brute`` is the independent oracle for ``dp``.  It explicitly builds every
normal form below the top weight W by composing smaller normal forms (sound
because every submonomial of a normal form is normal, so only a
root-anchored divisor can appear when a fresh root is added), and builds
each of them exactly once.  Each weight level is counted in buckets keyed
by (root mask, arity), where the mask has one bit per distinct non-leaf
relation child matching at the tree's root, found with ``matches_at_root``
on the built trees (its only per-tree root test), so the root check runs
once per tuple of child buckets instead of once per candidate tree.  A
relation child whose children are all leaves matches at every root with
its label, by ``matches_at_root``'s own rule that leaf positions impose no
constraint, so its bit comes from the generator.

One loop runs over the levels 1..W-1 and builds each level's groups over
the kept buckets.  Only the light levels 1..S-1 keep their trees, S
chosen from the input (see ``_brute_counts``); from level S on each tree
is walked depth first, at most W-S levels deep: it is counted into its
bucket, hung at once as a child into every heavier group below W that
reads its bucket, and dropped.  With S > (W-2)//2 a group below W reads
at most one walked tree, since two would weigh more than W-2, so hanging
one tree in one slot next to kept buckets builds every tree of the walked
levels; a tree of level W-1 has no such group and is only counted.  The
top weight, which no heavier level takes as children, is counted from the
accepted bucket tuples (the product of their sizes) and not built; no
crown or grammar enters, so ``brute`` stays independent of ``dp``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import TYPE_CHECKING, Optional

from .monomial import _gc_paused
from .trees import LEAF, _fast_node, matches_at_root

if TYPE_CHECKING:
    from .monomial import MonomialOperadPresentation


class _Root:
    """The relations rooted at one generator, each one required mask per
    slot, as bits over their indices: ``ends[slot]`` holds those with no
    required bit after ``slot``, and ``fits[slot]`` maps a child mask to
    those whose required bits at ``slot`` it holds, filled in on first use
    by ``_root_buckets``.  ``base`` and ``tests`` give a built tree its mask.
    """

    def __init__(self, g, relations, bits: dict) -> None:
        self.generator = g
        self.needs = [tuple(0 if c is LEAF else bits[c] for c in r.children)
                      for r in relations if r.generator == g]
        self.ends = [sum(1 << i for i, need in enumerate(self.needs) if not any(need[slot + 1:]))
                     for slot in range(g.arity)]
        self.fits: list[dict] = [{} for _ in range(g.arity)]
        # a child of weight 1 has only leaves below it: it matches every g root
        self.base = sum(b for c, b in bits.items() if c.generator == g and c.weight == 1)
        self.tests = [(c, b) for c, b in bits.items() if c.generator == g and c.weight > 1]

    def mask(self, t) -> int:
        """``base`` plus the bits of the ``tests`` that match at ``t``'s root."""
        mask = self.base
        for pattern, bit in self.tests:
            if matches_at_root(pattern, t):
                mask |= bit
        return mask


def _root_buckets(root: _Root, weight: int, sizes: list[dict],
                  max_arity: Optional[int]) -> list[tuple]:
    """Bucket tuples, one bucket per child slot of ``root``'s generator and
    of total weight ``weight``, over which none of its relations matches at
    the root: each as its buckets' (weight, (mask, arity)) keys, the arity
    its trees share and their number, the product of the bucket sizes in
    ``sizes``.

    A child fits a slot when its mask holds the required bits, so the
    relations alive after a slot, one int of bits, are those every earlier
    child fits; one with no required bit left rejects every completion.
    The tuples grow one slot at a time, in order.
    """
    nslots = root.generator.arity
    partial: list[tuple] = [((), weight, 0, 1, (1 << len(root.needs)) - 1)]
    for slot, fits, ends in zip(range(nslots), root.fits, root.ends):
        rest = nslots - slot - 1
        grown = []
        for acc, remaining, arity, count, alive in partial:
            for w1 in range(remaining + 1) if rest else (remaining,):
                for key, n in sizes[w1].items():
                    mask, a = key
                    if max_arity is not None and arity + a + rest > max_arity:
                        continue
                    fit = fits.get(mask)
                    if fit is None:
                        fit = fits[mask] = sum(1 << i for i, need in enumerate(root.needs)
                                               if need[slot] & mask == need[slot])
                    still = alive & fit
                    if not still & ends:
                        grown.append(((*acc, (w1, key)), remaining - w1, arity + a, count * n,
                                      still))
        partial = grown
    return [(acc, arity, count) for acc, _, arity, count, _ in partial]


def _groups(roots: list, weight: int, sizes: list[dict], max_arity: Optional[int]) -> list:
    """The accepted groups ``(root, child buckets, arity, size)`` of level
    ``weight`` over the bucket sizes in ``sizes``."""
    return [(root, slots, arity, n) for root in roots
            for slots, arity, n in _root_buckets(root, weight - 1, sizes, max_arity)]


def _by_arity(counted) -> Counter:
    """Tree counts by arity from (arity, count) pairs."""
    per_arity: Counter = Counter()
    for arity, n in counted:
        per_arity[arity] += n
    return per_arity


def _hangers(roots: list, trees: list, sizes: list[dict], wkey: tuple,
             top: int, max_arity: Optional[int]) -> list[tuple]:
    """The groups of levels weight+1..top-1 that read bucket ``key`` of level
    ``weight``, ``wkey`` = (weight, *key): each as (root, the kept children
    before and after the bucket's slot, arity, level).

    They are found by ``_root_buckets`` over that one bucket and the kept
    buckets ``sizes`` light enough to sit beside it, so they pass the same
    acceptance rule as every other group.
    """
    weight, key = wkey[0], wkey[1:]
    out = []
    for heavier in range(weight + 1, top):
        light = heavier - weight  # the other slots weigh less, all kept
        view = [sizes[w] if w < light else {} for w in range(heavier)]
        view[weight] = {key: 1}
        for root, slots, arity, _ in _groups(roots, heavier, view, max_arity):
            i = next((i for i, (w, _) in enumerate(slots) if w == weight), None)
            if i is not None:
                pools = [trees[w][k] for w, k in slots[:i] + slots[i + 1:]]
                combos = [(kids[:i], kids[i:]) for kids in product(*pools)]
                out.append((root, combos, arity, heavier))
    return out


def _brute_counts(p: MonomialOperadPresentation, max_weight: int,
                  max_arity: Optional[int] = None) -> list[Counter]:
    """Nontrivial normal forms counted by arity, one Counter per weight
    1..max_weight: below the top weight from the bucket sizes of the built
    trees, and at it from its accepted groups ``(root, child buckets,
    arity, size)``, one bucket (weight, (mask, arity)) per slot.

    Each distinct non-leaf child of a relation gets one bit, and a built
    normal form's root mask holds the bits of those it matches at the root
    (a leaf's mask is 0).  A relation rooted at g is then one required bit
    per slot, and the root check runs once per bucket tuple, not once per
    candidate tree.  A group's size is the product of its child buckets'
    sizes.

    With a top weight W, one loop runs over the levels 1..W-1 and builds
    each level's groups over the kept buckets.  Levels 1..S-1 keep their
    trees; each tree of levels S..W-1 goes onto one depth-first stack,
    which counts it into its bucket, hangs it into every heavier group
    below W that reads its bucket (``_hangers``, looked up on the bucket's
    first tree, none at level W-1) and drops it.  So every tree below W is
    built exactly once, and the stack holds only the trees hung from the
    ones on the walk's path, at most W-S levels deep.  Level W is not
    built: its groups' sizes count it.  S > (W-2)//2, so a
    group below W reads at most one walked tree, in one slot, and kept
    buckets in the others.  S is the first level above (W-2)//2 whose tree
    count, the sum of its groups' sizes, exceeds (W-1-S) times the bucket
    keys kept so far: each walked bucket costs a ``_root_buckets`` lookup
    over the kept keys for each of the W-1-S heavier levels, so a level of
    few trees is cheaper to keep than to walk.  Level W-1 is walked
    whenever it holds a tree.
    """
    bits: dict = {}
    for r in p.relations:
        for c in r.children:
            if c is not LEAF:
                bits.setdefault(c, 1 << len(bits))
    roots = [_Root(g, p.relations, bits) for g in p.alphabet.generators]
    top = max_weight
    sizes: list[dict] = [{(0, 1): 1}]
    trees: list[dict] = [{(0, 1): [LEAF]}]
    keys = 1
    walk = False
    walked: dict = {}  # (weight, mask, arity) -> [tree count, hangers]
    stack: list = []
    with _gc_paused():
        for w in range(1, top):
            groups = _groups(roots, w, sizes, max_arity)
            walk = walk or (w > (top - 2) // 2
                            and sum(n for *_, n in groups) > (top - 1 - w) * keys)
            kept: dict = {}
            for root, slots, arity, _ in groups:
                for children in product(*[trees[sw][key] for sw, key in slots]):
                    t = _fast_node(p.alphabet, root.generator, children)
                    key = root.mask(t), arity
                    if not walk:
                        kept.setdefault(key, []).append(t)
                        continue
                    stack.append((t, (w, *key)))
                    while stack:
                        t, wkey = stack.pop()
                        entry = walked.get(wkey)
                        if entry is None:
                            entry = walked[wkey] = [
                                0, _hangers(roots, trees, sizes, wkey, top, max_arity)]
                        entry[0] += 1
                        for root2, combos, arity2, heavier in entry[1]:
                            for before, after in combos:
                                u = _fast_node(p.alphabet, root2.generator, (*before, t, *after))
                                stack.append((u, (heavier, root2.mask(u), arity2)))
            # a walked level's buckets stay empty here, so only kept ones are read
            sizes.append({key: len(ts) for key, ts in kept.items()})
            trees.append(kept)
            keys += len(kept)
    for (w, *key), (n, _) in walked.items():
        sizes[w][tuple(key)] = n
    levels = [((arity, n) for (_, arity), n in level.items()) for level in sizes[1:]]
    if top >= 1:
        levels.append((arity, n) for _, _, arity, n in _groups(roots, top, sizes, max_arity))
    return [_by_arity(level) for level in levels]
