"""Finitely presented nonsymmetric monomial operads.

A presentation is an alphabet plus a finite set of forbidden tree monomials
(the relations, which are trivially a Groebner-Shirshov basis of the
monomial ideal they generate).  Normal forms are the monomials no relation
divides; this module enumerates them, computes dimension sequences indexed
by arity or weight, and runs the linear-growth dichotomy check on the
weight-indexed counts.

``enumerate_irr`` builds each weight level from the lighter ones and
root-tests every candidate with ``matches_at_root`` against the relations
rooted at its generator (sound because every submonomial of a normal form
is normal, so only a root-anchored divisor can appear when a fresh root is
added).  Two engines only count.  ``brute``, the independent oracle in
:mod:`oplab.brute`, builds the normal forms below the top weight.  ``dp``
compiles the presentation once into a crown grammar, rules ``crown <-
g(k_1..k_m)`` whose crowns are the sets of relation subtrees matching at a
tree's root (all a root-anchored relation match can see of a child), then
counts over the rules with one graded convolution ``F_c[d] = sum over
rules of sum_{d_1+..+d_m = d-deg g} prod F_{k_i}[d_i]`` (deg g = 1 by
weight, arity(g)-1 by arity): an explicit algebraic system for the series.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .dims import ENGINES, DimSeries, FileSyntaxError, Frozen, directives
from .order import TreeOrder
from .trees import (
    LEAF,
    Alphabet,
    AlphabetMismatchError,
    Generator,
    TreeMonomial,
    _fast_node,
    divides,
    format_monomial,
    matches_at_root,
    parse_monomial,
)

GROWTH_BOUNDED = "bounded"
GROWTH_LINEAR = "linear"
GROWTH_SUPERLINEAR = "superlinear_witness"


class PresentationError(ValueError):
    """Base class for presentation errors."""


class CompletenessError(PresentationError):
    """Arity-indexed counts need a weight cap when unary generators exist,
    since an arity class can then be infinite."""


class PresentationSyntaxError(FileSyntaxError, PresentationError):
    """A presentation file failed to parse; carries the offending line."""


class MonomialOperadPresentation(Frozen):
    """Alphabet plus a self-reduced set of forbidden tree monomials.

    Relations divisible by another relation are dropped at construction;
    this never changes the set of normal forms.  An empty relation set
    presents the free operad.
    """

    __slots__ = ("alphabet", "relations", "name", "_order")
    _fields = ("alphabet", "relations", "name")

    def __init__(self, alphabet: Alphabet, relations: Iterable[TreeMonomial] = (),
                 name: Optional[str] = None) -> None:
        rels = []
        for r in relations:
            if not isinstance(r, TreeMonomial):
                raise PresentationError(f"relation must be a TreeMonomial, got {type(r).__name__}")
            if r.is_trivial:
                raise PresentationError("the trivial monomial cannot be a relation")
            if r.alphabet != alphabet:
                raise AlphabetMismatchError("relation uses a different alphabet")
            rels.append(r)
        order = TreeOrder(alphabet)
        rels = order.by_weight(set(rels))
        kept: list[TreeMonomial] = []
        for r in rels:
            # a strictly smaller divisor sorts earlier, so one pass suffices
            if not any(divides(s, r) for s in kept):
                kept.append(r)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "relations", tuple(kept))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_order", order)

    def _key(self):  # without the name: equal presentations share one verdict
        return self.alphabet, self.relations

    @property
    def max_relation_height(self) -> int:
        return max((r.height for r in self.relations), default=1)

    def __repr__(self) -> str:
        label = self.name or "presentation"
        gens = ",".join(f"{g.name}:{g.arity}" for g in self.alphabet.generators)
        return f"<{label} [{gens}] with {len(self.relations)} relations>"


def is_normal_form(p: MonomialOperadPresentation, t: TreeMonomial) -> bool:
    """True when no relation divides ``t``."""
    if t.alphabet != p.alphabet:
        raise AlphabetMismatchError("monomial uses a different alphabet")
    return not any(divides(r, t) for r in p.relations)


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore its state: the trees
    hold no cycles, and each collection would walk every tree built so far."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _child_combos(nslots: int, weight: int, levels: list) -> Iterator[tuple]:
    """All slot tuples of total weight ``weight``, slot by slot, by weight, then
    by position in the level: a slot of weight w holds an entry of ``levels[w]``;
    the leaf, alone in ``levels[0]``, fills the open slots once the weight is spent."""
    def choices(left: int, last: bool) -> Iterator[tuple]:  # (weight left after, entry)
        return ((left - w, m) for w in ((left,) if last else range(left + 1)) for m in levels[w])
    leaf, = levels[0]
    acc: list = []  # the entries of the filled slots
    stack = [choices(weight, nslots == 1)]  # per filled slot, its untried choices
    while stack:
        for rest, m in stack[-1]:
            acc[len(stack) - 1:] = [m]
            if rest:  # never on the last slot, which takes all that is left
                stack.append(choices(rest, len(acc) == nslots - 1))
                break
            yield (*acc, *[leaf] * (nslots - len(acc)))
        else:
            stack.pop()


def enumerate_irr(p: MonomialOperadPresentation, max_weight: int) -> Iterator[TreeMonomial]:
    """Stream every normal form of weight <= max_weight exactly once.

    Deterministic order: by weight, then by the path-sequence order.  Level
    w holds every ``g(k_1..k_m)`` over normal-form children of total weight
    w - 1 that no relation rooted at g matches at the root (children are
    normal, so only a root-anchored match can appear), sorted by that order.
    """
    if max_weight < 0:
        raise PresentationError("max_weight must be nonnegative")
    yield TreeMonomial.trivial(p.alphabet)
    rooted = [(g, [r for r in p.relations if r.generator == g]) for g in p.alphabet.generators]
    levels: list[list] = [[LEAF]]
    for w in range(1, max_weight + 1):
        with _gc_paused():
            level = []
            for g, rels in rooted:
                for kids in _child_combos(g.arity, w - 1, levels):
                    t = _fast_node(p.alphabet, g, kids)
                    if not any(matches_at_root(r, t) for r in rels):
                        level.append(t)
            level.sort(key=p._order.key)
        levels.append(level)
        yield from level


# ---------------------------------------------------------------------------
# dp engine: compiled crown grammar, counted by graded convolution
# ---------------------------------------------------------------------------

LEAF_ID = -1  # a leaf child in a compiled rule


class CrownGrammar(NamedTuple):
    crowns: tuple  # per crown, the relation subtrees that match at its root
    rules: tuple  # (crown index, generator, child crown indices or LEAF_ID)


def compile_grammar(p: MonomialOperadPresentation,
                    max_weight: Optional[int] = None) -> CrownGrammar:
    """Find the rules ``crown <- g(k_1..k_m)`` of ``p``, starting from "leaf only".

    A relation matching at a root sees a child only through the relation
    subtrees that match at the child's root, so a crown is that set (a leaf
    matches none).  A rule exists when no relation rooted at g matches over
    the child crowns, so each nontrivial normal form derives by exactly one
    rule.  Rules are found by weight (1 plus the children's least weights),
    so each crown first appears at its least weight; rules above
    ``max_weight`` derive no tree that light and are never built.  A count
    by arity passes the heaviest weight a tree of its arities can have (see
    :func:`_graded_counts`).
    """
    # a relation heavier than max_weight matches no tree that light
    rels = [r for r in p.relations if max_weight is None or r.weight <= max_weight]
    subtrees = p._order.by_weight({t for r in rels for t in r.internal_nodes() if t is not r})
    ids = {t: q for q, t in enumerate(subtrees)}

    def needs(t: TreeMonomial) -> list:  # (slot, subtree id) per non-leaf child
        return [(i, ids[c]) for i, c in enumerate(t.children) if c is not LEAF]

    gens = [(g, [needs(r) for r in rels if r.generator == g],
             [(q, needs(t)) for q, t in enumerate(subtrees) if t.generator == g])
            for g in p.alphabet.generators]
    by_weight: list[list] = [[(LEAF_ID, ())]]  # (index, crown) by least weight
    index: dict = {}  # crown -> its index
    rules = []
    d = deepest = 0
    # a rule's weight is at most 1 + max_arity * (the heaviest least weight of a crown)
    while d < p.alphabet.max_arity * deepest + 1 and (max_weight is None or d < max_weight):
        d += 1
        level = []
        for g, rel_needs, tests in gens:
            for kids in _child_combos(g.arity, d - 1, by_weight):
                sets = [k[1] for k in kids]
                if any(all(c in sets[i] for i, c in need) for need in rel_needs):
                    continue
                crown = frozenset(q for q, need in tests if all(c in sets[i] for i, c in need))
                if crown not in index:
                    index[crown] = len(index)
                    level.append((index[crown], crown))
                rules.append((index[crown], g, tuple(k[0] for k in kids)))
        by_weight.append(level)
        deepest = d if level else deepest
    return CrownGrammar(tuple(tuple(subtrees[q] for q in sorted(k)) for k in index), tuple(rules))


class _ArityPoly(tuple):
    """Counts indexed by arity-1, truncated to a fixed length: the coefficient
    ring when a weight cap, not the arity, bounds arity-indexed counts."""

    def __add__(self, other):
        return _ArityPoly(map(add, self, other))

    def __mul__(self, other):
        out = [0] * len(self)
        for i, a in enumerate(self):
            for j, b in enumerate(other[:len(self) - i] if a else ()):
                out[i + j] += a * b
        return _ArityPoly(out)


def _graded_counts(p: MonomialOperadPresentation, n: int, shift, coef=None,
                   one=1, zero=0) -> list:
    """Coefficients 0..n of the series of all nontrivial normal forms.

    Each distinct term x^shift(g) * F_k1..F_km of F_c (children a sorted
    multiset, leaves dropped) is counted once, with the sum of coef(g) over
    the rules ``c <- g(k_1..k_m)`` that give it (coef defaults to ``one``, a
    leaf's series).  A tree's degree is at least its weight times the least
    shift(g) >= 1, so the grammar up to weight n // (least shift) holds
    every term up to degree n: all n by weight, and by arity n // (least
    arity - 1).  Child products share their prefixes, which keep running
    series, so a degree costs O(n) per factor.
    """
    grammar = compile_grammar(p, n // min(map(shift, p.alphabet.generators)))
    series = [[zero] for _ in grammar.crowns]
    terms: list[dict] = [{} for _ in series]  # per crown, (shift, child crowns) -> coefficient
    for c, g, children in grammar.rules:
        key = (shift(g), tuple(sorted(k for k in children if k != LEAF_ID)))
        terms[c][key] = terms[c].get(key, zero) + (one if coef is None else coef(g))
    prods: dict = {(): [one] + [zero] * n, **{(i,): f for i, f in enumerate(series)}}
    chains = []
    for key in sorted({k[:j] for t in terms for _, k in t for j in range(2, len(k) + 1)}, key=len):
        prods[key] = [zero]
        chains.append((prods[key], prods[key[:-1]], series[key[-1]]))
    sums = [[(e, a, prods[key]) for (e, key), a in t.items()] for t in terms]
    for d in range(1, n + 1):
        for f, s in zip(series, sums):
            f.append(sum((a * prod[d - e] for e, a, prod in s if e <= d), zero))
        for out, prefix, last in chains:
            out.append(sum(map(mul, prefix[:d], last[d:0:-1]), zero))
    return [sum((f[d] for f in series), zero) for d in range(n + 1)]


def _engine(engine: str) -> str:
    if engine not in ENGINES:
        raise PresentationError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    return engine


def dim_by_arity(p: MonomialOperadPresentation, max_arity: int, engine: str = "dp",
                 weight_cap: Optional[int] = None) -> DimSeries:
    """Count normal forms by arity up to ``max_arity``.

    Each node adds at least (least generator arity - 1) to arity - 1, so the
    counts read only the weights up to (max_arity - 1) // (least arity - 1),
    and they are exact unless ``weight_cap`` lies below that bound.  With a
    unary generator there is no such bound and an arity class can be
    infinite, and the engine does not yet decide whether one is; the caller
    must pass ``weight_cap`` and the result is flagged inexact, even when
    the cap is large enough to give the exact counts.
    """
    if max_arity < 0:
        raise PresentationError("max_arity must be nonnegative")
    step = min(g.arity for g in p.alphabet.generators) - 1  # the least a node adds to arity-1
    if not step and weight_cap is None:
        raise CompletenessError(
            "alphabet has a unary generator: arity-indexed counts need weight_cap")
    full = max(0, max_arity - 1) // step if step else math.inf  # the heaviest weight read
    max_weight = full if weight_cap is None else min(weight_cap, full)
    exact = max_weight >= full
    # nontrivial[e]: nontrivial normal forms of arity e+1
    if _engine(engine) == "brute":
        from .brute import _brute_counts

        nontrivial = [0] * max_arity
        for per_arity in _brute_counts(p, max_weight, max_arity):
            for n, c in per_arity.items():
                nontrivial[n - 1] += c
    elif exact:  # g adds arity(g)-1 to arity-1
        nontrivial = _graded_counts(p, max_arity - 1, lambda g: g.arity - 1)
    else:  # graded by weight, which the cap truncates; coefficients by arity-1
        def x(e: int) -> _ArityPoly:  # x^e; zero for e < 0
            return _ArityPoly(int(i == e) for i in range(max_arity))
        by_weight = _graded_counts(p, max(max_weight, 0), lambda g: 1,
                                   lambda g: x(g.arity - 1), x(0), x(-1))
        nontrivial = [sum(col) for col in zip(*by_weight)]
    values = [0] + [c + (e == 0) for e, c in enumerate(nontrivial)]  # + the trivial monomial
    return DimSeries(tuple(values), "arity", exact=exact)


def dim_by_weight(p: MonomialOperadPresentation, max_weight: int,
                  engine: str = "dp") -> DimSeries:
    """Count normal forms by weight up to ``max_weight`` (always exact)."""
    if max_weight < 0:
        raise PresentationError("max_weight must be nonnegative")
    if _engine(engine) == "brute":
        from .brute import _brute_counts

        nontrivial = [0] + [sum(per_arity.values()) for per_arity in _brute_counts(p, max_weight)]
    else:
        nontrivial = _graded_counts(p, max_weight, lambda g: 1)
    return DimSeries((1, *nontrivial[1:]), "weight", exact=True)


# ---------------------------------------------------------------------------
# growth dichotomy
# ---------------------------------------------------------------------------

class GapDichotomyReport(NamedTuple):
    """Outcome of the linear-growth dichotomy check on weight counts.

    ``criterion_d`` is the first d >= 3 whose weight-d count is <= d-3, if
    any; when present the partial sums must stay under an affine bound
    fitted on the tail (``affine_fit`` = (A, B, D), the line
    y = (A*n + B)/D with D > 0; ``first_violation`` = first index exceeding
    the fit by more than max(5, 10%), expected None).
    """

    criterion_d: Optional[int]
    growth_class: str
    weight_counts: DimSeries
    partial_sums: DimSeries
    affine_fit: Optional[tuple[int, int, int]]
    first_violation: Optional[int]


def _affine_fit(points: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Exact least-squares line through integer points, as integers (A, B, D)
    with y = (A*n + B)/D and D > 0: slope (k*sxy - sx*sy)/den and offset
    (sy - slope*sx)/k over the common denominator k*den."""
    k = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    den = k * sxx - sx * sx
    if den == 0:
        return 0, sy, k
    num = k * sxy - sx * sy
    return k * num, sy * den - num * sx, k * den


def gap_dichotomy_check(p: MonomialOperadPresentation, max_weight: int) -> GapDichotomyReport:
    """Check the eventual-linear-growth criterion on weight-indexed counts.

    If some d >= 3 has weight-d count <= d-3, the partial sums must be
    bounded by an affine function; the report fits one by least squares on
    the last third and flags the first point exceeding it by more than
    max(5, 10%).  Otherwise the weight counts themselves are returned as a
    superlinear witness.
    """
    if max_weight < 6:
        raise PresentationError("gap dichotomy needs max_weight >= 6")
    wc = dim_by_weight(p, max_weight)
    sums = wc.partial_sums()
    criterion_d = next((d for d in range(3, max_weight + 1) if wc[d] <= d - 3), None)

    first_zero = next((w for w in range(1, max_weight + 1) if wc[w] == 0), None)
    if first_zero is not None and any(wc[w] != 0 for w in range(first_zero, max_weight + 1)):
        raise AssertionError("weight counts revived after extinction; enumeration bug")

    if criterion_d is None:
        return GapDichotomyReport(None, GROWTH_SUPERLINEAR, wc, DimSeries(sums, "weight"), None, None)

    growth = GROWTH_BOUNDED if wc[max_weight] == 0 else GROWTH_LINEAR
    fit = _affine_fit([(n, sums[n]) for n in range(2 * max_weight // 3, max_weight + 1)])
    return GapDichotomyReport(criterion_d, growth, wc, DimSeries(sums, "weight"),
                              fit, _first_violation(sums, *fit))


def _first_violation(sums: Sequence[int], a: int, b: int, d: int) -> Optional[int]:
    """The first n with sums[n] - (a*n + b)/d > max(5, |a*n + b|/(10*d)), or
    None (d > 0); both sides are scaled by 10*d to integers."""
    return next((n for n, s in enumerate(sums) if 10 * (s * d - a * n - b)
                 > max(50 * d, abs(a * n + b))), None)


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------

def parse_presentation(text: str, name: Optional[str] = None) -> MonomialOperadPresentation:
    """Parse ``name``, ``generator <id> <arity>`` and ``relation <literal>`` lines
    as :func:`oplab.dims.directives` reads them, or raise :class:`PresentationSyntaxError`."""
    gens: dict[str, Generator] = {}
    relation_lines: list[tuple[int, str, str]] = []
    label = name
    for lineno, raw, keyword, rest in directives(text):
        if keyword == "generator":
            fields = rest.split()
            if len(fields) != 2 or not fields[1].isdigit():
                raise PresentationSyntaxError(lineno, raw, "expected 'generator <id> <arity>'")
            if fields[0] in gens:
                raise PresentationSyntaxError(lineno, raw, "generator declared twice")
            try:
                gens[fields[0]] = Generator(fields[0], int(fields[1]))
            except ValueError as exc:
                raise PresentationSyntaxError(lineno, raw, str(exc)) from None
        elif keyword == "relation":
            if not rest:
                raise PresentationSyntaxError(lineno, raw, "expected 'relation <tree literal>'")
            relation_lines.append((lineno, raw, rest))
        elif keyword == "name":
            label = rest or None
        else:
            raise PresentationSyntaxError(lineno, raw, f"unknown directive {keyword!r}")
    if not gens:
        raise PresentationSyntaxError(0, "", "presentation declares no generators")
    alphabet = Alphabet(tuple(gens.values()))
    relations = []
    for lineno, raw, literal in relation_lines:
        try:
            r = parse_monomial(literal, alphabet)
        except ValueError as exc:
            raise PresentationSyntaxError(lineno, raw, str(exc)) from None
        if r.is_trivial:
            raise PresentationSyntaxError(lineno, raw, "the trivial monomial cannot be a relation")
        relations.append(r)
    return MonomialOperadPresentation(alphabet, relations, name=label)


def format_presentation(p: MonomialOperadPresentation) -> str:
    """Canonical text form (parses back to an equal presentation)."""
    lines = []
    if p.name:
        lines.append(f"name {p.name}")
    for g in p.alphabet.generators:
        lines.append(f"generator {g.name} {g.arity}")
    for r in p.relations:
        lines.append(f"relation {format_monomial(r)}")
    return "\n".join(lines) + "\n"
