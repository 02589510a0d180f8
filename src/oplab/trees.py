"""Labeled planar rooted trees and their grafting calculus.

A tree monomial is a planar rooted tree whose internal vertices carry
operation symbols of matching arity; together with the trivial (identity)
monomial these are the monomial basis of a free nonsymmetric operad.
Grafting one tree onto a leaf of another is the partial composition, and
the tuple of root-to-leaf label words (the path sequence) determines a
tree monomial uniquely.

All values here are immutable after construction (a tree monomial only
caches its hash on first use) and every operation is a pure function, so
everything is safe to share across threads.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Sequence

from .dims import Frozen


class TreeError(ValueError):
    """Base class for tree construction and query errors."""


class LeafIndexError(TreeError):
    """A composition index fell outside 1..arity."""


class AlphabetMismatchError(TreeError):
    """Two monomials over different alphabets were combined."""


class MalformedPathError(TreeError):
    """A path sequence is not realizable over the given alphabet."""


class DegenerateDivisorError(TreeError):
    """The trivial monomial was passed as a divisor (it divides everything)."""


class LiteralSyntaxError(TreeError):
    """A tree-monomial literal failed to parse."""


_RESERVED_CHARS = set("(),*#\"'")


class Generator(Frozen):
    """An operation symbol with a fixed arity >= 1."""

    __slots__ = _fields = ("name", "arity")

    def __init__(self, name: str, arity: int) -> None:
        if not name or not name.isprintable():
            raise TreeError(f"generator name must be nonempty printable, got {name!r}")
        if any(c.isspace() or c in _RESERVED_CHARS for c in name):
            raise TreeError(f"generator name {name!r} contains reserved characters")
        if name == "1":
            raise TreeError("generator name '1' is reserved for the trivial monomial")
        if not isinstance(arity, int) or arity < 1:
            raise TreeError(f"generator arity must be a positive integer, got {arity!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)


class Alphabet(Frozen):
    """A finite ordered collection of generators with unique names.

    Declaration order is the generator rank of the term order (:mod:`oplab.order`).
    """

    __slots__ = ("generators", "_by_name", "_rank")
    _fields = ("generators",)

    def __init__(self, generators: Sequence[Generator]) -> None:
        gens = tuple(generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise TreeError("alphabet must contain at least one generator")
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise TreeError("generator names must be unique within an alphabet")
        object.__setattr__(self, "_by_name", {g.name: g for g in gens})
        object.__setattr__(self, "_rank", {g.name: i for i, g in enumerate(gens)})

    @classmethod
    def of(cls, **arities: int) -> "Alphabet":
        """Convenience constructor: ``Alphabet.of(a=2, b=1)``."""
        return cls(tuple(Generator(n, k) for n, k in arities.items()))

    def __getitem__(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def has_unary(self) -> bool:
        return any(g.arity == 1 for g in self.generators)

    @property
    def max_arity(self) -> int:
        return max(g.arity for g in self.generators)

    def _key(self):
        return self.generators


#: Marker for a leaf position in a node's child tuple.
LEAF: Optional["TreeMonomial"] = None


class TreeMonomial:
    """The trivial monomial or a generator-labeled node with ordered children.

    Child slots hold :data:`LEAF` for leaves or nested nontrivial nodes.
    ``arity`` counts leaves, ``weight`` counts internal vertices, ``height``
    is the depth of the deepest internal vertex (0 for the trivial monomial,
    so weight == height characterizes single-branched monomials).
    """

    __slots__ = ("alphabet", "generator", "children", "arity", "weight", "height", "_hash")

    def __init__(
        self,
        alphabet: Alphabet,
        generator: Optional[Generator],
        children: Sequence[Optional["TreeMonomial"]] = (),
    ) -> None:
        children = tuple(children)
        if generator is None:
            if children:
                raise TreeError("the trivial monomial has no children")
            arity, weight, height = 1, 0, 0
        else:
            if alphabet._by_name.get(generator.name) != generator:
                raise AlphabetMismatchError(f"generator {generator.name!r} is not in the alphabet")
            if len(children) != generator.arity:
                raise TreeError(
                    f"{generator.name} has arity {generator.arity} but got {len(children)} children"
                )
            arity, weight, height = 0, 1, 1
            for c in children:
                if c is LEAF:
                    arity += 1
                    continue
                if not isinstance(c, TreeMonomial):
                    raise TreeError(f"child must be LEAF or TreeMonomial, got {type(c).__name__}")
                if c.generator is None:
                    raise TreeError("the trivial monomial cannot be a child; use compose instead")
                if c.alphabet != alphabet:
                    raise AlphabetMismatchError("child monomial uses a different alphabet")
                arity += c.arity
                weight += c.weight
                height = max(height, 1 + c.height)
        self.alphabet = alphabet
        self.generator = generator
        self.children = children
        self.arity = arity
        self.weight = weight
        self.height = height

    @classmethod
    def trivial(cls, alphabet: Alphabet) -> "TreeMonomial":
        return cls(alphabet, None)

    @classmethod
    def node(cls, alphabet: Alphabet, name: str) -> "TreeMonomial":
        """The node labeled by the named generator, with a leaf in every slot."""
        g = alphabet[name]
        return cls(alphabet, g, (LEAF,) * g.arity)

    @property
    def is_trivial(self) -> bool:
        return self.generator is None

    def internal_nodes(self) -> Iterator["TreeMonomial"]:
        """All internal vertices as subtree roots, in planar (preorder) order."""
        if self.generator is None:
            return
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(c for c in reversed(node.children) if c is not LEAF)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TreeMonomial):
            return NotImplemented
        # with equal weights, a match at the root leaves no vertex of either tree unmatched
        return (self.weight == other.weight and hash(self) == hash(other)
                and matches_at_root(self, other))

    def __reduce__(self):
        # rebuilt through the constructor: a cached hash depends on the hash seed
        return self.__class__, (self.alphabet, self.generator, self.children)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # computed on first use: most enumerated trees are never hashed
            pass
        # subtrees first, from an explicit stack: a tall tree must not hit the recursion limit
        stack = [self]
        while stack:
            node = stack[-1]
            todo = [c for c in node.children if c is not LEAF and not hasattr(c, "_hash")]
            if todo:
                stack += todo
            else:
                stack.pop()
                # LEAF and the trivial monomial's generator, both None, hash as 0:
                # up to CPython 3.11 hash(None) is an address, which no seed fixes
                node._hash = hash((node.generator or 0, *[c or 0 for c in node.children]))
        return self._hash

    def __repr__(self) -> str:
        return format_monomial(self)


def _fast_node(alphabet: Alphabet, generator: Generator,
               children: tuple) -> TreeMonomial:
    """Unvalidated node constructor for the enumeration engines.

    Callers guarantee a child tuple of the right length whose entries are
    LEAF or nontrivial monomials over the same alphabet.  Like every tree,
    the node computes its hash on first use, so trees that are only
    counted are never hashed.
    """
    t = object.__new__(TreeMonomial)
    arity, weight, height = 0, 1, 1
    for c in children:
        if c is None:
            arity += 1
        else:
            arity += c.arity
            weight += c.weight
            if c.height >= height:
                height = c.height + 1
    t.alphabet = alphabet
    t.generator = generator
    t.children = children
    t.arity = arity
    t.weight = weight
    t.height = height
    return t


def compose(t1: TreeMonomial, i: int, t2: TreeMonomial) -> TreeMonomial:
    """Partial composition: graft ``t2`` onto leaf ``i`` (1-based) of ``t1``.

    Arity adds as Ar(t1) + Ar(t2) - 1 and weights add; composing with the
    trivial monomial on either side returns the other argument unchanged.
    """
    if not isinstance(i, int) or not 1 <= i <= t1.arity:
        raise LeafIndexError(f"leaf index {i} out of range 1..{t1.arity}")
    if t1.alphabet != t2.alphabet:
        raise AlphabetMismatchError("cannot compose monomials over different alphabets")
    if t1.is_trivial:
        return t2
    if t2.is_trivial:
        return t1
    return _replace_leaf(t1, i, t2)


def _replace_leaf(node: TreeMonomial, i: int, repl: TreeMonomial) -> TreeMonomial:
    # down to leaf i, then the nodes on the way rebuilt bottom-up, from an
    # explicit list: a tall tree must not hit the recursion limit
    path = []  # (node, slot of the child on the way to leaf i)
    while node is not LEAF:
        for k, c in enumerate(node.children):
            size = 1 if c is LEAF else c.arity
            if i <= size:
                break
            i -= size
        else:
            raise AssertionError("leaf index bookkeeping failure")
        path.append((node, k))
        node = c
    for node, k in reversed(path):
        children = list(node.children)
        children[k] = repl
        repl = TreeMonomial(node.alphabet, node.generator, children)
    return repl


def to_path_sequence(t: TreeMonomial) -> tuple[tuple[str, ...], ...]:
    """Record, for each leaf in planar order, the labels from the root down.

    The trivial monomial's path sequence is a single empty word.
    """
    if t.is_trivial:
        return ((),)
    words: list[tuple[str, ...]] = []
    path: list[str] = []  # the labels from the root down to the current vertex
    stack: list = [(t, 0)]  # (subtree or LEAF, its depth), the next one on top
    while stack:
        node, depth = stack.pop()
        del path[depth:]
        if node is LEAF:
            words.append(tuple(path))
        else:
            path.append(node.generator.name)
            stack += [(c, depth + 1) for c in reversed(node.children)]
    return tuple(words)


def from_path_sequence(path: Sequence[Sequence[str]], alphabet: Alphabet) -> TreeMonomial:
    """Rebuild the unique tree monomial with the given path sequence.

    Raises :class:`MalformedPathError` when the words cannot be realized
    (unknown labels, arity bookkeeping failure, or inconsistent prefixes).
    """
    words = tuple(tuple(w) for w in path)
    if not words:
        raise MalformedPathError("a path sequence needs at least one word")
    if words[0] == ():
        if len(words) > 1:
            raise MalformedPathError("an empty word is only valid for the trivial monomial")
        return TreeMonomial.trivial(alphabet)

    # open nodes from an explicit stack, innermost last, each with the
    # children read so far: a tall tree must not hit the recursion limit.  The
    # node at stack index j has depth j, and words[pos], which passes through
    # every open node, starts the next subtree: a leaf when it ends there.
    stack: list[tuple[Generator, list]] = []
    pos = 0
    while True:
        depth, w = len(stack), words[pos]
        if len(w) > depth:
            name = w[depth]
            if name not in alphabet:
                raise MalformedPathError(f"unknown generator {name!r} in word {pos + 1}")
            stack.append((alphabet[name], []))
            continue
        tree, pos = LEAF, pos + 1
        while stack:  # a subtree is complete: add it, closing each node it fills
            g, children = stack[-1]
            children.append(tree)
            if len(children) < g.arity:
                break
            stack.pop()
            tree = TreeMonomial(alphabet, g, children)
        if not stack:
            break
        if pos >= len(words):
            raise MalformedPathError("ran out of words while filling child slots")
        name = stack[-1][0].name
        if len(words[pos]) < len(stack) or words[pos][len(stack) - 1] != name:
            raise MalformedPathError(f"word {pos + 1} does not pass through {name!r}")

    if pos != len(words):
        raise MalformedPathError(f"only {pos} of {len(words)} words were consumed")
    if to_path_sequence(tree) != words:
        raise MalformedPathError("words are not the path sequence of any tree monomial")
    return tree


def matches_at_root(d: TreeMonomial, t: TreeMonomial) -> bool:
    """True when ``d``'s labeled shape occurs anchored at ``t``'s root vertex.

    Leaf positions of ``d`` impose no constraint; internal positions must be
    internal in ``t`` with the same label.  Labels are compared by identity
    first, since the trees of one alphabet share its generators, and then by
    name and arity, inline: this is the hot label test of every tree walk.
    """
    dg, tg = d.generator, t.generator
    if dg is not tg and (dg is None or tg is None or dg.name != tg.name or dg.arity != tg.arity):
        return False
    # the child pairs of each matched vertex pair, from an explicit stack: a
    # tall tree must not hit the recursion limit
    stack = [zip(d.children, t.children)]
    while stack:
        for dc, tc in stack.pop():
            if dc is LEAF:
                continue
            if tc is LEAF:
                return False
            dg, tg = dc.generator, tc.generator
            if dg is not tg and (dg.name != tg.name or dg.arity != tg.arity):
                return False
            stack.append(zip(dc.children, tc.children))
    return True


def divides(d: TreeMonomial, t: TreeMonomial) -> bool:
    """True when some connected internal subtree of ``t`` carries ``d``'s labels."""
    if d.is_trivial:
        raise DegenerateDivisorError("the trivial monomial divides everything; refuse it")
    if d.alphabet != t.alphabet:
        raise AlphabetMismatchError("divisor and dividend use different alphabets")
    if t.is_trivial or d.weight > t.weight:
        return False
    return any(matches_at_root(d, v) for v in t.internal_nodes())


def submonomials(t: TreeMonomial, weight: Optional[int] = None) -> set[TreeMonomial]:
    """All distinct submonomials of ``t``, optionally restricted to one weight.

    A submonomial is determined by a nonempty set of internal vertices that
    is connected downward from a single top vertex; duplicates collapse
    because the result is a set of abstract tree monomials.
    """
    if t.is_trivial:
        raise TreeError("the trivial monomial has no submonomials")
    cap = t.weight if weight is None else weight
    out: set[TreeMonomial] = set()
    for anchor in t.internal_nodes():
        for sub in _anchored_submonomials(anchor, cap):
            if weight is None or sub.weight == weight:
                out.add(sub)
    return out


def _anchored_submonomials(node: TreeMonomial, cap: int, used: int = 1,
                           acc: tuple = ()) -> Iterator[TreeMonomial]:
    """All submonomials anchored at ``node`` with weight <= cap, after the
    filled slots ``acc``, which with the root weigh ``used``: each slot holds
    LEAF first, then each submonomial anchored at its child that fits."""
    if used > cap:
        return
    k = len(acc)
    if k == len(node.children):
        yield TreeMonomial(node.alphabet, node.generator, acc)
        return
    yield from _anchored_submonomials(node, cap, used, (*acc, LEAF))
    c = node.children[k]
    if c is not LEAF:
        for sub in _anchored_submonomials(c, cap - used):
            yield from _anchored_submonomials(node, cap, used + sub.weight, (*acc, sub))


def format_monomial(t: TreeMonomial) -> str:
    """Render in the literal grammar: ``1``, or ``gen(child,...)`` with ``*`` leaves."""
    if t.is_trivial:
        return "1"
    parts: list[str] = []
    stack: list = [t]  # subtrees, LEAF and literal text still to write, the next one on top
    while stack:
        item = stack.pop()
        if item is LEAF:
            parts.append("*")
        elif isinstance(item, str):
            parts.append(item)
        else:
            parts.append(f"{item.generator.name}(")
            stack.append(")")
            for k in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[k])
                if k:
                    stack.append(",")
    return "".join(parts)


def parse_monomial(text: str, alphabet: Alphabet) -> TreeMonomial:
    """Parse the literal grammar; whitespace is insignificant.

    Grammar::

        monomial := "1" | node
        node     := generator_id "(" child ("," child)* ")"
        child    := "*" | node
    """
    tokens = re.findall(r"[(),*]|[^\s(),*]+", text)
    if not tokens:
        raise LiteralSyntaxError("empty tree-monomial literal")
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise LiteralSyntaxError(f"unexpected end of literal {text!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise LiteralSyntaxError(f"expected {expected!r} but found {tok!r} in {text!r}")
        pos += 1
        return tok

    def open_node() -> tuple[str, list]:
        name = take()
        if name in "(),*":
            raise LiteralSyntaxError(f"expected generator name, found {name!r} in {text!r}")
        if name not in alphabet:
            raise LiteralSyntaxError(f"unknown generator {name!r} in {text!r}")
        take("(")
        return name, []

    if peek() == "1":
        take()
        result = TreeMonomial.trivial(alphabet)
    else:
        # open nodes from an explicit stack, innermost last, each with the
        # children read so far: a tall literal must not hit the recursion limit
        stack = [open_node()]
        while stack:
            if peek() != "*":
                stack.append(open_node())
                continue
            take()
            result = LEAF
            while stack:  # a child is complete: add it, closing each node whose ")" follows
                stack[-1][1].append(result)
                if peek() == ",":
                    take()
                    break
                take(")")
                name, children = stack.pop()
                try:
                    result = TreeMonomial(alphabet, alphabet[name], children)
                except TreeError as exc:
                    raise LiteralSyntaxError(f"{exc} in {text!r}") from None
    if pos != len(tokens):
        raise LiteralSyntaxError(f"trailing tokens after monomial in {text!r}")
    return result
