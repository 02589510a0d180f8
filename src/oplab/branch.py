"""Single-branched tree monomials as indexed words, periods, and avoidance.

A single-branched monomial is a chain x1 o_{i1} (x2 o_{i2} (... xn)): each
internal vertex has at most one internal child.  It is faithfully encoded
as a word of (generator, index) letters; the final letter carries no
composition index, so it is stored with a dummy index of 1 to keep equality
well defined.  Height equals weight equals the letter count.

One occurrence rule serves periods and factors: every letter of a factor
but its last must be equal, and the last (a dummy index) matches on its
generator only.  A local period p holds when the suffix after p letters
occurs at the start, a factor is contained when it occurs anywhere, and a
(global) period, one that survives every periodic extension, is exactly a
multiple of the minimal period.
"""

from __future__ import annotations

from itertools import chain, islice, product
from typing import Iterable, Mapping, Optional

from .algebra import count_words, word_automaton
from .dims import DimSeries, Frozen
from .trees import LEAF, Alphabet, Generator, TreeMonomial


class BranchError(ValueError):
    """Base class for single-branched word errors."""


class NotSingleBranchedError(BranchError):
    """The monomial has more than one branch."""


class AperiodicError(BranchError):
    """A period query was made on a word with no local period."""


class PeriodWitnessError(BranchError):
    """The explicit extension witness contradicted the divisibility test."""


class BranchWord(Frozen):
    """Letters (generator, composition index); the last index is a dummy 1.

    Index k of letter k points at the child slot where letter k+1 hangs,
    so 1 <= index <= arity for every non-final position.
    """

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: Iterable[tuple[Generator, int]]) -> None:
        letters = tuple((g, int(i)) for g, i in letters)
        if letters:
            last_gen, _ = letters[-1]
            letters = letters[:-1] + ((last_gen, 1),)
        for pos, (g, i) in enumerate(letters):
            if not isinstance(g, Generator):
                raise BranchError(f"letter {pos + 1} is not a Generator")
            if pos < len(letters) - 1 and not 1 <= i <= g.arity:
                raise BranchError(
                    f"index {i} at position {pos + 1} out of range 1..{g.arity}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def factor(self, start: int, stop: int) -> "BranchWord":
        """The submonomial spanning letters start..stop (1-based, inclusive)."""
        if not 1 <= start <= stop <= len(self.letters):
            raise BranchError(f"factor range {start}..{stop} out of bounds")
        return BranchWord(self.letters[start - 1:stop])

    def __repr__(self) -> str:
        return format_branch_word(self)


def to_branch_word(t: TreeMonomial) -> BranchWord:
    """Encode a single-branched monomial; the trivial monomial gives the empty word."""
    letters: list[tuple[Generator, int]] = []
    node = t
    while node is not None and not node.is_trivial:
        internal = [(k, c) for k, c in enumerate(node.children) if c is not LEAF]
        if len(internal) > 1:
            raise NotSingleBranchedError(f"{t!r} has more than one branch")
        if internal:
            slot, child = internal[0]
            letters.append((node.generator, slot + 1))
            node = child
        else:
            letters.append((node.generator, 1))
            node = None
    return BranchWord(tuple(letters))


def from_branch_word(w: BranchWord, alphabet: Alphabet) -> TreeMonomial:
    """Rebuild the right-normal monomial encoded by ``w``."""
    t = LEAF
    for g, i in reversed(w.letters):
        g = alphabet[g.name]
        children = [LEAF] * g.arity
        children[i - 1] = t  # the last letter's dummy slot gets a leaf
        t = TreeMonomial(alphabet, g, children)
    return TreeMonomial.trivial(alphabet) if t is LEAF else t


def _occurs_at(letters: tuple, factor: tuple, start: int) -> bool:
    """Does ``factor`` occur in ``letters`` at 0-based offset ``start``?

    Every letter of ``factor`` but the last must equal the letter at its
    offset; the last one matches on its generator only (its index is a dummy).
    """
    last = len(factor) - 1
    return (letters[start:start + last] == factor[:last]
            and letters[start + last][0] == factor[last][0])


def is_local_period(w: BranchWord, p: int) -> bool:
    """Shift-repetition inside the word: the suffix after ``p`` letters
    occurs at the start.

    So generators agree on positions 1..n-p and composition indices on
    positions 1..n-p-1 (the final index is a dummy).
    """
    n = len(w)
    if not 1 <= p < n:
        raise BranchError(f"local period {p} out of range 1..{n - 1}")
    return _occurs_at(w.letters, w.letters[p:], 0)


def minimal_period(w: BranchWord) -> Optional[int]:
    """The smallest local period, or None when the word is aperiodic."""
    return next((p for p in range(1, len(w)) if is_local_period(w, p)), None)


def extend(w: BranchWord, m: int, l: int) -> BranchWord:
    """Periodic extension w_{m,l}: positions -m..l filled by residue mod the
    minimal period.  ``m = -1`` and ``l = n`` reproduce the word itself.
    """
    p = minimal_period(w)
    if p is None:
        raise AperiodicError("cannot extend an aperiodic word")
    if m < -1:
        raise BranchError("extension needs m >= -1")
    if l < len(w):
        raise BranchError("extension needs l >= len(w)")
    return BranchWord(w.letters[(q - 1) % p] for q in range(-m, l + 1))


def is_period(w: BranchWord, p: int) -> bool:
    """Periods are the local periods surviving every extension: exactly the
    multiples of the minimal period.  An explicit extension witness is
    checked alongside the divisibility test and any disagreement raises.
    """
    if p < 1:
        raise BranchError("periods are positive")
    mp = minimal_period(w)
    if mp is None:
        raise AperiodicError("aperiodic words have no periods")
    by_divisibility = p % mp == 0
    witness_word = extend(w, p, len(w) + p)
    by_witness = is_local_period(witness_word, p)
    if by_divisibility != by_witness:
        raise PeriodWitnessError(
            f"divisibility says {by_divisibility} but extension witness says {by_witness}")
    return by_divisibility


def contains_factor(w: BranchWord, f: BranchWord) -> bool:
    """Does ``f`` occur as a submonomial (contiguous letters) of ``w``?

    The final letter of ``f`` matches on generator only, mirroring the dummy
    index convention.
    """
    if not f.letters:
        raise BranchError("the empty word is a factor of everything; refuse it")
    return any(_occurs_at(w.letters, f.letters, s)
               for s in range(len(w) - len(f) + 1))


# ---------------------------------------------------------------------------
# avoidance systems
# ---------------------------------------------------------------------------

class AvoidanceSystem(Frozen):
    """Single-branched words avoiding forbidden factors, with optional caps.

    ``forbidden`` lists submonomials that may not occur; ``letter_caps``
    optionally bounds how often a (generator name, index) letter may occur
    among the meaningful (non-final) positions.  Both constraints are closed
    under taking submonomials, so the counted sets satisfy the hypotheses of
    the cubic growth bound.
    """

    __slots__ = _fields = ("alphabet", "forbidden", "letter_caps")

    def __init__(self, alphabet: Alphabet, forbidden: Iterable[BranchWord] = (),
                 letter_caps: Optional[Mapping[tuple[str, int], int]] = None) -> None:
        forbidden = tuple(forbidden)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "forbidden", forbidden)
        for f in forbidden:
            if len(f) == 0:
                raise BranchError("forbidden factors must be nonempty")
        caps = dict(letter_caps or {})
        for (name, idx), cap in caps.items():
            g = alphabet[name]
            if not 1 <= idx <= g.arity:
                raise BranchError(f"cap letter {name}:{idx} has an invalid index")
            if cap < 0:
                raise BranchError("letter caps must be nonnegative")
        object.__setattr__(self, "letter_caps", caps)

    def _key(self):  # the caps dict, whatever its insertion order
        return self.alphabet, self.forbidden, tuple(sorted(self.letter_caps.items()))


def example_at_most_one_index2() -> AvoidanceSystem:
    """One binary generator a, at most one composition index equal to 2.

    This set contains exactly n words of height n, so it violates the
    "at most d-1 at height d" hypothesis at every d while staying unbounded.
    """
    return AvoidanceSystem(Alphabet.of(a=2), (), {("a", 2): 1})


def closed_set_counts(system: AvoidanceSystem, max_height: int) -> DimSeries:
    """Count avoiding words by height on :func:`oplab.algebra.word_automaton`.

    A factor f occurs ending at a meaningful letter exactly when f[:-1] is
    followed by any index of f's last generator g, so the patterns are
    f[:-1] + ((g, i),) for each index i; they need not be self-reduced.  A
    word of height h walks h - 1 meaningful letters, counting the capped
    ones, and ends in a generator g whose letter (g, 1) keeps it live.  The
    states are the patterns' prefixes, at most 1 + the sum of their lengths.
    ``enumerate_avoiding_words`` matches through ``contains_factor`` and is
    the oracle these counts are tested against, with separate match code.
    """
    if max_height < 0:
        raise BranchError("max_height must be nonnegative")
    letters = [(g, i) for g in system.alphabet.generators for i in range(1, g.arity + 1)]
    patterns = [f.letters[:-1] + ((f.letters[-1][0], i),)
                for f in system.forbidden for i in range(1, f.letters[-1][0].arity + 1)]
    delta = word_automaton(letters, patterns)
    column = {x: j for j, x in enumerate(letters)}
    finals = [column[g, 1] for g in system.alphabet.generators]
    endings = [sum(row[j] is not None for j in finals) for row in delta]
    limits = {column[system.alphabet[name], i]: cap
              for (name, i), cap in system.letter_caps.items()}
    counts = islice(count_words(delta, endings, limits), max_height)
    return DimSeries(chain((1,), counts), "weight")


def enumerate_avoiding_words(system: AvoidanceSystem, height: int) -> Iterable[BranchWord]:
    """Brute-force enumeration of avoiding words of exactly the given height."""
    if height == 0:
        yield BranchWord(())
        return
    gens = system.alphabet.generators
    letters = [(g, idx) for g in gens for idx in range(1, g.arity + 1)]
    for prefix in product(letters, repeat=height - 1):
        for g in gens:
            w = BranchWord(prefix + ((g, 1),))
            if _word_allowed(system, w):
                yield w


def _word_allowed(system: AvoidanceSystem, w: BranchWord) -> bool:
    if any(contains_factor(w, f) for f in system.forbidden):
        return False
    for (name, idx), cap in system.letter_caps.items():
        uses = sum(1 for g, i in w.letters[:-1] if g.name == name and i == idx)
        if uses > cap:
            return False
    return True


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def format_branch_word(w: BranchWord) -> str:
    """Space-separated ``gen:index`` letters; the final dummy index is omitted."""
    if not w.letters:
        return "1"
    parts = [f"{g.name}:{i}" for g, i in w.letters[:-1]]
    parts.append(w.letters[-1][0].name)
    return " ".join(parts)


def parse_branch_word(text: str, alphabet: Alphabet) -> BranchWord:
    """Parse the ``a:1 a:2 b`` literal; the last index is optional."""
    text = text.strip()
    if text == "1":
        return BranchWord(())
    letters = []
    for tok in text.split():
        if ":" in tok:
            name, _, idx = tok.partition(":")
            if not idx.isdigit():
                raise BranchError(f"bad branch letter {tok!r}")
            letters.append((alphabet[name], int(idx)))
        else:
            letters.append((alphabet[tok], 1))
    return BranchWord(tuple(letters))
