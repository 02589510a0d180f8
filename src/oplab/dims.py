"""Exact integer dimension sequences with indexing metadata, and the helpers
every ``oplab`` subcommand reaches: the base of the immutable value classes,
the engine names, the writer of a ratio of integers, and the line reader
of presentation and algebra files."""

from __future__ import annotations

import math
from itertools import accumulate
from operator import ne
from typing import Iterator, Sequence

INDEX_KINDS = ("arity", "weight", "degree")
ENGINES = ("brute", "dp")


class FileSyntaxError(ValueError):
    """A presentation or algebra file failed to parse; carries the offending line."""

    def __init__(self, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line


def directives(text: str) -> Iterator[tuple[int, str, str, str]]:
    """(line number, raw line, keyword, rest of the line) for each line of a
    presentation or algebra file that is not blank or a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split(None, 1)
        if fields:
            yield lineno, raw, fields[0], fields[1].strip() if len(fields) > 1 else ""


class Frozen:
    """Base of the immutable value classes.

    A subclass lists its fields, in constructor order, in ``_fields`` and
    stores them in ``__init__`` with ``object.__setattr__``; afterwards
    assignment and deletion raise AttributeError.  Two values are equal when
    they are the same object, or of the same class with equal ``_key()``,
    and the hash is that of ``_key()``: the tuple of the fields, unless a
    subclass overrides ``_key`` to leave a field out or normalise one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):  # every field, whatever a subclass's _key leaves out
        return self.__class__, Frozen._key(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"


class DimSeries(Frozen):
    """A truncated sequence of nonnegative integer dimensions.

    ``values[i]`` is the dimension at index ``i``, where the index counts
    arity, weight, or degree according to ``index_kind``.  ``exact`` is False
    when a weight cap lay below the heaviest weight an arity count reads,
    and always with a unary generator, where an arity class can be infinite
    and the engine does not yet decide when.
    """

    __slots__ = _fields = ("values", "index_kind", "exact")

    def __init__(self, values: Sequence[int], index_kind: str, exact: bool = True) -> None:
        values = tuple(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index_kind", index_kind)
        object.__setattr__(self, "exact", exact)
        if index_kind not in INDEX_KINDS:
            raise ValueError(f"unknown index kind {index_kind!r}")
        if not set(map(type, values)) <= {int}:
            raise ValueError("dimensions must be ints")
        if values and min(values) < 0:
            raise ValueError("dimensions must be nonnegative")

    @property
    def truncation(self) -> int:
        """Largest index that was computed."""
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def partial_sums(self) -> tuple[int, ...]:
        """Running sums S(n) = values[0] + ... + values[n]."""
        return tuple(accumulate(self.values))


def as_dim_values(dims: Sequence[int], offset: int = 0) -> tuple[int, ...]:
    """Coerce a sequence of nonnegative integral numbers (ints, or Fractions
    such as CSV gives) to a tuple of ints.

    A tuple of nonnegative ints is checked and returned as it is; any other
    sequence is checked and copied once.  The error names the bad value's
    index, counted from ``offset`` (the index of ``dims[0]`` when dims is a
    piece of a series)."""
    if type(dims) is tuple and set(map(type, dims)) <= {int}:
        values = dims
    else:
        values = tuple(map(int, dims))
    if (values is not dims and any(map(ne, values, dims))) or min(values, default=0) < 0:
        bad = next(i for i, (v, d) in enumerate(zip(values, dims)) if v != d or v < 0)
        raise ValueError(f"dimension {offset + bad} is {dims[bad]}, not a nonnegative integer")
    return values


def format_ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms, written as ``str(Fraction(num, den))``
    writes it: ``-3/4``, or ``5`` when the denominator is 1."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"
