"""Exact integer dimension sequences with indexing metadata, and the helpers
every ``oplab`` subcommand reaches: the engine names, a natural log of an
exact integer, and the line reader of presentation and algebra files."""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class DimSeries:
    """A truncated sequence of nonnegative integer dimensions.

    ``values[i]`` is the dimension at index ``i``, where the index counts
    arity, weight, or degree according to ``index_kind``.  ``exact`` is False
    when the counts had to be weight-capped (a unary generator makes
    arity-indexed counts infinite without a cap).
    """

    values: tuple[int, ...]
    index_kind: str
    exact: bool = True

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if self.index_kind not in INDEX_KINDS:
            raise ValueError(f"unknown index kind {self.index_kind!r}")
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


def as_dim_values(dims: "DimSeries | Sequence[int]") -> tuple[int, ...]:
    """Coerce either a DimSeries or a plain sequence of nonnegative integral
    numbers (ints, or Fractions such as CSV gives) to a tuple of ints."""
    if isinstance(dims, DimSeries):
        return dims.values
    values = tuple(map(int, dims))
    if any(map(ne, values, dims)) or min(values, default=0) < 0:
        bad = next(i for i, (v, d) in enumerate(zip(values, dims)) if v != d or v < 0)
        raise ValueError(f"dimension {bad} is {dims[bad]}, not a nonnegative integer")
    return values


def log_of_int(x: int) -> float:
    """Natural log of a positive integer, safe beyond float range."""
    bl = x.bit_length()
    if bl <= 900:
        return math.log(x)
    top = x >> (bl - 53)
    return math.log(top) + (bl - 53) * math.log(2)
