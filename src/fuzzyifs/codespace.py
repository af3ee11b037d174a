"""Finite words over the index alphabet {1..N}.

Infinite words cannot be materialized, so the series metric on the code
space is computed on finite truncations and returned as an interval: a
partial sum over the first `depth` positions plus a geometric tail bound.
Positions where exactly one word has run out count as mismatches (the
conservative convention for unequal lengths); positions beyond both words
are unknown and contribute zero to the lower bound and their full weight to
the upper bound, which keeps lower <= true value <= upper for every pair of
infinite extensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

from .ifs import AffineMap
from .numeric import Scalar, is_exact

Word = Tuple[int, ...]


def words_of_length(alphabet_size: int, length: int) -> Iterator[Word]:
    return itertools.product(range(1, alphabet_size + 1), repeat=length)


def words_up_to(alphabet_size: int, max_length: int) -> Iterator[Word]:
    for n in range(max_length + 1):
        yield from words_of_length(alphabet_size, n)


@dataclass(frozen=True)
class CodeMetric:
    """Interval-valued series metric sum(c^n * [letters differ]) on words.

    c: weight base in [0, 1); depth: number of positions included in the
    partial sum.
    """

    c: Scalar
    depth: int

    def __post_init__(self):
        if not (0 <= self.c < 1):
            raise ValueError("c must lie in [0, 1)")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def tail(self) -> Scalar:
        """Weight of every position beyond the truncation depth."""
        c = self.c
        if not c:
            return Fraction(0) if is_exact(c) else 0.0
        return c ** (self.depth + 1) / (1 - c)

    def bounds(self, a: Word, b: Word) -> Tuple[Scalar, Scalar]:
        """(lower, upper) enclosing the metric for any infinite extensions."""
        c = self.c
        zero = Fraction(0) if is_exact(c) else 0.0
        lower = zero
        unknown = zero
        weight = c
        for n in range(1, self.depth + 1):
            in_a = n <= len(a)
            in_b = n <= len(b)
            if in_a and in_b:
                if a[n - 1] != b[n - 1]:
                    lower = lower + weight
            elif in_a or in_b:
                lower = lower + weight
            else:
                unknown = unknown + weight
            weight = weight * c
        return lower, lower + unknown + self.tail()


def compose_word(maps: Sequence[AffineMap], word: Word) -> AffineMap:
    """Composite of the indexed maps along a word; the first letter's map is
    applied last. The empty word composes to the identity."""
    if not maps:
        raise ValueError("need at least one map")
    composed = AffineMap.identity(maps[0].dimension, exact=maps[0].exact)
    for letter in word:
        if not 1 <= letter <= len(maps):
            raise ValueError(f"letter {letter} outside 1..{len(maps)}")
        composed = composed.compose(maps[letter - 1])
    return composed
