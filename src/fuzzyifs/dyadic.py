"""The bundled two-map reference system, finite words over the map indices
{1..N} and the word-enumeration oracle.

The system keeps the first coordinate fixed and maps the second through
y -> y/2 and y -> y/2 + 1/2, with grey maps t -> t and t -> 3t/4 and
contraction constant 1/2. Starting from level 1 on a horizontal base point
row, every word over {1, 2} lands on the dyadic value sum((letter_n - 1) /
2^n) with level decay^(number of 2-letters), and the n-th operator iterate
carries the maximum of those levels over words of length up to n. That
closed form is computed here by brute-force word enumeration, independent of
the operator engine, so the two can be checked against each other exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Sequence, Tuple

from .fuzzy import FuzzySet
from .grey import GreyLevelMap
from .ifs import AffineMap, IteratedFunctionSystem
from .system import OrbitalFuzzySystem

REFERENCE_DECAY = Fraction(3, 4)
REFERENCE_CONTRACTION = Fraction(1, 2)

Word = Tuple[int, ...]


def words_of_length(alphabet_size: int, length: int) -> Iterator[Word]:
    return itertools.product(range(1, alphabet_size + 1), repeat=length)


def words_up_to(alphabet_size: int, max_length: int) -> Iterator[Word]:
    for n in range(max_length + 1):
        yield from words_of_length(alphabet_size, n)


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


def _scalar(value, exact: bool):
    return Fraction(value) if exact else float(value)


def reference_system(exact: bool = True) -> OrbitalFuzzySystem:
    """The bundled system on R^2."""
    one = _scalar(1, exact)
    zero = _scalar(0, exact)
    half = _scalar(Fraction(1, 2), exact)
    lower = AffineMap(linear=((one, zero), (zero, half)), offset=(zero, zero))
    upper = AffineMap(linear=((one, zero), (zero, half)), offset=(zero, half))
    ifs = IteratedFunctionSystem(
        maps=(lower, upper),
        contraction_constant=_scalar(REFERENCE_CONTRACTION, exact),
    )
    greys = (
        GreyLevelMap.identity(exact=exact),
        GreyLevelMap.linear_ramp(_scalar(REFERENCE_DECAY, exact), exact=exact),
    )
    return OrbitalFuzzySystem(ifs=ifs, grey_maps=greys)


def slice_start(x, exact: bool = True) -> FuzzySet:
    """Level 1 at the single base point (x, 0)."""
    return FuzzySet([((_scalar(x, exact), _scalar(0, exact)), _scalar(1, exact))])


def band_start(xs: Iterable, exact: bool = True) -> FuzzySet:
    """Level 1 on the sampled base row {(x, 0)}."""
    one = _scalar(1, exact)
    zero = _scalar(0, exact)
    return FuzzySet([((_scalar(x, exact), zero), one) for x in xs])


def dyadic_value(word: Word) -> Fraction:
    """Dyadic target of a word over {1, 2}: sum of (letter_n - 1) / 2^n."""
    total = Fraction(0)
    for n, letter in enumerate(word, start=1):
        if letter not in (1, 2):
            raise ValueError(f"letter {letter} outside {{1, 2}}")
        total += Fraction(letter - 1, 2 ** n)
    return total


def count_twos(word: Word) -> int:
    """Number of letters equal to 2."""
    if any(letter not in (1, 2) for letter in word):
        raise ValueError("letters must come from {1, 2}")
    return sum(1 for letter in word if letter == 2)


def enumerated_levels(n: int, decay: Fraction = REFERENCE_DECAY) -> Dict[Fraction, Fraction]:
    """Level per reachable dyadic value after n steps, by full enumeration of
    the 2^(n+1) - 1 words of length up to n."""
    levels: Dict[Fraction, Fraction] = {}
    for word in words_up_to(2, n):
        value = dyadic_value(word)
        level = decay ** count_twos(word)
        if levels.get(value, Fraction(0)) < level:
            levels[value] = level
    return levels
