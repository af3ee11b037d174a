"""Finite words over the map indices, the code space of a system, and the
composite of the maps along a word."""

import random
from fractions import Fraction

import pytest

from fuzzyifs.dyadic import compose_word, reference_system, words_up_to


def test_compose_word_identity_and_reference_maps():
    maps = reference_system().ifs.maps
    ident = compose_word(maps, ())
    p = (Fraction(1, 3), Fraction(5, 7))
    assert ident(p) == p

    f2 = compose_word(maps, (2,))
    x, y = Fraction(2, 5), Fraction(1, 3)
    assert f2((x, y)) == (x, y / 2 + Fraction(1, 2))

    f21 = compose_word(maps, (2, 1))  # first letter applied last
    assert f21((x, Fraction(0))) == (x, Fraction(1, 2))


def test_compose_word_concatenation():
    maps = reference_system().ifs.maps
    rng = random.Random(11)
    p = (Fraction(3, 7), Fraction(1, 9))
    for _ in range(50):
        w1 = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(0, 5)))
        w2 = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(0, 5)))
        combined = compose_word(maps, w1 + w2)
        split = compose_word(maps, w1).compose(compose_word(maps, w2))
        assert combined(p) == split(p)
        assert combined.linear == split.linear and combined.offset == split.offset


def test_compose_word_rejects_bad_letters():
    maps = reference_system().ifs.maps
    with pytest.raises(ValueError):
        compose_word(maps, (3,))
    with pytest.raises(ValueError):
        compose_word(maps, (0,))


def test_words_up_to_counts():
    assert sum(1 for _ in words_up_to(2, 3)) == 1 + 2 + 4 + 8
