from fractions import Fraction

import pytest

from fuzzyifs.dyadic import (
    REFERENCE_DECAY,
    count_twos,
    dyadic_value,
    enumerated_levels,
    reference_system,
    words_up_to,
)
from fuzzyifs.properties import oracle_equivalence_failures

F = Fraction


def test_dyadic_value():
    assert dyadic_value(()) == 0
    assert dyadic_value((2,)) == F(1, 2)
    assert dyadic_value((1, 2)) == F(1, 4)
    assert dyadic_value((2, 2)) == F(3, 4)
    assert dyadic_value((2, 1, 2)) == F(1, 2) + F(1, 8)
    with pytest.raises(ValueError):
        dyadic_value((3,))


def test_count_twos():
    assert count_twos(()) == 0
    assert count_twos((2, 2)) == 2
    assert count_twos((1, 2, 1)) == 1
    assert count_twos((2, 1, 2)) == 2
    with pytest.raises(ValueError):
        count_twos((0,))


def test_enumerated_level_reference_values():
    def level(y, n):
        return enumerated_levels(n).get(F(y), 0)

    assert level(0, 0) == 1
    assert level(0, 7) == 1
    assert level(F(1, 2), 1) == F(3, 4)
    assert level(F(3, 4), 2) == F(9, 16)
    assert level(F(3, 4), 5) == F(9, 16)  # stable once reachable
    assert level(F(1, 3), 8) == 0  # non-dyadic values are unreachable


def test_levels_equal_decay_to_the_popcount():
    # the cheapest word hitting a dyadic k/2^n spells out its binary digits
    for n in range(1, 9):
        levels = enumerated_levels(n)
        for k in range(2 ** n):
            y = F(k, 2 ** n)
            assert levels[y] == REFERENCE_DECAY ** bin(k).count("1")


def test_reachable_values_are_all_words():
    for n in range(6):
        assert set(enumerated_levels(n)) == {dyadic_value(w) for w in words_up_to(2, n)}


def test_engine_matches_oracle():
    assert oracle_equivalence_failures(depth=6) == []


def test_engine_matches_oracle_on_other_columns():
    assert oracle_equivalence_failures(depth=4, x=F(1, 3)) == []
    assert oracle_equivalence_failures(depth=4, x=F(0)) == []


def test_oracle_flags_wrong_grey_map():
    from fuzzyifs.fuzzy import GreyLevelMap
    from fuzzyifs.system import OrbitalFuzzySystem

    good = reference_system()
    faulted = OrbitalFuzzySystem(
        ifs=good.ifs,
        grey_maps=(good.grey_maps[0], GreyLevelMap.linear_ramp(F(1, 2))),
    )
    failures = oracle_equivalence_failures(depth=3, system=faulted)
    assert failures
    assert any("y=1/2" in f for f in failures)
