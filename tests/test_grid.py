from fractions import Fraction

import numpy as np
import pytest

from fuzzyifs.dyadic import band_start, reference_system
from fuzzyifs.fuzzy import FuzzySet
from fuzzyifs.grid import GridFuzzySet, parse_pgm

F = Fraction


def test_zero_grid_pgm():
    g = GridFuzzySet.zeros((0, 0), (1, 1), 4, 3)
    data = g.to_pgm()
    assert data.startswith(b"P5\n4 3\n255\n")
    assert data[len(b"P5\n4 3\n255\n"):] == b"\x00" * 12


def test_single_full_cell():
    g = GridFuzzySet.zeros((0, 0), (1, 1), 1, 1)
    g.levels[0, 0] = 1.0
    assert g.to_pgm().endswith(b"\xff")


def test_round_trip():
    u = FuzzySet([((0.2, 0.7), 0.5), ((0.9, 0.1), 1.0)], exact=False)
    g = GridFuzzySet.from_fuzzy(u, (0, 0), (1, 1), 16, 8)
    w, h, maxval, pixels = parse_pgm(g.to_pgm())
    assert (w, h, maxval) == (16, 8, 255)
    assert np.array_equal(pixels, np.rint(g.levels * 255).astype(np.uint8))


def test_orientation_top_row_is_highest_y():
    u = FuzzySet([((0.5, 0.95), 1.0), ((0.5, 0.05), 0.5)], exact=False)
    g = GridFuzzySet.from_fuzzy(u, (0, 0), (1, 1), 2, 4)
    assert g.levels[0].max() == 1.0  # top row holds the high-y point
    assert g.levels[3].max() == 0.5


def test_edges_clamp_into_the_last_cell():
    u = FuzzySet([((1.0, 1.0), 1.0), ((0.0, 0.0), 0.5), ((2.0, 2.0), 0.25)], exact=False)
    g = GridFuzzySet.from_fuzzy(u, (0, 0), (1, 1), 4, 4)
    assert g.levels[0, 3] == 1.0
    assert g.levels[3, 0] == 0.5
    assert g.levels.sum() == 1.5  # the outside point was dropped


def test_from_exact_fuzzy_set():
    system = reference_system()
    u = system.step(band_start([F(k, 16) for k in range(17)]))
    g = GridFuzzySet.from_fuzzy(u, (0, 0), (1, 1), 16, 16)
    # base row at level 1, halfway row at 3/4
    assert set(np.nonzero(g.levels[15])[0].tolist()) == set(range(16))
    assert g.levels[15].max() == 1.0
    row_half = 16 - 1 - 8
    assert g.levels[row_half].max() == 0.75


def test_validation():
    with pytest.raises(ValueError):
        GridFuzzySet.zeros((1, 1), (0, 0), 4, 4)
    with pytest.raises(ValueError):
        GridFuzzySet(lo=(0, 0), hi=(1, 1), width=2, height=2, levels=np.full((2, 2), 2.0))
    with pytest.raises(ValueError):
        GridFuzzySet(lo=(0, 0), hi=(1, 1), width=2, height=2, levels=np.zeros((3, 2)))


def test_parse_pgm_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pgm(b"P6\n1 1\n255\nabc")
    with pytest.raises(ValueError):
        parse_pgm(b"P5\n2 2\n255\n\x00")
