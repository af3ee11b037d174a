import math
import random
from fractions import Fraction

import pytest
from scipy.spatial import cKDTree

from fuzzyifs.geometry import (
    DimensionMismatchError,
    EmptySetError,
    FinitePointSet,
    diameter,
    directed_distance,
    directed_distance_brute,
    directed_max_squared,
    euclid,
    hausdorff,
    hausdorff_brute,
    scale_points,
    squared_distance,
)
from fuzzyifs.numeric import le_sum, sqrt_exact


def pts(*coords):
    return FinitePointSet.from_points([tuple(Fraction(c) for c in p) for p in coords])


def test_euclid_basic():
    assert euclid((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))) == 0
    assert euclid((Fraction(0), Fraction(0)), (Fraction(3), Fraction(4))) == 5
    assert euclid((Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1))) == 1
    with pytest.raises(DimensionMismatchError):
        euclid((Fraction(0),), (Fraction(0), Fraction(0)))


def test_directed_distance_asymmetry():
    a = pts((0,), (1,))
    b = pts((0,))
    assert directed_distance(pts((0,)), pts((0,))) == 0
    assert directed_distance(a, b) == 1
    assert directed_distance(b, a) == 0


def test_hausdorff_basic():
    assert hausdorff(pts((0,)), pts((1,))) == 1
    a = pts((0, 0), (1, 2), (3, -1))
    assert hausdorff(a, a) == 0


def test_diameter():
    assert diameter(pts((1, 5))) == 0
    assert diameter(pts((0,), (3,))) == 3
    square = pts((0, 0), (0, 1), (1, 0), (1, 1))
    # oracle: largest of the six pairwise distances
    corners = list(square)
    expected = max(
        euclid(p, q) for i, p in enumerate(corners) for q in corners[i + 1:]
    )
    assert diameter(square) == expected == sqrt_exact(Fraction(2))


def test_diameter_matches_brute_double_loop():
    """Float sets of 257 to 400 points and exact sets of 1 to 60 points, in 1
    to 3 dimensions, against the largest squared distance of a double loop:
    float results bit for bit, exact ones exactly."""
    rng = random.Random(17)

    def brute(s):
        best = max((squared_distance(p, q) for i, p in enumerate(s.points)
                    for q in s.points[i + 1:]), default=0)
        return sqrt_exact(best) if s.exact else math.sqrt(best)

    for dim in (1, 2, 3):
        for _ in range(2):
            cloud = FinitePointSet.from_points(
                [[rng.uniform(-3, 3) for _ in range(dim)] for _ in range(rng.randint(257, 400))],
                exact=False)
            assert len(cloud) > 256
            assert diameter(cloud) == brute(cloud)
        for n in range(1, 61, 3):
            s = FinitePointSet.from_points(
                [[Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(dim)]
                 for _ in range(n)])
            assert diameter(s) == brute(s)


def test_empty_and_mode_errors():
    with pytest.raises(EmptySetError):
        FinitePointSet.from_points([])
    with pytest.raises(ValueError):
        pts((0, 0)).union(FinitePointSet.from_points([(0.0, 0.0)]))


def test_dedup_exact_and_float():
    s = pts((1, 2), (1, 2), (3, 4))
    assert len(s) == 2
    f = FinitePointSet.from_points([(0.1, 0.2), (0.1 + 1e-15, 0.2), (1.0, 1.0)])
    assert len(f) == 2
    assert not f.exact


def _random_set(rng, dim=2, max_points=50):
    n = rng.randrange(1, max_points + 1)
    return FinitePointSet.from_points(
        [tuple(Fraction(rng.randrange(-40, 41), rng.choice((1, 2, 4))) for _ in range(dim))
         for _ in range(n)]
    )


def test_accelerated_hausdorff_matches_brute_force_exact():
    rng = random.Random(42)
    for _ in range(25):
        a = _random_set(rng)
        b = _random_set(rng)
        assert hausdorff(a, b) == hausdorff_brute(a, b)
        # a prebuilt tree forces the KD shortlist regardless of size
        den, (pa, pb) = scale_points(a.points, b.points)
        fast = max(
            directed_max_squared(pa, pb, den, True, cKDTree(b.to_float_array())),
            directed_max_squared(pb, pa, den, True, cKDTree(a.to_float_array())),
        )
        assert sqrt_exact(Fraction(fast, den * den)) == hausdorff_brute(a, b)


def test_accelerated_hausdorff_matches_brute_force_float():
    rng = random.Random(7)
    for _ in range(25):
        a = FinitePointSet.from_points(
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randrange(1, 60))])
        b = FinitePointSet.from_points(
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randrange(1, 60))])
        assert directed_distance(a, b) == pytest.approx(
            directed_distance_brute(a, b), abs=1e-12)
        fast = directed_max_squared(a.points, b.points, None, False, cKDTree(b.to_float_array()))
        assert math.sqrt(fast) == pytest.approx(directed_distance_brute(a, b), abs=1e-12)


def test_exact_kernel_separates_float_ties():
    # Both targets round to the same float point; only the exact comparison
    # of the shortlisted candidates finds the nearer one, in either order.
    near = (Fraction(1) - Fraction(1, 10 ** 20), Fraction(0))
    far = (Fraction(1) + Fraction(1, 10 ** 20), Fraction(0))
    origin = [(Fraction(0), Fraction(0))]
    for targets in ([far, near], [near, far]):
        tree = cKDTree([[float(c) for c in p] for p in targets])
        den, (points, scaled) = scale_points(origin, targets)
        best = directed_max_squared(points, scaled, den, True, tree)
        assert Fraction(best, den * den) == near[0] ** 2


def test_metric_axioms_exact():
    rng = random.Random(3)
    for _ in range(200):
        a = _random_set(rng, max_points=6)
        b = _random_set(rng, max_points=6)
        c = _random_set(rng, max_points=6)
        hab = hausdorff(a, b)
        assert hab == hausdorff(b, a)
        assert (hab == 0) == a.same_points(b)
        assert le_sum(hausdorff(a, c), hab, hausdorff(b, c))


def test_union_bound_and_diam_bound_small():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randrange(1, 4)
        As = [_random_set(rng, max_points=4) for _ in range(k)]
        Bs = [_random_set(rng, max_points=4) for _ in range(k)]
        lhs = hausdorff(As[0].union(*As[1:]), Bs[0].union(*Bs[1:]))
        assert lhs <= max(hausdorff(x, y) for x, y in zip(As, Bs))
        assert hausdorff(As[0], Bs[0]) <= diameter(As[0].union(Bs[0]))
