import math
import random
from fractions import Fraction

import pytest

from fuzzyifs import geometry
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


def test_accelerated_hausdorff_matches_brute_force_exact(monkeypatch):
    rng = random.Random(42)
    for _ in range(25):
        a = _random_set(rng)
        b = _random_set(rng)
        assert hausdorff(a, b) == hausdorff_brute(a, b)
        # no pair limit forces the KD shortlist regardless of size
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_BRUTE_PAIR_LIMIT", 0)
            assert hausdorff(a, b) == hausdorff_brute(a, b)


def test_accelerated_hausdorff_matches_brute_force_float():
    rng = random.Random(7)
    for _ in range(25):
        a = FinitePointSet.from_points(
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randrange(1, 60))])
        b = FinitePointSet.from_points(
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randrange(1, 60))])
        # float mode always answers through the KD-tree
        assert directed_distance(a, b) == pytest.approx(
            directed_distance_brute(a, b), abs=1e-12)


def test_exact_kernel_separates_float_ties(monkeypatch):
    # All targets round to the same float point; only the exact comparison
    # of the shortlisted candidates finds the nearer one, in either order.
    # With a limit of 2, the shortlist must also drop a third target, exactly
    # the nearest, that lies past the prefix.
    monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", 0)
    near = (Fraction(1) - Fraction(1, 10 ** 20), Fraction(0))
    far = (Fraction(1) + Fraction(1, 10 ** 20), Fraction(0))
    nearest = (Fraction(1) - Fraction(1, 10 ** 19), Fraction(0))
    origin = [(Fraction(0), Fraction(0))]
    for targets in ([far, near], [near, far]):
        for extra, limits in (([], None), ([nearest], [2])):
            den, (points, scaled) = scale_points(origin, targets + extra)
            best = directed_max_squared(points, scaled, den, True, limits)
            assert Fraction(best, den * den) == near[0] ** 2


def _prefix_brute(points, targets, limits):
    return max(min(squared_distance(p, q) for q in targets[:k]) for p, k in zip(points, limits))


@pytest.mark.parametrize("pair_limit", [geometry._BRUTE_PAIR_LIMIT, 0], ids=["scan", "tree"])
def test_prefix_kernel_matches_brute_force_exact(monkeypatch, pair_limit):
    monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", pair_limit)
    rng = random.Random(91)
    for _ in range(60):
        a, b = _random_set(rng), _random_set(rng)
        den, (points, targets) = scale_points(a.points, b.points)
        limits = [rng.randrange(1, len(targets) + 1) for _ in points]
        assert directed_max_squared(points, targets, den, True, limits) == \
            _prefix_brute(points, targets, limits)


def test_prefix_kernel_matches_brute_force_float():
    rng = random.Random(92)
    for _ in range(60):
        points, targets = (
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randrange(1, 60))]
            for _ in range(2))
        limits = [rng.randrange(1, len(targets) + 1) for _ in points]
        assert directed_max_squared(points, targets, None, False, limits) == pytest.approx(
            _prefix_brute(points, targets, limits), abs=1e-12)


class _Rounds:
    """Counts the rounds of the prefix kernel: the k of every KD query
    (1 for the nearest overall, more for the nearest few) and the prefix
    scans of the points left after both."""

    def __init__(self, monkeypatch):
        self.queries, self.scans = [], 0
        rounds, scan = self, geometry._scan_prefix

        class CountingTree(geometry.cKDTree):
            def query(self, x, k=1, **kwargs):
                rounds.queries.append(k)
                return super().query(x, k, **kwargs)

        def counting_scan(*args):
            rounds.scans += 1
            return scan(*args)

        monkeypatch.setattr(geometry, "cKDTree", CountingTree)
        monkeypatch.setattr(geometry, "_scan_prefix", counting_scan)
        monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", 0)


def _rounds_case(case):
    """One query point at the origin and targets in level order, the first
    one alone in the prefix: "nearest" has it nearest of all; "few" puts one
    lower-level target nearer; "scan" puts nine lower-level targets nearer,
    more than the nearest few the tree is asked for. A last target, farther
    than the first, gives every case at least two."""
    lower = {"nearest": 0, "few": 1, "scan": 9}[case]
    ring = [(math.cos(t), math.sin(t)) for t in (2 * math.pi * i / 9 for i in range(lower))]
    targets = [(Fraction(5), Fraction(0))] + [tuple(Fraction(c) for c in p) for p in ring]
    targets += [(Fraction(-6), Fraction(0))]
    return [(Fraction(0), Fraction(0))], targets


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("case, queries, scans", [
    ("nearest", [1], 0), ("few", [1, 3], 0), ("scan", [1, 8], 1)])
def test_prefix_kernel_takes_each_round(monkeypatch, exact, case, queries, scans):
    rounds = _Rounds(monkeypatch)
    points, targets = _rounds_case(case)
    if exact:
        den, (points, targets) = scale_points(points, targets)
        best = Fraction(directed_max_squared(points, targets, den, True, [1]), den * den)
    else:
        points, targets = ([tuple(map(float, p)) for p in group] for group in (points, targets))
        best = directed_max_squared(points, targets, None, False, [1])
    assert best == 25
    assert rounds.queries == queries and rounds.scans == scans


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
