import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fuzzyifs import fuzzy, geometry
from fuzzyifs.fuzzy import EmptySupportError, FuzzySet, d_infinity, join
from fuzzyifs.geometry import (
    GRID,
    DimensionMismatchError,
    GridRangeError,
    as_float_array,
    as_point,
    diameter,
    directed_distance,
    directed_max_squared,
    euclid,
    grid_key,
    hausdorff,
    int_array,
    scale_points,
    squared_distance,
)
from fuzzyifs.numeric import le_sum, sqrt_exact
from fuzzyifs.properties import _contractive_float_system
from fuzzyifs.scene import load_scene

from brute import directed_distance_brute, hausdorff_brute

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def crisp(points, exact=None):
    """A crisp set: every point at level 1."""
    return FuzzySet([(p, 1) for p in points], exact=exact)


def pts(*coords):
    return crisp([tuple(Fraction(c) for c in p) for p in coords])


def scaled(*groups):
    """Groups of exact points as arrays of numerators over their least
    common denominator."""
    den, rows = scale_points(*groups)
    return den, [int_array(group) for group in rows]


def snapped(points):
    """Float points on the 1e-12 grid, as a float set holds them."""
    return [as_point(p, False) for p in points]


def keys(points):
    """The grid keys of float points, the kernel's rows over GRID."""
    return int_array([grid_key(p) for p in points])


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


def exact_diameter_oracle(rows, den):
    """The exact pair loop: the largest integer square over every pair of
    rows of numerators over den."""
    best = 0
    for i, p in enumerate(rows):
        for q in rows[i + 1:]:
            best = max(best, sum((a - b) * (a - b) for a, b in zip(p, q)))
    return sqrt_exact(Fraction(best, den * den))


def float_diameter_oracle(arr):
    """The float row loop: one row of norms per point, scaled by the power
    of two that brings the widest coordinate extent into [1/2, 1)."""
    _, e = math.frexp(float((arr.max(axis=0) - arr.min(axis=0)).max()))
    scale = math.ldexp(1.0, -e)
    return math.ldexp(max((float(np.linalg.norm((arr[i + 1:] - arr[i]) * scale, axis=1).max())
                           for i in range(len(arr) - 1)), default=0.0), e)


def exact_diameter(s: FuzzySet):
    """The diameter of an exact point set, on its integer form."""
    den, _, rows, _ = s.scaled()
    return diameter(rows, den, True)


def float_diameter(coords):
    """The diameter of float points, on their grid keys."""
    return diameter(int_array([grid_key(p) for p in coords]), GRID, False)


def test_diameter():
    assert exact_diameter(pts((1, 5))) == 0
    assert exact_diameter(pts((0,), (3,))) == 3
    square = pts((0, 0), (0, 1), (1, 0), (1, 1))
    # oracle: largest of the six pairwise distances
    corners = square.support_points()
    expected = max(
        euclid(p, q) for i, p in enumerate(corners) for q in corners[i + 1:]
    )
    assert exact_diameter(square) == expected == sqrt_exact(Fraction(2))


def test_diameter_matches_brute_double_loop():
    """Float sets of 257 to 400 points and exact sets of 1 to 60 points, in 1
    to 3 dimensions, against the largest squared distance of a double loop:
    float results bit for bit, exact ones exactly."""
    rng = random.Random(17)

    def brute(points, exact):
        best = max((squared_distance(p, q) for i, p in enumerate(points)
                    for q in points[i + 1:]), default=0)
        return sqrt_exact(best) if exact else math.sqrt(best)

    for dim in (1, 2, 3):
        for _ in range(2):
            cloud = crisp(
                [[rng.uniform(-3, 3) for _ in range(dim)] for _ in range(rng.randint(257, 400))],
                exact=False)
            assert len(cloud) > 256
            assert float_diameter(cloud.support_points()) == brute(cloud.support_points(), False)
        for n in range(1, 61, 3):
            s = crisp(
                [[Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(dim)]
                 for _ in range(n)])
            assert exact_diameter(s) == brute(s.support_points(), True)


def test_float_diameter_past_the_square_range():
    """Distances whose squares overflow a float, and a small diameter far
    from the origin, come out as the float distance itself."""
    assert float_diameter([(0.0, 0.0), (1e160, 0.0)]) == 1e160
    assert float_diameter([(-1e200, 0.0), (1e200, 0.0), (0.0, 3e199)]) == 2e200
    assert float_diameter([(1e280, 0.0), (1e280, 1e-12)]) == 1e-12


def lattice_ring(dim, r=5525):
    """The lattice points of the circle x^2 + y^2 = r^2 (the x axis alone
    in 1-D, zeros beyond 2-D): 5525^2 has many such points, so many pairs
    tie exactly at the diameter and every point lies on the sweep's ball."""
    ring = [(x, y) for x in range(-r, r + 1) for y in (math.isqrt(r * r - x * x),)
            if x * x + y * y == r * r]
    ring += [(x, -y) for x, y in ring if y]
    return [[*p, *([0] * (dim - 2))][:dim] for p in ring]


def diameter_shapes(rng, n, dim):
    """Integer point sets that stress the sweep: a random cloud, lattice
    points with many tied pairs, the lattice points of a circle, collinear
    points and a singleton."""
    yield [[rng.randint(-1000, 1000) for _ in range(dim)] for _ in range(n)]
    yield [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(n)]
    yield lattice_ring(dim)
    step = [rng.randint(-9, 9) for _ in range(dim)]
    yield [[k * c for c in step] for k in rng.sample(range(-500, 500), n)]
    yield [[rng.randint(-9, 9) for _ in range(dim)]]


@pytest.mark.parametrize("shift", [0, 2 ** 60 - 2 ** 20, 2 ** 61, 10 ** 30],
                         ids=["int64", "int64-near-2^60", "object-from-2^60", "object"])
def test_exact_diameter_matches_the_pair_loop(shift):
    """Exact diameters equal the pair loop's, in value and type, on the
    int64 path and on the Python-int path: rows shifted by 2^61 or 10^30
    go to object arrays, rows of magnitude 2^60 too."""
    rng = random.Random(shift % 1009)
    for dim in (1, 2, 3):
        for n in (2, 7, 40):
            for shape in diameter_shapes(rng, n, dim):
                rows = [[c + shift * (-1) ** k for k, c in enumerate(p)] for p in shape]
                den = rng.choice((1, 3, 2 ** 40))
                array = int_array(rows)
                if shift >= 2 ** 62:
                    assert array.dtype == object
                got, want = diameter(array, den, True), exact_diameter_oracle(rows, den)
                assert got == want and type(got) is type(want)


def test_float_diameter_allows_for_rounding_in_the_ball_test():
    """Keys on the 5525 ring, rotated so that the sweep starts at point 117:
    every point lies on the sweep's ball in the reals, and the pair of the
    largest float norm is dropped unless the ball test allows for rounding."""
    ring = lattice_ring(2)
    ring = ring[117:] + ring[:117]
    keys = int_array([[1000000172898 + 525791235 * c for c in p] for p in ring])
    want = float_diameter_oracle(as_float_array(keys, GRID))
    assert diameter(keys, GRID, False) == want == 5.809993146750001


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e12, 1e280])
def test_float_diameter_matches_the_row_loop(offset):
    """Float diameters equal the row loop's bit for bit, on clouds of up to
    400 points, rings whose pairs tie to within an ulp, lattice ties,
    collinear points and singletons, near 0 and far from it. On the
    lattice ring, in keys, pairs that tie exactly in the reals differ in
    their float norms, and every point lies on the sweep's ball."""
    rng = random.Random(int(math.log10(offset + 1)))
    origin = grid_key([offset])[0]
    for spread in {1.0, max(1.0, offset * 1e-6)}:
        for dim in (1, 2, 3):
            unit = max(1, round(spread * GRID / 5525))
            keys = int_array([[origin + unit * c for c in p] for p in lattice_ring(dim)])
            assert diameter(keys, GRID, False) == float_diameter_oracle(as_float_array(keys, GRID))
            for n in (2, 9, 400):
                shapes = [[[offset + spread * rng.uniform(-1, 1) for _ in range(dim)]
                           for _ in range(n)],
                          [[offset + spread * rng.randint(-2, 2) for _ in range(dim)]
                           for _ in range(n)],
                          [[offset + spread * c for c in (math.cos(t), math.sin(t), 0.0)[:dim]]
                           for t in (2 * math.pi * k / n for k in range(n))],
                          [[offset + spread * k * 1e-3 for _ in range(dim)] for k in range(n)],
                          [[offset] * dim]]
                for coords in shapes:
                    keys = int_array([grid_key(p) for p in coords])
                    got = diameter(keys, GRID, False)
                    want = float_diameter_oracle(as_float_array(keys, GRID))
                    assert got == want and type(got) is float


def test_empty_and_mode_errors():
    with pytest.raises(EmptySupportError):
        crisp([])
    with pytest.raises(ValueError):
        join([pts((0, 0)), crisp([(0.0, 0.0)])])


def test_dedup_exact_and_float():
    s = pts((1, 2), (1, 2), (3, 4))
    assert len(s) == 2
    f = crisp([(0.1, 0.2), (0.1 + 1e-15, 0.2), (1.0, 1.0)])
    assert len(f) == 2
    assert not f.exact


def _random_set(rng, dim=2, max_points=50):
    n = rng.randrange(1, max_points + 1)
    return crisp(
        [tuple(Fraction(rng.randrange(-40, 41), rng.choice((1, 2, 4))) for _ in range(dim))
         for _ in range(n)]
    )


def test_accelerated_hausdorff_matches_brute_force_exact(monkeypatch):
    """The grid kernel's Hausdorff distance equals the double loop's, by
    exact scan and through the grid's float shortlist."""
    rng = random.Random(42)
    for _ in range(25):
        a = _random_set(rng)
        b = _random_set(rng)
        assert hausdorff(a, b) == hausdorff_brute(a, b)
        # a pair limit of 0 sends every size to the grid's float shortlist
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_BRUTE_PAIR_LIMIT", 0)
            assert hausdorff(a, b) == hausdorff_brute(a, b)


def test_accelerated_hausdorff_matches_brute_force_float():
    """The grid kernel's directed distance equals the double loop's."""
    rng = random.Random(7)
    for _ in range(25):
        a = crisp(
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randrange(1, 60))])
        b = crisp(
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randrange(1, 60))])
        # float mode always answers through the grid kernel
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
            den, (points, rows) = scaled(origin, targets + extra)
            best = directed_max_squared(points, rows, den, True, limits)
            assert Fraction(best, den * den) == near[0] ** 2


def _prefix_brute(points, targets, limits):
    return max(min(squared_distance(p, q) for q in targets[:k]) for p, k in zip(points, limits))


def _lattice(rng, n):
    """n points of the band's dyadic lattice (i / 64, j / 256), which lie on
    cell boundaries of every grid with power-of-two cells."""
    return [(Fraction(rng.randrange(65), 64), Fraction(rng.randrange(257), 256)) for _ in range(n)]


def _kernel_cases(rng):
    """(points, targets, limits) with Fraction coordinates, beyond random
    sets: the band's lattice; consecutive iterates of three maps with
    c = 0.1 from the criterion-5 generator, each point limited to the
    prefix of v by level at its own level; coordinates near the edge of the
    1e-12 grid, whose squared distances overflow, and coordinates one grid
    step apart; a tight cluster with a far point; every limit 1, with
    points on targets outside their prefix; a single target; and points in
    32 and in 3 dimensions."""
    for _ in range(4):
        points, targets = _lattice(rng, rng.randrange(1, 120)), _lattice(rng, rng.randrange(1, 120))
        yield points, targets, [rng.randrange(1, len(targets) + 1) for _ in points]
    for _ in range(3):
        system = _contractive_float_system(rng, 3, 0.1)
        v = FuzzySet([((rng.uniform(-1, 1), rng.uniform(-1, 1)), 1.0)], exact=False)
        for _ in range(rng.randrange(2, 5)):
            u, v = system.step(v), v
        by_level = sorted(v.items(), key=lambda item: item[1], reverse=True)
        yield ([tuple(map(Fraction, p)) for p, _ in u.items()],
               [tuple(map(Fraction, q)) for q, _ in by_level],
               [sum(1 for _, level in by_level if level >= lp) for _, lp in u.items()])
    edge = 1.7e296  # x * 10^12 overflows past about 1.8e296
    points, targets = ([(Fraction(rng.uniform(-edge, edge)), Fraction(edge)) for _ in range(30)]
                       for _ in range(2))
    yield points, targets, [rng.randrange(1, 31) for _ in points]
    points, targets = ([(Fraction(1, 2) + Fraction(rng.randrange(40), 10 ** 12), Fraction(1, 4))
                        for _ in range(40)] for _ in range(2))
    yield points, targets, [rng.randrange(1, 41) for _ in points]
    # a cluster 10^-10 wide and a point 1 away: the first cells are too
    # many to key, so h doubles before the first round
    points, targets = ([(Fraction(rng.randrange(1000), 10 ** 13), Fraction(0)) for _ in range(60)]
                       + [(Fraction(1), Fraction(1))] for _ in range(2))
    yield points, targets, [rng.randrange(1, 62) for _ in points]
    targets = _lattice(rng, 40)
    points = _lattice(rng, 40) + targets[1:]
    yield points, targets, [1] * len(points)
    yield points, targets[:1], [1] * len(points)
    # 32 dimensions, whose 2^32 cells around a point would be too many to
    # key or to search, so the kernel scans; 3, which the grid takes
    for dim, sizes in ((32, (80, 80)), (3, (60, 200))):
        points, targets = ([tuple(Fraction(rng.randrange(-99, 100), 32) for _ in range(dim))
                            for _ in range(size)] for size in sizes)
        yield points, targets, [rng.randrange(1, len(targets) + 1) for _ in points]


@pytest.mark.parametrize("pair_limit, block", [
    (geometry._BRUTE_PAIR_LIMIT, geometry._GRID_BLOCK), (0, geometry._GRID_BLOCK), (0, 1)],
    ids=["scan", "grid", "grid-blocks"])
def test_prefix_kernel_matches_brute_force_exact(monkeypatch, pair_limit, block):
    """The "grid" cases send every call to the float shortlist of the grid,
    "grid-blocks" with each grid round taking one point at a time."""
    monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", pair_limit)
    monkeypatch.setattr(geometry, "_GRID_BLOCK", block)
    rng = random.Random(91)
    cases = []
    for _ in range(60):
        a, b = _random_set(rng), _random_set(rng)
        cases.append((a.support_points(), b.support_points(),
                      [rng.randrange(1, len(b) + 1) for _ in range(len(a))]))
    for points, targets, limits in cases + list(_kernel_cases(rng)):
        den, (points, targets) = scale_points(points, targets)
        assert directed_max_squared(int_array(points), int_array(targets), den, True, limits) == \
            _prefix_brute(points, targets, limits)


def test_prefix_kernel_matches_brute_force_float(monkeypatch):
    """Equal float distances, each the square root of the brute force's
    float squared distance, with the default pair limit and with none,
    which takes every point through the grid's rounds. The points are
    snapped to the 1e-12 grid, whose keys the kernel takes."""
    rng = random.Random(92)
    cases = []
    for _ in range(60):
        points, targets = (
            [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randrange(1, 60))]
            for _ in range(2))
        cases.append((points, targets, [rng.randrange(1, len(targets) + 1) for _ in points]))
    for points, targets, limits in _kernel_cases(rng):
        cases.append(([tuple(map(float, p)) for p in points],
                      [tuple(map(float, q)) for q in targets], limits))
    for pair_limit in (geometry._BRUTE_PAIR_LIMIT, 0):
        monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", pair_limit)
        for points, targets, limits in cases:
            points, targets = snapped(points), snapped(targets)
            assert directed_max_squared(keys(points), keys(targets), GRID, False, limits) == \
                math.sqrt(_prefix_brute(points, targets, limits)) ** 2


def test_prefix_kernel_matches_kd_tree(monkeypatch):
    """Equal float distances to scipy's KD-tree, one tree per prefix, on
    random sets with prefix limits, with and without the pair limit."""
    spatial = pytest.importorskip("scipy.spatial")
    rng = random.Random(93)
    for pair_limit in (geometry._BRUTE_PAIR_LIMIT, 0):
        monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", pair_limit)
        for _ in range(20):
            points, targets = (
                snapped([(rng.uniform(-5, 5), rng.uniform(-5, 5))
                         for _ in range(rng.randrange(1, 200))])
                for _ in range(2))
            limits = [rng.randrange(1, len(targets) + 1) for _ in points]
            trees = {k: spatial.cKDTree(targets[:k]) for k in set(limits)}
            nearest = max(trees[k].query(p)[0] for p, k in zip(points, limits))
            assert directed_max_squared(keys(points), keys(targets), GRID, False, limits) == \
                nearest ** 2


def _traced_peak(f, *args):
    """f(*args) and the peak of the memory it allocated, traced."""
    tracemalloc.start()
    try:
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_kernel_bytes(points, targets, limits):
    return _traced_peak(directed_max_squared, keys(points), keys(targets), GRID, False, limits)


def test_grid_rounds_hold_few_pairs_at_once():
    """2000 points in a cluster 10^-3 wide. Limited to one far target, their
    cells' other targets are no candidates; with every target on a unit
    circle around them, each point's cells hold about all 2000, and a round
    takes them in blocks. Either way the kernel's traced peak stays within
    8 MB, where holding every candidate pair of a round at once takes tens
    of MB."""
    rng = random.Random(96)
    cluster = snapped([(rng.uniform(0, 1e-3), rng.uniform(0, 1e-3)) for _ in range(2000)])
    circle = snapped([(math.cos(t), math.sin(t))
                      for t in (2 * math.pi * k / 2000 for k in range(2000))])
    best, peak = _peak_kernel_bytes(cluster, [(1000.0, 1000.0)] + cluster, [1] * len(cluster))
    assert best == math.sqrt(max(squared_distance(p, (1000.0, 1000.0)) for p in cluster)) ** 2
    assert peak < 8e6
    best, peak = _peak_kernel_bytes(cluster, circle, None)
    scan = geometry._scan(*(np.array(group).T.copy() for group in (cluster, circle)),
                          np.full(len(cluster), len(circle)))[0]
    assert best == math.sqrt(scan.max()) ** 2
    assert peak < 8e6


def _band_after_nine_steps():
    """The band's system and its iterate after 9 steps, 33,280 points: the
    last iterate of the band at --tol 0.005."""
    scene = load_scene(SCENES / "dyadic_band.json")
    system, u = scene.system, scene.initial
    for _ in range(9):
        u = system.step(u)
    return system, u


def test_residual_pair_peaks_per_point():
    """The step of the band's last iterate at --tol 0.005 and the pair it
    makes, 33,280 and 66,560 points. Traced above the sets it holds, the
    step peaks within 40 B per point it makes and d_infinity of the pair
    within 67 B per point of the pair: ranks take one byte, the images are
    column-major, so the merge's sort copies no column, and the kernel
    holds its per-point arrays in blocks. With int64 ranks and per-point
    arrays for a whole round they took 83 B and 101 B, and with row-major
    images the step took 46 B."""
    system, u = _band_after_nine_steps()
    stepped, step_peak = _traced_peak(system.step, u)
    distance, peak = _traced_peak(d_infinity, stepped, u)
    assert (len(u), len(stepped)) == (33280, 66560)
    assert distance == Fraction(1, 1024)
    assert step_peak <= 40 * len(stepped)
    assert peak <= 67 * (len(u) + len(stepped))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_seeded_pair_sends_only_its_unheld_points_to_the_kernel(monkeypatch, exact):
    """d_infinity(T u_9, u_9) on the band: a point that the other set holds
    at its level or above is done, and the 33,280 points of T u_9 that u_9
    does not hold go to one kernel call, with no witness bound and no exact
    query; u_9 holds every point of its own side."""
    system, u = _band_after_nine_steps()
    if not exact:
        system, u = system.to_float(), u.to_float()
    stepped = system.step(u)
    held = dict(u.items())
    unheld = [i for i, (p, level) in enumerate(stepped.items()) if held.get(p, 0) < level]
    calls = {"_paired_squares": 0, "_nearest_square": 0}
    for name, f in [(name, getattr(fuzzy, name)) for name in calls]:
        monkeypatch.setattr(fuzzy, name, lambda *args, name=name, f=f:
                            calls.__setitem__(name, calls[name] + 1) or f(*args))
    rows = []
    directed = fuzzy._directed
    monkeypatch.setattr(fuzzy, "_directed",
                        lambda *args: rows.append(args[4].tolist()) or directed(*args))
    assert d_infinity(stepped, u) == (Fraction(1, 1024) if exact else 2.0 ** -10)
    assert calls == {"_paired_squares": 0, "_nearest_square": 0}
    assert len(unheld) == 33280 and rows == [unheld]


def test_residual_peaks_per_point_of_the_last_iterate(monkeypatch):
    """The residual of a run whose last iterate is the band after 9 steps,
    traced above that iterate, peaks within 155 B per point of it: taken
    map by map, the residual never holds the step's 66,560 points. Making
    that step and holding it through d_infinity takes 180 B. The reach
    diameter is stubbed, so the run makes the residual alone."""
    system, u = _band_after_nine_steps()
    monkeypatch.setattr(type(system), "reach_diameter", lambda self, u: Fraction(1))
    (_, report), peak = _traced_peak(system.iterate, u, 0)
    assert report.certified_residual == Fraction(1, 1024)
    assert peak <= 155 * len(u)


@pytest.mark.parametrize("exact, parent_bytes", [(True, 151), (False, 135)],
                         ids=["exact", "float"])
def test_run_with_witnesses_peaks_per_point_of_the_last_iterate(monkeypatch, exact,
                                                                parent_bytes):
    """A 9-step run of the band from its start, the reach diameter stubbed,
    traced: the witnesses, slot tables and occurrence tables it carries
    keep its peak within what the run took before it carried them, 151.4 B
    (exact) and 135.3 B (float) per point of its last iterate of 33,280.
    With them it takes about 86 B (exact) and 93 B (float): the residual
    no longer holds the kernel's arrays, the run's indices are int32, and a
    float image holds one float block besides its keys."""
    final, peak = _traced_band_run(monkeypatch, exact)
    assert peak <= parent_bytes * len(final)


def test_a_run_lets_go_of_each_maps_witnesses(monkeypatch):
    """The exact run of the test above peaks within 88 B per point of its
    last iterate: the residual drops each map's witnesses once that map is
    done. Holding the last map's through u's side took 89.7 B."""
    final, peak = _traced_band_run(monkeypatch, True)
    assert peak <= 88 * len(final)


def _traced_band_run(monkeypatch, exact):
    """The last iterate of a 9-step run of the band from its start, the
    reach diameter stubbed, and the run's traced peak."""
    scene = load_scene(SCENES / "dyadic_band.json")
    system, u0 = scene.system, scene.initial
    if not exact:
        system, u0 = system.to_float(), u0.to_float()
    monkeypatch.setattr(type(system), "reach_diameter", lambda self, u: Fraction(1))
    (final, report), peak = _traced_peak(system.iterate, u0, 9)
    assert len(final) == 33280 and report.certified_residual == 2 ** -10
    return final, peak


def test_exact_kernel_far_from_the_origin(monkeypatch):
    """Moved by 10^400, the numerators lie past float range, yet the grid's
    shortlist gives the same squares: its floats are taken relative to a
    target. Points whose spread itself passes float range raise
    GridRangeError."""
    monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", 0)
    rng = random.Random(94)
    shift = Fraction(10 ** 400)
    for _ in range(20):
        a, b = _random_set(rng), _random_set(rng)
        limits = [rng.randrange(1, len(b) + 1) for _ in range(len(a))]
        near = scaled(a.support_points(), b.support_points())
        far = scaled(*([tuple(c + shift for c in p) for p in s.support_points()] for s in (a, b)))
        assert far[0] == near[0]
        assert directed_max_squared(*far[1], far[0], True, limits) == \
            directed_max_squared(*near[1], near[0], True, limits)
    den, (points, targets) = scaled([(Fraction(0), Fraction(0))], [(shift, Fraction(0))])
    with pytest.raises(GridRangeError, match="too far apart"):
        directed_max_squared(points, targets, den, True)


def test_grid_round_declines_too_many_cells():
    """Cell keys are exact floats only below 2^53, so a round whose box
    holds more than _MAX_CELLS cells returns False and writes nothing, and
    h doubles first."""
    query, data, limits, todo = np.zeros((2, 1)), np.ones((2, 1)), np.array([1]), np.array([0])
    low, high = np.zeros(2), np.ones(2)
    best, nearest = np.array([5.0]), np.array([7])
    assert not geometry._grid_round(query, data, limits, todo, 2.0 ** -30, low, high, best, nearest)
    assert best.tolist() == [5.0] and nearest.tolist() == [7]
    assert geometry._grid_round(query, data, limits, todo, 2.0 ** -20, low, high, best, nearest)
    assert best.tolist() == [math.inf] and nearest.tolist() == [0]


def _rounds_case(case):
    """400 points on the x-axis, each with a target above it at height 1/4,
    or 3/4 for `far` of them. The sample of 8 holds no far point, so its
    minima set h = 1/2: a near point is certified in the first round, and a
    far point's best candidate only in a round with h = 1. "nearest" has
    no far point; "few" has 20, too many pairs for the final scan, so they
    take a second round; "scan" has 5, which the final scan takes."""
    far = {"nearest": 0, "few": 20, "scan": 5}[case]
    points = [(Fraction(i), Fraction(0)) for i in range(400)]
    targets = [(Fraction(i), Fraction(3 if 1 <= i <= far else 1, 4)) for i in range(400)]
    return points, targets, Fraction(9 if far else 1, 16)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("case, queries, scans", [
    ("nearest", [392], 0), ("few", [392, 20], 0), ("scan", [392], 1)])
def test_prefix_kernel_takes_each_round(kernel_counts, exact, case, queries, scans):
    """The points each round takes, the final scans, one sort of the points
    by their last coordinate before the first round, and two sorts per
    round, the targets and the points by cell key; exact mode sorts once
    more, the points by float distance for the shortlist."""
    points, targets, expected = _rounds_case(case)
    if exact:
        den, (points, targets) = scaled(points, targets)
        best = Fraction(directed_max_squared(points, targets, den, True), den * den)
    else:
        points, targets = (keys([tuple(map(float, p)) for p in group]) for group in (points, targets))
        best = directed_max_squared(points, targets, GRID, False)
    assert best == expected
    assert kernel_counts.queries == queries and kernel_counts.scans == scans
    assert kernel_counts.sorts == 1 + 2 * len(queries) + exact


def test_float_coordinates_are_correctly_rounded():
    """as_float_array gives float(Fraction(n - o, den)) for int64 and
    object numerators alike. Past 2^53 an int64 numerator need not be a
    double: (2^53 + 1) / 3 is 3002399751580331 exactly, while converting
    the numerator first and dividing in floats gives 3002399751580330.5."""
    rng = random.Random(5)
    rows = [[2 ** 53 + 1, -(2 ** 53 + 1)], [2 ** 62 - 1, 7], [-(2 ** 62) + 1, 2 ** 40 + 3]]
    rows += [[rng.randrange(-2 ** 62 + 1, 2 ** 62), rng.randrange(-2 ** 55, 2 ** 55)] for _ in range(200)]
    for points in (np.array(rows, dtype=np.int64), np.array(rows, dtype=object) * 2 ** 70):
        for den in (1, 3, 10 ** 12, 2 ** 70, 3 ** 50):
            for origin in (None, points[1]):
                got = geometry.as_float_array(points, den, origin)
                shift = [0, 0] if origin is None else origin.tolist()
                assert got.tolist() == [[float(Fraction(int(n) - int(o), den)) for n, o in zip(p, shift)]
                                        for p in points.tolist()]


@pytest.mark.parametrize("n", [2 ** 53, 2 ** 53 + 1, 2 ** 62], ids=["2^53", "2^53+1", "2^62"])
def test_float_coordinates_at_the_edge_of_doubles(n):
    """Up to 2^53 every int64 numerator is a double and floats divide; past
    it Python ints divide. Either way the quotient is correctly rounded."""
    points = np.array([[n, -n], [n - 1, 1 - n]], dtype=np.int64)
    for den in (1, 3, 10 ** 12, 2 ** 70, 3 ** 50):
        assert geometry.as_float_array(points, den).tolist() == \
            [[float(Fraction(c, den)) for c in row] for row in points.tolist()]


def test_metric_axioms_exact():
    rng = random.Random(3)
    for _ in range(200):
        a = _random_set(rng, max_points=6)
        b = _random_set(rng, max_points=6)
        c = _random_set(rng, max_points=6)
        hab = hausdorff(a, b)
        assert hab == hausdorff(b, a)
        assert (hab == 0) == (a == b)
        assert le_sum(hausdorff(a, c), hab, hausdorff(b, c))


def test_union_bound_and_diam_bound_small():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randrange(1, 4)
        As = [_random_set(rng, max_points=4) for _ in range(k)]
        Bs = [_random_set(rng, max_points=4) for _ in range(k)]
        lhs = hausdorff(join(As), join(Bs))
        assert lhs <= max(hausdorff(x, y) for x, y in zip(As, Bs))
        assert hausdorff(As[0], Bs[0]) <= exact_diameter(join([As[0], Bs[0]]))
