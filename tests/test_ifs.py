import random
from fractions import Fraction

import pytest

from fuzzyifs.dyadic import (compose_word, dyadic_value, reference_system, words_of_length,
                             words_up_to)
from fuzzyifs.fuzzy import FuzzySet, alpha_cut, join, zadeh_pushforward
from fuzzyifs.geometry import as_point, hausdorff
from fuzzyifs.ifs import AffineMap, IteratedFunctionSystem, SupportCapError

F = Fraction


def crisp(points):
    """A crisp set: every point at level 1."""
    return FuzzySet([(p, 1) for p in points])


def singleton(x, y):
    return crisp([(F(x), F(y))])


def issubset(a, b):
    return join([a, b]) == b


def test_apply_map():
    ident = AffineMap.identity(2)
    p = (F(3, 7), F(-2, 5))
    assert ident(p) == p
    f1, f2 = reference_system().ifs.maps
    x, y = F(1, 3), F(4, 7)
    assert f1((x, y)) == (x, y / 2)
    assert f2((F(1, 2), F(0))) == (F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        f1((F(1),))


def test_constructor_validation():
    with pytest.raises(ValueError):
        AffineMap(linear=((F(1),),), offset=(F(0), F(0)))
    with pytest.raises(ValueError):
        IteratedFunctionSystem(maps=(), contraction_constant=F(1, 2))
    with pytest.raises(ValueError):
        IteratedFunctionSystem(maps=(AffineMap.identity(2),), contraction_constant=F(1))


def test_mixed_numeric_modes_rejected():
    # checked on construction, in either order: otherwise the exact step
    # stores float points in an exact fuzzy set and d_infinity fails later
    exact_map = AffineMap(linear=((F(1, 2),),), offset=(F(0),))
    float_map = AffineMap(linear=((0.5,),), offset=(0.25,))
    for maps in ((exact_map, float_map), (float_map, exact_map)):
        with pytest.raises(ValueError, match="cannot mix numeric modes"):
            IteratedFunctionSystem(maps=maps, contraction_constant=F(1, 2))


def test_step():
    ident_sys = IteratedFunctionSystem(maps=(AffineMap.identity(2),), contraction_constant=F(0))
    k = crisp([(F(0), F(1)), (F(2), F(3))])
    assert ident_sys.step(k) == k

    sys_ = reference_system().ifs
    k1 = sys_.step(singleton(F(1, 2), 0))
    assert sorted(p[1] for p in k1.support_points()) == [F(0), F(1, 2)]
    k2 = sys_.step(k1)
    assert sorted(p[1] for p in k2.support_points()) == [F(0), F(1, 4), F(1, 2), F(3, 4)]


def test_iterate_dyadic_grid_and_history_decay():
    sys_ = reference_system().ifs
    k, history = singleton(F(1, 2), 0), []
    for n in range(1, 6):
        k, previous = sys_.step(k), k
        history.append(hausdorff(previous, k))
        if n in (1, 3, 5):
            assert {p[1] for p in k.support_points()} == \
                {dyadic_value(w) for w in words_of_length(2, n)}
    # declared C = 1/2 drives at least geometric decay
    for a, b in zip(history, history[1:]):
        assert b <= a * F(1, 2)


def test_iterate_single_map_shrinks_to_point():
    half = AffineMap(linear=((F(1, 2),),), offset=(F(0),))
    sys_ = IteratedFunctionSystem(maps=(half,), contraction_constant=F(1, 2))
    k = crisp([(F(1),)])
    for _ in range(3):
        k = sys_.step(k)
    assert k.support_points() == ((F(1, 8),),)


def test_orbit():
    sys_ = reference_system().ifs
    base = singleton(F(1, 2), 0)
    assert sys_.orbit(base, 0) == base
    orb = sys_.orbit(base, 2)
    assert {p[1] for p in orb.support_points()} == {F(0), F(1, 4), F(1, 2), F(3, 4)}
    # nesting in depth and closure under the base
    assert issubset(orb, sys_.orbit(base, 3))
    assert issubset(base, orb)

    ident_sys = IteratedFunctionSystem(maps=(AffineMap.identity(2),), contraction_constant=F(0))
    b = crisp([(F(1), F(2))])
    assert ident_sys.orbit(b, 4) == b


def test_orbit_contains_every_word_image():
    sys_ = reference_system().ifs
    base = crisp([(F(1, 3), F(1, 5)), (F(0), F(1))])
    depth = 3
    orb = sys_.orbit(base, depth)
    for word in words_up_to(len(sys_.maps), depth):
        f = compose_word(sys_.maps, word)
        for p in base.support_points():
            assert orb.level(f(p)) == 1


def test_contractivity_check():
    report = reference_system().ifs.check_contractivity(singleton(F(1, 2), 0), depth=6)
    assert report.max_ratio == F(1, 2)
    assert report.ok

    half = AffineMap(linear=((F(1, 2),),), offset=(F(0),))
    sys_ = IteratedFunctionSystem(maps=(half,), contraction_constant=F(1, 2))
    report = sys_.check_contractivity(crisp([(F(1),)]), depth=3)
    assert report.max_ratio == F(1, 2) and report.ok

    double = AffineMap(linear=((F(2),),), offset=(F(0),))
    sys_ = IteratedFunctionSystem(maps=(double,), contraction_constant=F(1, 2))
    report = sys_.check_contractivity(crisp([(F(1),)]), depth=3)
    assert report.max_ratio == F(2) and not report.ok


def test_step_monotone_and_union_bound_instance():
    rng = random.Random(13)
    sys_ = reference_system().ifs
    for _ in range(100):
        pts = [(F(rng.randrange(-8, 9), 4), F(rng.randrange(-8, 9), 4))
               for _ in range(rng.randrange(1, 6))]
        k_small = crisp(pts[: max(1, len(pts) // 2)])
        k_big = crisp(pts)
        assert issubset(sys_.step(k_small), sys_.step(k_big))

        other = crisp(
            [(F(rng.randrange(-8, 9), 4), F(rng.randrange(-8, 9), 4))
             for _ in range(rng.randrange(1, 6))])
        lhs = hausdorff(sys_.step(k_big), sys_.step(other))
        per_map = []
        for f in sys_.maps:
            fa = crisp([f(p) for p in k_big.support_points()])
            fb = crisp([f(p) for p in other.support_points()])
            per_map.append(hausdorff(fa, fb))
        assert lhs <= max(per_map)


def test_support_cap():
    sys_ = reference_system().ifs
    with pytest.raises(SupportCapError):
        sys_.orbit(singleton(F(1, 2), 0), 10, support_cap=100)


def _row_formula(f, p):
    """The affine map row by row, adding every nonzero term to the offset."""
    out = []
    for row, off in zip(f.linear, f.offset):
        acc = off
        for entry, coord in zip(row, p):
            if entry:
                acc = acc + entry * coord
        out.append(acc)
    return tuple(out)


def test_map_plan_matches_row_formula_exact():
    rng = random.Random(31)
    entries = (F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(5, 3))
    offsets = (F(0), F(1, 2), F(-7, 3))
    for _ in range(300):
        dim = rng.choice((1, 2, 3))
        f = AffineMap(
            linear=tuple(tuple(rng.choice(entries) for _ in range(dim)) for _ in range(dim)),
            offset=tuple(rng.choice(offsets) for _ in range(dim)),
        )
        p = tuple(F(rng.randrange(-9, 10), rng.choice((1, 2, 3, 8))) for _ in range(dim))
        got = f(p)
        assert got == _row_formula(f, p)
        assert got == tuple(off + sum(e * c for e, c in zip(row, p))
                            for row, off in zip(f.linear, f.offset))
        assert all(type(c) is F for c in got)


def test_map_plan_keeps_float_results_bit_identical():
    rng = random.Random(32)
    entries = (0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3)
    offsets = (0.0, -0.0, 0.25)
    coords = (0.0, -0.0, 1.0, -2.5, 1 / 7)
    for _ in range(300):
        dim = rng.choice((1, 2, 3))
        f = AffineMap(
            linear=tuple(tuple(rng.choice(entries) for _ in range(dim)) for _ in range(dim)),
            offset=tuple(rng.choice(offsets) for _ in range(dim)),
        )
        p = tuple(rng.choice(coords) for _ in range(dim))
        # repr tells 0.0 from -0.0
        assert repr(f(p)) == repr(_row_formula(f, p))
    # 0.0 + -0.0 is 0.0: a float map keeps adding its zero offset
    assert repr(AffineMap(linear=((1.0,),), offset=(0.0,))((-0.0,))) == "(0.0,)"


def random_maps(rng, dim):
    """1 to 3 affine maps of R^dim: singular maps (a zero row, or the last
    row a multiple of the first), shears, diagonal maps of unequal ratios
    and general rational matrices, with rational offsets."""
    ratios = (F(1, 2), F(1, 3), F(2, 5), F(-3, 4), F(1, 7))
    maps = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(("singular", "shear", "ratios", "general"))
        rows = [[F(0)] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = rng.choice(ratios)
        if kind == "shear":
            for i in range(dim):
                rows[i][i] = F(1, 2)
            if dim > 1:
                i, j = rng.sample(range(dim), 2)
                rows[i][j] = rng.choice((F(1, 3), F(-1, 2), F(1)))
        elif kind == "general":
            rows = [[F(rng.randrange(-3, 4), rng.choice((2, 3, 4))) for _ in range(dim)]
                    for _ in range(dim)]
        elif kind == "singular":
            if dim == 1 or rng.random() < 0.5:
                rows[-1] = [F(0)] * dim
            else:
                rows[-1] = [F(-2, 3) * v for v in rows[0]]
        offset = tuple(F(rng.randrange(-4, 5), rng.choice((1, 2, 3, 8))) for _ in range(dim))
        maps.append(AffineMap(tuple(map(tuple, rows)), offset))
    return IteratedFunctionSystem(maps=tuple(maps), contraction_constant=F(1, 2))


def random_levels(rng, dim):
    """1 to 6 rational points of R^dim, some repeated, at levels k/4 and
    k/5: a set whose levels mix."""
    points = [tuple(F(rng.randrange(-6, 7), rng.choice((1, 2, 3, 4))) for _ in range(dim))
              for _ in range(rng.randrange(1, 7))]
    points += rng.sample(points, rng.randrange(0, 2))
    return FuzzySet([(p, F(rng.randrange(1, 5), 4) if rng.random() < 0.5
                      else F(rng.randrange(1, 6), 5)) for p in points])


def both_modes(rng, count):
    """count random (system, set) cases of 1 to 3 dimensions, each exact and
    as its float twin."""
    for _ in range(count):
        dim = rng.choice((1, 2, 3))
        system, u = random_maps(rng, dim), random_levels(rng, dim)
        yield system, u
        yield system.to_float(), u.to_float()


def test_step_equals_the_join_of_pushforwards():
    """The crisp step keeps each point's level: it is the join of the
    maps' pushforwards, support order included."""
    for system, u in both_modes(random.Random(71), 300):
        stepped = system.step(u)
        reference = join([zadeh_pushforward(f, u) for f in system.maps])
        assert stepped == reference
        assert stepped.support_points() == reference.support_points()
        assert stepped.level_values() == reference.level_values()


def test_alpha_cuts_equal_the_sets_of_their_points():
    """A cut at every level and every midpoint between levels, and at 0, is
    the crisp set of the points that reach it: the same rows in support
    order over the least denominator, at level 1."""
    for _, u in both_modes(random.Random(72), 300):
        levels = u.level_values()
        alphas = [0, *levels, *((a + b) / 2 for a, b in zip(levels, levels[1:]))]
        for alpha in alphas:
            cut = alpha_cut(u, alpha)
            reference = FuzzySet([(p, 1) for p, level in u.items() if level >= alpha],
                                 exact=u.exact)
            assert cut == reference
            assert cut.scaled()[0] == reference.scaled()[0]
            assert cut.scaled()[2].tolist() == reference.scaled()[2].tolist()
            assert cut.level_values() == [1]


def tuple_orbit(system, points, depth, exact):
    """The orbit as tuples: each step maps one point at a time, each union
    keeps first occurrences in order."""
    level = acc = list(dict.fromkeys(as_point(p, exact) for p in points))
    for _ in range(depth):
        level = list(dict.fromkeys(as_point(f(p), exact) for f in system.maps for p in level))
        acc = list(dict.fromkeys(acc + level))
    return acc


def test_orbit_keeps_the_order_of_the_tuple_loop():
    for system, u in both_modes(random.Random(73), 60):
        depth = random.Random(len(u)).randrange(0, 4)
        orbit = system.orbit(u, depth)
        assert list(orbit.support_points()) == tuple_orbit(system, u.support_points(), depth,
                                                           u.exact)
        assert orbit.level_values() == [1]
