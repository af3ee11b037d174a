import random
from fractions import Fraction

import pytest

from fuzzyifs.dyadic import dyadic_value, reference_system
from fuzzyifs.geometry import FinitePointSet, hausdorff
from fuzzyifs.ifs import AffineMap, IteratedFunctionSystem, SupportCapError
from fuzzyifs.codespace import words_of_length

F = Fraction


def singleton(x, y):
    return FinitePointSet.from_points([(F(x), F(y))])


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


def test_step():
    ident_sys = IteratedFunctionSystem(maps=(AffineMap.identity(2),), contraction_constant=F(0))
    k = FinitePointSet.from_points([(F(0), F(1)), (F(2), F(3))])
    assert ident_sys.step(k).same_points(k)

    sys_ = reference_system().ifs
    k1 = sys_.step(singleton(F(1, 2), 0))
    assert sorted(p[1] for p in k1) == [F(0), F(1, 2)]
    k2 = sys_.step(k1)
    assert sorted(p[1] for p in k2) == [F(0), F(1, 4), F(1, 2), F(3, 4)]


def test_iterate_dyadic_grid_and_history_decay():
    sys_ = reference_system().ifs
    k0 = singleton(F(1, 2), 0)
    final, history = sys_.iterate(k0, steps=0)
    assert final is k0 and history == []

    for n in (1, 3, 5):
        final, history = sys_.iterate(k0, steps=n)
        expected = {dyadic_value(w) for w in words_of_length(2, n)}
        assert {p[1] for p in final} == expected
        assert len(history) == n
        # declared C = 1/2 drives at least geometric decay
        for a, b in zip(history, history[1:]):
            assert b <= a * F(1, 2)


def test_iterate_single_map_shrinks_to_point():
    half = AffineMap(linear=((F(1, 2),),), offset=(F(0),))
    sys_ = IteratedFunctionSystem(maps=(half,), contraction_constant=F(1, 2))
    final, _ = sys_.iterate(FinitePointSet.from_points([(F(1),)]), steps=3)
    assert list(final) == [(F(1, 8),)]


def test_iterate_tol_stopping():
    sys_ = reference_system().ifs
    final, history = sys_.iterate(singleton(F(1, 2), 0), steps=50, tol=F(1, 16))
    assert history[-1] <= F(1, 16)
    assert len(history) < 50


def test_orbit():
    sys_ = reference_system().ifs
    base = singleton(F(1, 2), 0)
    assert sys_.orbit(base, 0).points.same_points(base)
    orb = sys_.orbit(base, 2)
    assert {p[1] for p in orb.points} == {F(0), F(1, 4), F(1, 2), F(3, 4)}
    # nesting in depth and closure under the base
    assert orb.points.issubset(sys_.orbit(base, 3).points)
    assert base.issubset(orb.points)

    ident_sys = IteratedFunctionSystem(maps=(AffineMap.identity(2),), contraction_constant=F(0))
    b = FinitePointSet.from_points([(F(1), F(2))])
    assert ident_sys.orbit(b, 4).points.same_points(b)


def test_orbit_contains_every_word_image():
    sys_ = reference_system().ifs
    base = FinitePointSet.from_points([(F(1, 3), F(1, 5)), (F(0), F(1))])
    depth = 3
    orb = sys_.orbit(base, depth)
    from fuzzyifs.codespace import compose_word, words_up_to
    for word in words_up_to(len(sys_.maps), depth):
        f = compose_word(sys_.maps, word)
        for p in base:
            assert orb.points.contains(f(p))


def test_contractivity_check():
    report = reference_system().ifs.check_contractivity(singleton(F(1, 2), 0), depth=6)
    assert report.max_ratio == F(1, 2)
    assert report.ok

    half = AffineMap(linear=((F(1, 2),),), offset=(F(0),))
    sys_ = IteratedFunctionSystem(maps=(half,), contraction_constant=F(1, 2))
    report = sys_.check_contractivity(FinitePointSet.from_points([(F(1),)]), depth=3)
    assert report.max_ratio == F(1, 2) and report.ok

    double = AffineMap(linear=((F(2),),), offset=(F(0),))
    sys_ = IteratedFunctionSystem(maps=(double,), contraction_constant=F(1, 2))
    report = sys_.check_contractivity(FinitePointSet.from_points([(F(1),)]), depth=3)
    assert report.max_ratio == F(2) and not report.ok


def test_step_monotone_and_union_bound_instance():
    rng = random.Random(13)
    sys_ = reference_system().ifs
    for _ in range(100):
        pts = [(F(rng.randrange(-8, 9), 4), F(rng.randrange(-8, 9), 4))
               for _ in range(rng.randrange(1, 6))]
        k_small = FinitePointSet.from_points(pts[: max(1, len(pts) // 2)])
        k_big = FinitePointSet.from_points(pts)
        assert sys_.step(k_small).issubset(sys_.step(k_big))

        other = FinitePointSet.from_points(
            [(F(rng.randrange(-8, 9), 4), F(rng.randrange(-8, 9), 4))
             for _ in range(rng.randrange(1, 6))])
        lhs = hausdorff(sys_.step(k_big), sys_.step(other))
        per_map = []
        for f in sys_.maps:
            fa = FinitePointSet.from_points([f(p) for p in k_big])
            fb = FinitePointSet.from_points([f(p) for p in other])
            per_map.append(hausdorff(fa, fb))
        assert lhs <= max(per_map)


def test_support_cap():
    sys_ = reference_system().ifs
    with pytest.raises(SupportCapError):
        sys_.iterate(singleton(F(1, 2), 0), steps=10, support_cap=100)
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
