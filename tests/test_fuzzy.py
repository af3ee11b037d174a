import random
from fractions import Fraction

import pytest

from fuzzyifs.dyadic import reference_system, slice_start
from fuzzyifs.fuzzy import (
    EmptyCutError,
    EmptySupportError,
    FuzzySet,
    GreyLevelMap,
    GreyMapError,
    alpha_cut,
    apply_grey,
    d_infinity,
    d_infinity_level_sweep,
    join,
    restrict,
    zadeh_pushforward,
)
from fuzzyifs.geometry import _BRUTE_PAIR_LIMIT, FinitePointSet, euclid
from fuzzyifs.ifs import AffineMap

F = Fraction


def fuzzy(*pairs):
    return FuzzySet([(tuple(F(c) for c in p), F(l)) for p, l in pairs])


STEP_AT_HALF = GreyLevelMap.from_breakpoints([(0, 0), (F(1, 2), 0), (F(1, 2), 1), (1, 1)])


class TestGreyLevelMap:
    def test_identity_and_ramp_evaluation(self):
        ident = GreyLevelMap.identity()
        assert ident(F(3, 10)) == F(3, 10)
        ramp = GreyLevelMap.linear_ramp(F(3, 4))
        assert ramp(1) == F(3, 4)
        assert ramp(F(4, 5)) == F(3, 5)

    def test_step_map_is_right_continuous(self):
        assert STEP_AT_HALF(F(1, 2)) == 1
        assert STEP_AT_HALF(F(1, 2) - F(1, 1000)) == 0
        assert STEP_AT_HALF(1) == 1
        assert STEP_AT_HALF(0) == 0

    def test_domain_errors(self):
        ident = GreyLevelMap.identity()
        with pytest.raises(GreyMapError):
            ident(F(3, 2))
        with pytest.raises(GreyMapError):
            ident(-F(1, 2))

    def test_breakpoint_validation(self):
        with pytest.raises(GreyMapError):
            GreyLevelMap.from_breakpoints([(0, 0)])
        with pytest.raises(GreyMapError):
            GreyLevelMap.from_breakpoints([(0, 0), (F(1, 2), 1)])  # must end at 1
        with pytest.raises(GreyMapError):
            GreyLevelMap.from_breakpoints([(0, 1), (1, 0)])  # decreasing values
        with pytest.raises(GreyMapError):
            GreyLevelMap.from_breakpoints([(0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2)),
                                           (F(1, 2), 1), (1, 1)])  # triple point
        with pytest.raises(GreyMapError):
            GreyLevelMap.from_breakpoints([(0, 0), (1, 2)])  # value outside [0, 1]

    def test_jump_round_trip(self):
        assert GreyLevelMap.from_breakpoints(STEP_AT_HALF.to_breakpoints()) == STEP_AT_HALF

    def test_random_maps_evaluate_nondecreasing(self):
        from fuzzyifs.properties import _grey

        rng = random.Random(12)
        for _ in range(100):
            g = _grey(rng, reach_one=rng.random() < 0.5)
            t1 = F(rng.randrange(0, 65), 64)
            t2 = F(rng.randrange(0, 65), 64)
            if t1 > t2:
                t1, t2 = t2, t1
            assert g(t1) <= g(t2)

    def test_right_continuity_numerically(self):
        g = GreyLevelMap.from_breakpoints(
            [(0, 0), (0.3, 0.2), (0.3, 0.6), (1, 1)], exact=False)
        rng = random.Random(5)
        for _ in range(100):
            t = rng.uniform(0, 1 - 1e-6)
            limit = [g(t + 10 ** -k) for k in range(7, 13)]
            assert abs(limit[-1] - g(t)) <= 1e-9

    def test_level_preimage(self):
        assert GreyLevelMap.identity().level_preimage(F(1, 2)) == F(1, 2)
        assert GreyLevelMap.linear_ramp(F(3, 4)).level_preimage(F(3, 5)) == F(4, 5)
        assert STEP_AT_HALF.level_preimage(F(7, 10)) == F(1, 2)
        with pytest.raises(GreyMapError):
            GreyLevelMap.linear_ramp(F(3, 4)).level_preimage(F(4, 5))
        with pytest.raises(GreyMapError):
            GreyLevelMap.identity().level_preimage(0)

    def test_level_preimage_is_the_infimum(self):
        rng = random.Random(8)
        for _ in range(200):
            ts = sorted({F(rng.randrange(1, 16), 16) for _ in range(3)})
            vals = sorted(F(rng.randrange(0, 17), 16) for _ in range(len(ts)))
            g = GreyLevelMap.from_breakpoints(
                [(F(0), F(0))] + list(zip(ts, vals)) + [(F(1), F(1))])
            alpha = F(rng.randrange(1, 17), 16)
            beta = g.level_preimage(alpha)
            assert g(beta) >= alpha
            for k in range(1, 8):
                gamma = beta - F(k, 128)
                if gamma >= 0:
                    assert g(gamma) < alpha


class TestFuzzySet:
    def test_levels_validated_and_zero_dropped(self):
        u = FuzzySet([((F(0),), F(1)), ((F(1),), F(0))])
        assert len(u) == 1
        with pytest.raises(ValueError):
            FuzzySet([((F(0),), F(3, 2))])
        with pytest.raises(EmptySupportError):
            FuzzySet([])
        with pytest.raises(EmptySupportError):
            FuzzySet([((F(0),), F(0))])

    def test_duplicate_points_max_combine(self):
        u = FuzzySet([((F(0),), F(1, 2)), ((F(0),), F(3, 4))])
        assert u.level((F(0),)) == F(3, 4)

    def test_normal_flag(self):
        assert fuzzy(((0,), 1)).normal
        assert not fuzzy(((0,), F(1, 2))).normal


class TestAlphaCut:
    def test_reference_start(self):
        u = slice_start(F(1, 2))
        cut = alpha_cut(u, 1)
        assert list(cut) == [(F(1, 2), F(0))]

    def test_zero_cut_is_support(self):
        u = fuzzy(((0, 0), F(1, 2)), ((1, 1), 1))
        assert alpha_cut(u, 0).same_points(u.support_set())

    def test_threshold(self):
        u = fuzzy(((0,), 1), ((1,), F(1, 2)))
        assert list(alpha_cut(u, F(3, 4))) == [(F(0),)]
        with pytest.raises(EmptyCutError):
            alpha_cut(fuzzy(((0,), F(1, 2))), F(3, 4))
        with pytest.raises(ValueError):
            alpha_cut(u, F(3, 2))


class TestPushforward:
    def test_injective_relabels(self):
        u = fuzzy(((0, 0), F(1, 2)), ((1, 0), 1))
        shift = AffineMap(linear=((F(1), F(0)), (F(0), F(1))), offset=(F(5), F(7)))
        v = zadeh_pushforward(shift, u)
        assert v.level((F(5), F(7))) == F(1, 2)
        assert v.level((F(6), F(7))) == 1
        assert len(v) == 2

    def test_collapse_takes_max(self):
        u = fuzzy(((0, 0), F(1, 3)), ((1, 0), 1), ((2, 0), F(1, 2)))
        crush = AffineMap(linear=((F(0), F(0)), (F(0), F(0))), offset=(F(9), F(9)))
        v = zadeh_pushforward(crush, u)
        assert len(v) == 1
        assert v.level((F(9), F(9))) == 1
        assert v.normal  # normality preserved

    def test_reference_map_fixes_base_row(self):
        u = fuzzy(((F(1, 3), 0), 1))
        f1 = reference_system().ifs.maps[0]
        assert zadeh_pushforward(f1, u) == u


class TestApplyGrey:
    def test_identity(self):
        u = fuzzy(((0,), 1), ((1,), F(1, 2)))
        assert apply_grey(GreyLevelMap.identity(), u) == u

    def test_ramp(self):
        u = fuzzy(((0,), 1), ((1,), F(1, 2)))
        v = apply_grey(GreyLevelMap.linear_ramp(F(3, 4)), u)
        assert v.level((F(0),)) == F(3, 4)
        assert v.level((F(1),)) == F(3, 8)

    def test_erased_support_is_an_error(self):
        low = fuzzy(((0,), F(1, 5)))
        step = GreyLevelMap.from_breakpoints([(0, 0), (F(1, 4), 0), (F(1, 4), 1), (1, 1)])
        with pytest.raises(EmptySupportError):
            apply_grey(step, low)

    def test_nonzero_at_zero_rejected(self):
        bad = GreyLevelMap.from_breakpoints([(0, F(1, 2)), (1, 1)])
        with pytest.raises(GreyMapError):
            apply_grey(bad, fuzzy(((0,), 1)))


class TestJoinRestrict:
    def test_join_single_and_pair(self):
        u = fuzzy(((0,), 1))
        assert join([u]) == u
        v = fuzzy(((0,), F(1, 2)), ((1,), F(1, 2)))
        j = join([u, v])
        assert j.level((F(0),)) == 1 and j.level((F(1),)) == F(1, 2)

    def test_restrict(self):
        u = fuzzy(((0,), 1), ((1,), F(1, 2)))
        everything = FinitePointSet.from_points([(F(0),), (F(1),), (F(2),)])
        assert restrict(u, everything) == u
        only_one = FinitePointSet.from_points([(F(1),)])
        r = restrict(u, only_one)
        assert len(r) == 1 and r.level((F(1),)) == F(1, 2)
        with pytest.raises(EmptySupportError):
            restrict(u, FinitePointSet.from_points([(F(9),)]))


# Scaled cases of the d_infinity path tests: (points per set, level
# denominator, trials, least pairs in one level group, least level groups in
# one direction). "tree" puts more than _BRUTE_PAIR_LIMIT pairs in one level
# group, so exact mode takes the KD shortlist; "levels" has more than 64
# level groups.
SCALED_CASES = [
    pytest.param(150, 3, 3, _BRUTE_PAIR_LIMIT + 1, 0, id="tree"),
    pytest.param(150, 128, 3, 0, 65, id="levels"),
]


def assert_scan_shape(u, v, min_pairs, min_groups):
    """Check that d_infinity(u, v) does the work the case is meant to cover:
    its largest level group meets at least min_pairs point pairs and one
    direction has at least min_groups level groups."""
    most_pairs = most_groups = 0
    for a, b in ((u, v), (v, u)):
        held = dict(b.items())
        groups = {}
        for p, level in a.items():
            if held.get(p, 0) < level:
                groups[level] = groups.get(level, 0) + 1
        for level, count in groups.items():
            prefix = sum(1 for m in held.values() if m >= level)
            most_pairs = max(most_pairs, count * prefix)
        most_groups = max(most_groups, len(groups))
    assert most_pairs >= min_pairs and most_groups >= min_groups


def check_paths_agree_exact(rng, sizes, denominator, trials, min_pairs=0, min_groups=0):
    """Exact d_infinity equals the level sweep, is symmetric and agrees with
    float mode within 1e-9."""
    for _ in range(trials):
        def mk():
            n = rng.randrange(sizes[0], sizes[1] + 1)
            pairs = [((F(rng.randrange(-12, 13), 4), F(rng.randrange(-12, 13), 4)),
                      F(rng.randrange(1, denominator + 1), denominator)) for _ in range(n)]
            k = rng.randrange(n)
            pairs[k] = (pairs[k][0], F(1))
            return FuzzySet(pairs)
        u, v = mk(), mk()
        assert_scan_shape(u, v, min_pairs, min_groups)
        sweep = d_infinity_level_sweep(u, v)
        assert d_infinity(u, v) == sweep
        assert d_infinity(v, u) == sweep  # symmetry
        assert abs(float(sweep) - d_infinity(u.to_float(), v.to_float())) <= 1e-9


def check_paths_agree_float(rng, sizes, denominator, trials, min_pairs=0, min_groups=0):
    """Float d_infinity equals the float level sweep. Levels are uniform
    unless a denominator is given."""
    for _ in range(trials):
        def mk():
            n = rng.randrange(sizes[0], sizes[1] + 1)
            pairs = [((rng.uniform(-3, 3), rng.uniform(-3, 3)),
                      rng.randrange(1, denominator + 1) / denominator if denominator
                      else rng.uniform(0.1, 1.0))
                     for _ in range(n)]
            k = rng.randrange(n)
            pairs[k] = (pairs[k][0], 1.0)
            return FuzzySet(pairs, exact=False)
        u, v = mk(), mk()
        assert_scan_shape(u, v, min_pairs, min_groups)
        assert d_infinity(u, v) == pytest.approx(d_infinity_level_sweep(u, v), abs=1e-12)


class TestDInfinity:
    def test_identity_and_singletons(self):
        u = fuzzy(((0, 0), 1), ((1, 1), F(1, 2)))
        assert d_infinity(u, u) == 0
        p = fuzzy(((0, 0), 1))
        q = fuzzy(((3, 4), 1))
        assert d_infinity(p, q) == euclid((F(0), F(0)), (F(3), F(4))) == 5

    def test_reference_first_step_distance(self):
        system = reference_system()
        u = slice_start(F(1, 2))
        zu = system.step(u)
        assert d_infinity(zu, u) == F(1, 2)
        assert d_infinity_level_sweep(zu, u) == F(1, 2)

    def test_non_normal_mismatch_raises(self):
        tall = fuzzy(((0,), 1))
        low = fuzzy(((1,), F(1, 2)))
        with pytest.raises(EmptyCutError):
            d_infinity(tall, low)

    def test_paths_agree_exact(self):
        check_paths_agree_exact(random.Random(21), (1, 5), 8, 150)

    def test_paths_agree_float(self):
        check_paths_agree_float(random.Random(22), (1, 5), None, 150)

    @pytest.mark.parametrize("n, denominator, trials, min_pairs, min_groups", SCALED_CASES)
    def test_paths_agree_exact_scaled(self, n, denominator, trials, min_pairs, min_groups):
        check_paths_agree_exact(random.Random(23), (n, n), denominator, trials,
                                min_pairs, min_groups)

    @pytest.mark.parametrize("n, denominator, trials, min_pairs, min_groups", SCALED_CASES)
    def test_paths_agree_float_scaled(self, n, denominator, trials, min_pairs, min_groups):
        check_paths_agree_float(random.Random(24), (n, n), denominator, trials,
                                min_pairs, min_groups)


def test_diameter_and_join_distance_bounds_small():
    rng = random.Random(30)
    from fuzzyifs.geometry import diameter
    for _ in range(100):
        def mk():
            n = rng.randrange(1, 5)
            pairs = [((F(rng.randrange(-8, 9), 2),), F(rng.randrange(1, 5), 4)) for _ in range(n)]
            pairs[rng.randrange(n)] = (pairs[0][0], F(1))
            return FuzzySet(pairs)
        u, v = mk(), mk()
        assert d_infinity(u, v) <= diameter(u.support_set().union(v.support_set()))
        us = [mk() for _ in range(2)]
        vs = [mk() for _ in range(2)]
        assert d_infinity(join(us), join(vs)) <= max(
            d_infinity(a, b) for a, b in zip(us, vs))


def test_pushforward_join_exchange_small():
    rng = random.Random(31)
    for _ in range(100):
        f = AffineMap(
            linear=((F(rng.randrange(-2, 3)), F(0)), (F(rng.randrange(-2, 3)), F(0))),
            offset=(F(rng.randrange(-2, 3)), F(1)),
        )
        family = [
            FuzzySet([((F(rng.randrange(-4, 5)), F(rng.randrange(-4, 5))),
                       F(rng.randrange(1, 5), 4)) for _ in range(rng.randrange(1, 4))])
            for _ in range(rng.randrange(1, 4))
        ]
        assert zadeh_pushforward(f, join(family)) == join(
            [zadeh_pushforward(f, u) for u in family])
