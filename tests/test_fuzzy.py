import io
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from fuzzyifs import fuzzy as fuzzy_module
from fuzzyifs.cli import _CsvTrace
from fuzzyifs.dyadic import reference_system, slice_start
from fuzzyifs.fuzzy import (
    EmptyCutError,
    EmptySupportError,
    FuzzySet,
    GreyLevelMap,
    GreyMapError,
    _rank_dtype,
    alpha_cut,
    apply_grey,
    d_infinity,
    d_infinity_level_sweep,
    join,
    zadeh_pushforward,
)
from fuzzyifs.geometry import (
    _BRUTE_PAIR_LIMIT,
    GRID,
    GridRangeError,
    as_point,
    euclid,
    grid_key,
    hausdorff,
    hausdorff_brute,
)
from fuzzyifs.grid import GridFuzzySet
from fuzzyifs.ifs import AffineMap, IteratedFunctionSystem
from fuzzyifs.properties import _contractive_float_system, _grey
from fuzzyifs.system import OrbitalFuzzySystem

F = Fraction


def fuzzy(*pairs):
    return FuzzySet([(tuple(F(c) for c in p), F(l)) for p, l in pairs])


STEP_AT_HALF = GreyLevelMap.from_breakpoints([(0, 0), (F(1, 2), 0), (F(1, 2), 1), (1, 1)])


def _grey_maps_both_modes(seed):
    """300 seeded maps of the property suites, a jump at t = 0 and a jump at
    t = 1, then the float copy of each."""
    rng = random.Random(seed)
    maps = [GreyLevelMap.from_breakpoints([(0, 0), (0, F(1, 2)), (1, 1)]),
            GreyLevelMap.from_breakpoints([(0, 0), (1, F(1, 2)), (1, 1)])]
    maps += [_grey(rng, reach_one=rng.random() < 0.5) for _ in range(300)]
    return maps + [g.to_float() for g in maps]


def _scan_value(breakpoints, t):
    """rho(t) by a linear scan: the last breakpoint at t if there is one,
    otherwise the line between the breakpoints around t."""
    at_t = [v for s, v in breakpoints if s == t]
    if at_t:
        return at_t[-1]
    for (s0, v0), (s1, v1) in zip(breakpoints, breakpoints[1:]):
        if s0 < t < s1:
            return v0 + (v1 - v0) * (t - s0) / (s1 - s0)


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

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_clamp_edges(self, exact):
        """Within 1e-12 of [0, 1], rounding noise is clamped to the end; past
        that the call raises. The edges are the float bounds, so an exact
        argument meets them as the Fractions of those floats."""
        ramp = GreyLevelMap.linear_ramp(F(3, 4), exact=exact)
        scalar = F if exact else float
        below, above = scalar(-1e-12), scalar(1 + 1e-12)
        assert ramp(below) == 0 and ramp(above) == ramp.value_at_one == scalar(F(3, 4))
        assert ramp(scalar(0)) == 0 and ramp(scalar(1)) == scalar(F(3, 4))
        assert ramp(scalar(F(1, 2))) == scalar(F(3, 8))
        if exact:
            outside = (below - F(1, 10 ** 30), above + F(1, 10 ** 30))
        else:
            outside = (math.nextafter(below, -1), math.nextafter(above, 2))
        for t in outside:
            with pytest.raises(GreyMapError, match="outside"):
                ramp(t)

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
        assert GreyLevelMap.from_breakpoints(STEP_AT_HALF.breakpoints) == STEP_AT_HALF

    def test_evaluation_matches_a_linear_scan(self):
        rng = random.Random(31)
        for g in _grey_maps_both_modes(30):
            pts = g.breakpoints
            ts = [0, 1, *(t for t, _ in pts), *(F(rng.randrange(0, 2 ** 10 + 1), 2 ** 10)
                                                for _ in range(64))]
            for t in ts:
                if g.exact:
                    assert g(t) == _scan_value(pts, t)
                else:
                    assert g(float(t)) == pytest.approx(_scan_value(pts, float(t)), abs=1e-12)

    def test_level_preimage_is_the_first_argument_reaching_alpha(self):
        rng = random.Random(33)
        for g in _grey_maps_both_modes(32):
            top = g.value_at_one
            alphas = [v for _, v in g.breakpoints if v > 0]
            alphas += [top * (F(rng.randrange(1, 2 ** 10 + 1), 2 ** 10) if g.exact
                              else rng.uniform(1e-9, 1)) for _ in range(16)]
            for alpha in alphas:
                beta = g.level_preimage(alpha)
                assert g(beta) >= alpha
                if g.exact and beta > 0:
                    assert g(max(beta - F(1, 2 ** 20), 0)) < alpha

    def test_float_level_preimage_reaches_alpha(self):
        """rho(beta) >= alpha holds in float mode too, where interpolating
        there and back can lose a rounding, and beta stays within 4 ulps of
        the exact preimage of the same breakpoints."""
        from fuzzyifs.properties import _grey

        rounded_down = GreyLevelMap.from_breakpoints(
            [(0, 0), (0.25, 0), (0.9375, 0.9375), (1, 1)], exact=False)
        cases = [(rounded_down, 0.35257846965651385)]
        rng = random.Random(34)
        for _ in range(300):
            g = _grey(rng, reach_one=rng.random() < 0.5).to_float()
            cases += [(g, v) for _, v in g.breakpoints if v > 0]
            cases += [(g, g.value_at_one * rng.uniform(1e-9, 1)) for _ in range(16)]
        for g, alpha in cases:
            beta = g.level_preimage(alpha)
            assert g(beta) >= alpha
            exact = GreyLevelMap.from_breakpoints(
                [(F(t), F(v)) for t, v in g.breakpoints]).level_preimage(F(alpha))
            assert abs(F(beta) - exact) <= 4 * math.ulp(float(exact))

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

    def test_nan_level_is_outside_the_unit_interval(self):
        # NaN fails every comparison, so a test of level < 0 or level > 1
        # lets it through
        with pytest.raises(ValueError, match=r"level nan outside \[0, 1\]"):
            FuzzySet([((0.0, 0.0), math.nan), ((1.0, 0.0), 1.0)], exact=False)
        with pytest.raises(ValueError, match=r"level nan outside \[0, 1\]"):
            FuzzySet([((F(0),), F(1)), ((F(1),), math.nan)], exact=True)

    def test_duplicate_points_max_combine(self):
        u = FuzzySet([((F(0),), F(1, 2)), ((F(0),), F(3, 4))])
        assert u.level((F(0),)) == F(3, 4)

    def test_normal_flag(self):
        assert fuzzy(((0,), 1)).normal
        assert not fuzzy(((0,), F(1, 2))).normal


class TestRankDtypes:
    """Ranks take the smallest unsigned dtype that holds the level table."""

    def test_dtype_follows_the_table(self):
        assert [_rank_dtype(size) for size in (2, 256, 257, 65536, 65537)] == \
            [np.uint8, np.uint8, np.uint16, np.uint16, np.intp]
        pairs = [((F(i), F(0)), F(i + 1, 300)) for i in range(300)]
        u = FuzzySet(pairs)
        assert len(u.scaled()[1]) == 301 and u.scaled()[3].dtype == np.uint16
        assert [u.level(p) for p, _ in pairs] == [level for _, level in pairs]
        assert FuzzySet(pairs[:255]).scaled()[3].dtype == np.uint8

    def test_merged_table_past_one_byte(self, monkeypatch):
        """Each set ranks its 141 or 137 levels in one byte; their merged
        table has 278 entries, so d_infinity ranks the pair in two bytes, and
        still equals the level sweep."""
        rng = random.Random(41)

        def spread(parity):
            pairs = [((F(rng.randrange(-40, 41), 8), F(rng.randrange(-40, 41), 8)),
                      F(2 * i + parity, 284)) for i in range(1, 141)]
            return FuzzySet(pairs + [((F(11), F(11)), F(1))])

        u, v = spread(1), spread(2)
        assert u.scaled()[3].dtype == v.scaled()[3].dtype == np.uint8
        assert len(set(u.level_values()) | set(v.level_values())) + 1 > 256
        assert len(u) * len(v) > _BRUTE_PAIR_LIMIT
        seen = []
        directed = fuzzy_module._directed

        def spy(points, ranks, *args, **kwargs):
            seen.append(ranks.dtype)
            return directed(points, ranks, *args, **kwargs)

        monkeypatch.setattr(fuzzy_module, "_directed", spy)
        assert d_infinity(u, v) == d_infinity(v, u) == d_infinity_level_sweep(u, v)
        assert seen and set(seen) == {np.dtype(np.uint16)}

    def test_directed_sorts_unsigned_ranks_descending(self, monkeypatch):
        """The targets go highest rank first, ties in index order, over the
        whole table: negating an unsigned rank 0 would put it first."""
        seen = []
        monkeypatch.setattr(fuzzy_module, "directed_max_squared",
                            lambda *args, **kwargs: seen.append(args) or 0)
        ranks = np.array([2, 5, 0, 5, 3, 2, 1], dtype=np.uint8)
        points = np.zeros((7, 2), dtype=np.int64)
        fuzzy_module._directed(points, ranks, points, ranks, np.array([0, 1, 4, 6]), 1, True)
        (*_, limits, rows, order), = seen
        assert order.tolist() == [1, 3, 4, 0, 5, 6, 2]
        assert order.tolist() == np.argsort(-ranks.astype(np.intp), kind="stable").tolist()
        assert limits.tolist() == [5, 2, 3, 6] and rows.tolist() == [0, 1, 4, 6]

    def test_equal_sets_whose_rank_dtypes_differ(self):
        u = fuzzy(((0, 0), F(1, 2)), ((1, 0), 1), ((0, 1), F(1, 3)))
        den, levels, points, ranks = u.scaled()
        wide = FuzzySet._from_images(points[::-1].copy(), ranks[::-1].astype(np.intp), den, levels,
                                     2, True)
        assert ranks.dtype == np.uint8 and wide.scaled()[3].dtype == np.intp
        assert wide == u and u == wide

    def test_writers_give_the_same_bytes_for_every_rank_dtype(self):
        u = fuzzy(((0, 0), F(1, 2)), ((F(1, 2), 0), 1), ((0, F(1, 4)), F(1, 3)))
        den, levels, points, ranks = u.scaled()
        pgm = b"P5\n4 4\n255\n" + bytes([0] * 8 + [85, 0, 0, 0] + [128, 0, 255, 0])
        for dtype in (np.uint8, np.uint16, np.intp):
            w = FuzzySet._from_images(points.copy(), ranks.astype(dtype), den, levels, 2, True)
            assert w.scaled()[3].dtype == dtype
            text = io.StringIO()
            _CsvTrace(text)(3, w)
            assert text.getvalue() == "x,y,level,iteration\n0,0,1/2,3\n1/2,0,1,3\n0,1/4,1/3,3\n"
            assert GridFuzzySet.from_fuzzy(w, (0, 0), (1, 1), 4, 4).to_pgm() == pgm


def test_merged_levels_match_the_sorted_union():
    """The one-pass merge of level tables against sorting their union: the
    same table and the same ranks, for exact and float tables that share,
    interleave or nest their levels, and for tables that are one object."""
    rng = random.Random(53)
    for _ in range(400):
        convert = F if rng.random() < 0.5 else float
        tables = []
        for _ in range(rng.randrange(1, 5)):
            if tables and rng.random() < 0.2:
                tables.append(rng.choice(tables))
                continue
            levels = {F(rng.randrange(1, d + 1), d) for d in rng.choices((2, 3, 4, 8), k=rng.randrange(6))}
            tables.append(tuple(map(convert, (0, *sorted(levels)))))
        union = sorted(set().union(*tables))
        merged, ranks = fuzzy_module._merged_levels(tables)
        assert merged == tuple(union)
        assert [list(rank) for rank in ranks] == [[union.index(level) for level in table]
                                                 for table in tables]


class TestFloatGrid:
    """A float set holds the integer form of an exact one over D = 10^12."""

    def test_integer_form(self):
        u = FuzzySet([((0.1, -2.5), 0.5), ((1 / 3, 0.0), 1.0), ((0.1, -2.5), 0.25)], exact=False)
        den, levels, points, ranks = u.scaled()
        assert den == GRID == 10 ** 12
        assert levels == (0.0, 0.5, 1.0)
        assert points.tolist() == [[100_000_000_000, -2_500_000_000_000], [333_333_333_333, 0]]
        assert ranks.tolist() == [1, 2]
        assert u.items() == tuple(
            (tuple(n / 10 ** 12 for n in p), levels[r])
            for p, r in zip(points.tolist(), ranks.tolist()))
        assert u.items()[0] == ((0.1, -2.5), 0.5)
        assert u.level_values() == [0.5, 1.0] and u.max_level == 1.0

    def test_level_looks_up_the_grid_key(self):
        u = FuzzySet([((0.1, -2.5), 0.5), ((1 / 3, 0.0), 1.0)], exact=False)
        assert u.level((0.1 + 3e-13, -2.5 - 3e-13)) == 0.5
        assert u.level((1 / 3 - 3e-13, 3e-13)) == 1.0
        assert u.level((0.1 + 7e-13, -2.5)) == 0.0

    def test_stepped_set_equals_the_set_built_from_its_pairs(self):
        # Both maps halve; the second one's levels (halved) lose every point
        # to the first's, so level 0.25 drops out of the step's table.
        half = AffineMap(linear=((0.5,),), offset=(0.0,))
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(maps=(half, half), contraction_constant=0.5),
            grey_maps=(GreyLevelMap.identity(exact=False), GreyLevelMap.linear_ramp(0.5, exact=False)))
        u = system.step(FuzzySet([((0.0,), 1.0), ((1.0,), 0.5)], exact=False))
        assert u.scaled()[1] == (0.0, 0.5, 1.0)
        assert FuzzySet(u.items(), exact=False) == u
        rng = random.Random(11)
        for _ in range(20):
            system = _contractive_float_system(rng, rng.randrange(1, 4), 0.7)
            u = FuzzySet([((rng.uniform(-1, 1), rng.uniform(-1, 1)), 1.0)], exact=False)
            for _ in range(5):
                u = system.step(u)
                assert FuzzySet(u.items(), exact=False) == u

    def test_point_sets_and_fuzzy_sets_snap_alike(self):
        # 0.1234567890125 * 10^12 is the half-way point 123456789012.5.
        half = 0.1234567890125
        for c in (half, math.nextafter(half, 1), math.nextafter(half, 0),
                  half * (1 + 1e-16), half * (1 - 1e-16), -half, -7.5931668937805):
            snapped = grid_key((c,))[0] / GRID
            assert FuzzySet([((c, 0.0), 1)]).support_points()[0][0] == snapped
            assert FuzzySet([((c, 0.0), 1.0)], exact=False).items()[0][0][0] == snapped
            assert as_point((c,), False) == (snapped,)
        assert grid_key((half,)) == (123_456_789_012,)
        assert grid_key((math.nextafter(half, 1),)) == (123_456_789_013,)
        # round(x, 12) gives -7.593166893781 here; the grid rule rounds x * 10^12.
        assert as_point((-7.5931668937805,), False) == (-7.59316689378,)

    def test_coordinates_off_the_grid(self):
        for bad in (math.inf, math.nan, 1e297):
            with pytest.raises(GridRangeError, match=re.escape(f"float coordinate {bad} is off")):
                FuzzySet([((0.0, bad), 1.0)], exact=False)
            with pytest.raises(GridRangeError):
                FuzzySet([((bad, 0.0), 1)])

    def test_exact_coordinates_past_float_range_are_off_the_grid(self):
        # float(c) itself overflows here, not only float(c) * 10^12
        huge = F(10 ** 400)
        off_grid = re.escape(f"float coordinate {huge} is off the 1e-12 grid")
        with pytest.raises(GridRangeError, match=off_grid):
            FuzzySet([((huge,), 1)], exact=False)
        with pytest.raises(GridRangeError, match=off_grid):
            FuzzySet([((huge, F(0)), F(1))]).to_float()


class TestAlphaCut:
    def test_reference_start(self):
        u = slice_start(F(1, 2))
        cut = alpha_cut(u, 1)
        assert cut.support_points() == ((F(1, 2), F(0)),)

    def test_zero_cut_is_support(self):
        u = fuzzy(((0, 0), F(1, 2)), ((1, 1), 1))
        assert alpha_cut(u, 0) == u.support_set()

    def test_threshold(self):
        u = fuzzy(((0,), 1), ((1,), F(1, 2)))
        assert alpha_cut(u, F(3, 4)).support_points() == ((F(0),),)
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


# Scaled cases of the d_infinity path tests: (points per set, level
# denominator, trials, least pairs in one level group, least level groups in
# one direction). "grid" puts more than _BRUTE_PAIR_LIMIT pairs in one level
# group, so exact mode takes the grid's float shortlist; "levels" has at least 65 level groups, so one direction
# looks at 65 or more prefix lengths.
SCALED_CASES = [
    pytest.param(150, 3, 3, _BRUTE_PAIR_LIMIT + 1, 0, id="grid"),
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


def random_exact_set(rng, n, denominator):
    """n points on the quarter grid of [-3, 3]^2 at levels k / denominator,
    one of them at level 1."""
    pairs = [((F(rng.randrange(-12, 13), 4), F(rng.randrange(-12, 13), 4)),
              F(rng.randrange(1, denominator + 1), denominator)) for _ in range(n)]
    k = rng.randrange(n)
    pairs[k] = (pairs[k][0], F(1))
    return FuzzySet(pairs)


def check_paths_agree_exact(rng, sizes, denominator, trials, min_pairs=0, min_groups=0):
    """Exact d_infinity equals the level sweep, is symmetric and agrees with
    float mode within 1e-9."""
    for _ in range(trials):
        u, v = (random_exact_set(rng, rng.randrange(sizes[0], sizes[1] + 1), denominator)
                for _ in range(2))
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


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_d_infinity_sorts_once_per_round(kernel_counts, exact):
    """The "levels" case looks at 65 or more prefix lengths in one
    direction, yet each directed scan is one kernel call that answers them
    all in one grid round, sorting the targets and the points by cell key
    once, after one sort of the points by their last coordinate."""
    n, denominator, _, _, min_groups = SCALED_CASES[1].values
    rng = random.Random(25)
    u, v = (random_exact_set(rng, n, denominator) for _ in range(2))
    assert_scan_shape(u, v, 0, min_groups)
    if not exact:
        u, v = u.to_float(), v.to_float()
    d_infinity(u, v)
    assert kernel_counts.calls == len(kernel_counts.queries) == 2
    assert kernel_counts.sorts == kernel_counts.calls + 2 * len(kernel_counts.queries) + 2 * exact


def test_huge_denominators_on_the_grid_path():
    """Coordinates over 3^700 in [-4, 4], so the numerators lie far past
    float range: the grid's shortlist must convert n / D, not n. Half of v sits
    1/3^700 away from points of u, closer than floats can tell apart."""
    den = 3 ** 700
    rng = random.Random(71)

    def coordinate():
        return F(rng.randrange(-4 * den, 4 * den), den)

    u_points = [(coordinate(), coordinate()) for _ in range(100)]
    v_points = [(x + F(rng.choice((-1, 1)), den), y) for x, y in u_points[:50]]
    v_points += [(coordinate(), coordinate()) for _ in range(50)]
    u = FuzzySet([(p, F(1) if i % 10 else F(1, 2)) for i, p in enumerate(u_points)])
    v = FuzzySet([(p, F(1) if i % 7 else F(1, 2)) for i, p in enumerate(v_points)])
    assert max(abs(n) for p in u.scaled()[2].tolist() for n in p) > 2 ** 1024
    assert_scan_shape(u, v, _BRUTE_PAIR_LIMIT + 1, 0)
    assert d_infinity(u, v) == d_infinity(v, u) == d_infinity_level_sweep(u, v)
    a, b = u.support_set(), v.support_set()
    assert hausdorff(a, b) == hausdorff_brute(a, b)


def test_diameter_and_join_distance_bounds_small():
    rng = random.Random(30)
    from fuzzyifs.geometry import diameter, int_array, scale_points
    for _ in range(100):
        def mk():
            n = rng.randrange(1, 5)
            pairs = [((F(rng.randrange(-8, 9), 2),), F(rng.randrange(1, 5), 4)) for _ in range(n)]
            pairs[rng.randrange(n)] = (pairs[0][0], F(1))
            return FuzzySet(pairs)
        u, v = mk(), mk()
        den, (rows,) = scale_points(u.support_points() + v.support_points())
        assert d_infinity(u, v) <= diameter(int_array(rows), den, True)
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
