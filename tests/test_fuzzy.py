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
    join,
    zadeh_pushforward,
)
from fuzzyifs import geometry
from fuzzyifs.geometry import (
    _BRUTE_PAIR_LIMIT,
    GRID,
    DimensionMismatchError,
    GridRangeError,
    as_point,
    directed_distance,
    euclid,
    grid_key,
    hausdorff,
)
from fuzzyifs.grid import GridFuzzySet
from fuzzyifs.ifs import AffineMap, IteratedFunctionSystem
from fuzzyifs.properties import _contractive_float_system, _grey, d_infinity_level_sweep
from fuzzyifs.system import OrbitalFuzzySystem

from brute import directed_distance_brute, hausdorff_brute

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

    def test_points_of_dimension_zero_are_refused(self):
        with pytest.raises(DimensionMismatchError, match="^support points of dimension 0$"):
            FuzzySet([((), 1)])
        with pytest.raises(DimensionMismatchError, match="dimension 0"):
            FuzzySet([((), 0.5)], exact=False)

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

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_level_of_a_point_of_another_dimension(self, exact):
        """A point of the wrong dimension raises, as an affine map's call
        does, where it used to read as off the support."""
        u = FuzzySet([((0, 0), 1)], exact=exact)
        assert u.level((0, 0)) == 1 and u.level((1, 0)) == 0
        for p in ((0,), (0, 0, 0)):
            with pytest.raises(DimensionMismatchError, match=f"point of dimension {len(p)}, set of 2"):
                u.level(p)


class TestRankDtypes:
    """Ranks take the smallest unsigned dtype that holds the level table."""

    def test_dtype_follows_the_table(self):
        assert [_rank_dtype(size) for size in (2, 256, 257, 65536, 65537)] == \
            [np.uint8, np.uint8, np.uint16, np.uint16, np.intp]
        pairs = [((F(i), F(0)), F(i + 1, 300)) for i in range(300)]
        u = FuzzySet(pairs)
        assert len(u.scaled()[1][1]) == 301 and u.scaled()[3].dtype == np.uint16
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
    """The merge of level tables (L, levels) against sorting the union of
    their values: the same table and the same ranks, for exact tables on
    unlike L and float tables (L = 1) that share, interleave or nest their
    levels, and for tables that are one object."""
    rng = random.Random(53)
    for _ in range(400):
        exact = rng.random() < 0.5
        tables, values = [], []
        for _ in range(rng.randrange(1, 5)):
            if tables and rng.random() < 0.2:
                k = rng.randrange(len(tables))
                tables.append(tables[k])
                values.append(values[k])
                continue
            levels = [0, *sorted({F(rng.randrange(1, d + 1), d)
                                  for d in rng.choices((2, 3, 4, 8), k=rng.randrange(6))})]
            if exact:
                lden = math.lcm(*(level.denominator for level in levels))
                tables.append((lden, tuple(int(level * lden) for level in levels)))
            else:
                levels = list(map(float, levels))
                tables.append((1, tuple(levels)))
            values.append(levels)
        union = sorted(set().union(*values))
        (lden, merged), ranks = fuzzy_module._merged_levels(tables)
        assert [F(level, lden) if exact else level for level in merged] == union
        assert [list(rank) for rank in ranks] == [[union.index(level) for level in table]
                                                 for table in values]


class TestFloatGrid:
    """A float set holds the integer form of an exact one over D = 10^12."""

    def test_integer_form(self):
        u = FuzzySet([((0.1, -2.5), 0.5), ((1 / 3, 0.0), 1.0), ((0.1, -2.5), 0.25)], exact=False)
        den, (lden, levels), points, ranks = u.scaled()
        assert den == GRID == 10 ** 12
        assert lden == 1 and levels == (0.0, 0.5, 1.0)
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
        assert u.scaled()[1] == (1, (0.0, 0.5, 1.0))
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


def test_seeds_pair_a_repeated_row_with_a_target():
    """A part that repeats rows, as the images of a map that is not
    injective do, against targets that hold each row once. Every pair of
    shared rows is a row of the part and an equal row of the targets, and
    every seed, in either direction, names a row at its point's rank or
    above. Pairing the neighbours of the sort without looking at which set
    each comes from would pair the part's two (0, 0) rows with each other."""
    points = np.array([[0, 0], [1, 0], [0, 0], [2, 0], [1, 0], [0, 0]])
    ranks = np.array([1, 2, 2, 1, 1, 1], dtype=np.uint8)
    targets = np.array([[1, 0], [0, 0], [5, 5], [2, 0]])
    target_ranks = np.array([1, 2, 2, 2], dtype=np.uint8)
    in_part, in_v = fuzzy_module._shared_rows(points, targets)
    assert sorted(zip(in_part.tolist(), in_v.tolist())) == [(3, 3), (4, 0), (5, 1)]
    assert np.array_equal(points[in_part], targets[in_v])
    down = fuzzy_module._seeds(np.full(len(points), 1), ranks, target_ranks, in_part, in_v)
    up = fuzzy_module._seeds(np.full(len(targets), 1), target_ranks, ranks, in_v, in_part)
    assert (target_ranks[down] >= ranks).all() and (ranks[up] >= target_ranks).all()
    assert down.tolist() == [1, 1, 1, 3, 0, 1] and up.tolist() == [4, 1, 1, 1]


def test_a_shared_row_below_the_level_seeds_nothing(monkeypatch):
    """Both sets hold the same three rows, v one level lower at (0, 0): the
    row v shares with u's (0, 0) is no witness of it, whose distance, 3,
    is the pair's; every other point has its own row at its level."""
    monkeypatch.setattr(fuzzy_module, "_BRUTE_PAIR_LIMIT", 0)
    u = fuzzy(((0, 0), 1), ((3, 0), 1), ((10, 0), 1))
    v = fuzzy(((0, 0), F(1, 2)), ((3, 0), 1), ((10, 0), 1))
    assert d_infinity(u, v) == d_infinity(v, u) == d_infinity_level_sweep(u, v) == 3


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_every_seeded_witness_lies_at_its_level_or_above(exact):
    """u is v and one point more, the one point of either side that the
    other does not hold; its exact kernel call is a scan small enough to
    find no witness, and it keeps a row of v's top level. Every witness
    that the seeded pair hands a run names a row at its point's level or
    above."""
    rng = random.Random(43)
    pairs = [((F(k), F(rng.randrange(9))), F(rng.randrange(1, 5), 4)) for k in range(70)]
    u, v = FuzzySet(pairs + [((F(-5), F(0)), F(1))]), FuzzySet(pairs)
    if not exact:
        u, v = u.to_float(), v.to_float()
    assert len(u) * len(v) > _BRUTE_PAIR_LIMIT
    distance, (down, up) = fuzzy_module._pair_distance(u, v)
    assert distance == d_infinity_level_sweep(u, v)
    u_levels, v_levels = ([level for _, level in s.items()] for s in (u, v))
    assert (down >= 0).all() and (up >= 0).all()
    assert all(v_levels[j] >= level for j, level in zip(down.tolist(), u_levels))
    assert all(u_levels[j] >= level for j, level in zip(up.tolist(), v_levels))


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


def small_exact_pairs(rng, count):
    """count pairs of exact sets of 1 to 8 points in 1 to 3 dimensions,
    drawn from one pool of points, so that they share some, with unlike
    coordinate and level denominators and one point of each at level 1; in
    about a third of them the numerators pass 2^62."""
    for _ in range(count):
        dim = rng.choice((1, 2, 3))
        span = 2 ** 64 if rng.random() < 0.3 else 12
        pool = [tuple(F(rng.randrange(-span, span + 1), rng.choice((1, 3, 4, 7)))
                      for _ in range(dim)) for _ in range(10)]

        def mk():
            pairs = [(rng.choice(pool), F(rng.randrange(1, 7), 6) / rng.choice((1, 2, 5)))
                     for _ in range(rng.randrange(1, 9))]
            pairs[0] = (pairs[0][0], F(1))
            return FuzzySet(pairs)

        yield mk(), mk()


def swept_brute(u, v):
    """d_infinity(u, v) by the level sweep over the brute-force Hausdorff
    distance."""
    levels = sorted(set(u.level_values()) | set(v.level_values()))
    return max(hausdorff_brute(alpha_cut(u, a), alpha_cut(v, a)) for a in levels)


def test_small_exact_pairs_match_the_references(monkeypatch):
    """Small exact pairs take lists of Python ints in hausdorff,
    directed_distance and d_infinity; _BRUTE_PAIR_LIMIT = 0 sends them to the
    arrays. Both agree with the brute-force loops of tests/brute.py and the
    level sweep in value and in type (Fraction or Radical), on 1-3-D pairs
    with unlike denominators, some held in object arrays."""
    cases = list(small_exact_pairs(random.Random(91), 150))
    assert any(u.scaled()[2].dtype == object for pair in cases for u in pair)
    assert max(len(u) * len(v) for u, v in cases) <= _BRUTE_PAIR_LIMIT
    results = []
    for limit in (_BRUTE_PAIR_LIMIT, 0):
        monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", limit)
        monkeypatch.setattr(fuzzy_module, "_BRUTE_PAIR_LIMIT", limit)
        results.append([(hausdorff(a, b), directed_distance(a, b), directed_distance(b, a),
                         d_infinity(u, v), d_infinity(v, u), d_infinity_level_sweep(u, v))
                        for u, v in cases for a, b in [(u.support_set(), v.support_set())]])
    for (u, v), *paths in zip(cases, *results):
        a, b = u.support_set(), v.support_set()
        swept = swept_brute(u, v)
        expected = (hausdorff_brute(a, b), directed_distance_brute(a, b),
                    directed_distance_brute(b, a), swept, swept, swept)
        for got in paths:
            assert got == expected
            assert [type(x) for x in got] == [type(x) for x in expected]


class TestIntegerLevels:
    """An exact set holds its levels as int numerators over the least level
    denominator L, and shows Fractions only at the boundary."""

    def test_unlike_denominators_show_the_given_fractions(self):
        levels = [F(1, 3), F(2, 5), F(7, 15), F(2, 5)]
        pairs = [((F(k), F(1, k + 1)), level) for k, level in enumerate(levels)]
        u = FuzzySet(pairs)
        assert u.scaled()[1] == (15, (0, 5, 6, 7))
        assert u.items() == tuple(pairs) and u.level_values() == [F(1, 3), F(2, 5), F(7, 15)]
        assert [u.level(p) for p, _ in pairs] == levels and u.level((F(9), F(9))) == 0
        assert u.max_level == F(7, 15) and not u.normal
        shown = [level for _, level in u.items()] + u.level_values() + [u.max_level]
        assert all(type(level) is F for level in shown)
        assert all(type(u.level(p)) is F for p in ((F(0), F(1)), (F(9), F(9)), (F(1, 7), F(0))))
        # Lifting the 1/3 and 7/15 points to 1 leaves 2/5 and 1: L falls to 5.
        top = FuzzySet([(pairs[0][0], 1), (pairs[2][0], 1)])
        w = join([u, top])
        assert w.scaled()[1] == (5, (0, 2, 5)) and w.max_level == 1 and w.normal
        assert w == FuzzySet(w.items()) and alpha_cut(w, F(1, 2)) == top

    def test_join_and_cut_stay_on_least_terms(self):
        """join takes no gcd: sets on least terms have a union on least
        terms. A cut that drops rows takes one. Either equals the set built
        from its pairs, whose form is the least."""
        rng = random.Random(92)
        for _ in range(300):
            dim = rng.choice((1, 2, 3))
            sets = []
            for _ in range(rng.randrange(2, 4)):
                den = rng.choice((1, 2, 6, 10, 35))
                pairs = [(tuple(F(rng.randrange(-20, 21), den) for _ in range(dim)),
                          F(rng.randrange(1, 13), 12)) for _ in range(rng.randrange(1, 7))]
                sets.append(FuzzySet(pairs))
            union = join(sets)
            assert union == FuzzySet([pair for u in sets for pair in u.items()])
            alpha = F(rng.randrange(0, 13), 12)
            cuts = [alpha_cut(u, alpha) for u in (union, *sets) if u.max_level >= alpha]
            for w in (union, *cuts):
                den, (lden, levels), points, _ = w.scaled()
                assert math.gcd(den, *points.ravel().tolist()) == 1
                assert math.gcd(lden, *levels) == 1
                assert w == FuzzySet(w.items())

    def test_small_exact_calls_make_no_fractions_but_the_root(self, monkeypatch):
        """Counted, not timed: a small exact d_infinity makes one Fraction,
        its root (or a Radical's square), and alpha_cut makes none."""
        u = FuzzySet([((F(1, 3), F(2)), F(1, 3)), ((F(0), F(1, 2)), 1), ((F(5), F(-1, 4)), F(2, 5))])
        v = FuzzySet([((F(1, 3), F(2)), F(7, 15)), ((F(3, 2), F(1)), 1), ((F(-2), F(0)), F(1, 6))])
        alphas = [0, F(1, 3), F(2, 5), F(1, 2), 1]
        made = []
        original = F.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)
        for a, b in ((u, v), (v, u), (u, u)):
            made.clear()
            d_infinity(a, b)
            assert len(made) <= 1
        made.clear()
        cuts = [alpha_cut(w, alpha) for w in (u, v) for alpha in alphas]
        assert made == []
        monkeypatch.undo()
        assert d_infinity(u, v) == d_infinity_level_sweep(u, v)
        assert [len(cut) for cut in cuts] == [3, 3, 2, 1, 1, 3, 2, 2, 1, 1]

    def test_exact_grey_values_are_fractions_on_integers(self):
        """An exact map evaluated at an int or a Fraction in [0, 1] gives
        the Fraction of the linear scan, and `_ratio_at` its reduced ratio."""
        rng = random.Random(93)
        for g in _grey_maps_both_modes(94)[:302]:
            pts = g.breakpoints
            for t in [0, 1, *(t for t, _ in pts), *(F(rng.randrange(0, 97), 96) for _ in range(16))]:
                value = g(t)
                assert type(value) is F and value == _scan_value(pts, t)
                assert g._ratio_at(t.numerator, t.denominator) == value.as_integer_ratio()
