import random
from fractions import Fraction

import numpy as np
import pytest

from fuzzyifs.dyadic import band_start, reference_system, slice_start
from fuzzyifs.fuzzy import (
    EmptySupportError,
    FuzzySet,
    GreyLevelMap,
    apply_grey,
    d_infinity,
    join,
    restrict,
    zadeh_pushforward,
)
from fuzzyifs.geometry import DimensionMismatchError, FinitePointSet
from fuzzyifs.ifs import AffineMap, IteratedFunctionSystem, SupportCapError
from fuzzyifs.numeric import sqrt_exact
from fuzzyifs.properties import _grey
from fuzzyifs.scene import Scene, StopRule, load_scene_dict, scene_to_dict
from fuzzyifs.system import AdmissibilityError, OrbitalFuzzySystem, invariant_domain_check

F = Fraction


STEP_AT_HALF = GreyLevelMap.from_breakpoints([(0, 0), (F(1, 2), 0), (F(1, 2), 1), (1, 1)])


def identity_system(declared_c=F(1, 2)):
    return OrbitalFuzzySystem(
        ifs=IteratedFunctionSystem(maps=(AffineMap.identity(2),), contraction_constant=declared_c),
        grey_maps=(GreyLevelMap.identity(),),
    )


class TestValidate:
    def test_reference_is_admissible(self):
        assert reference_system().validate() == []

    def test_no_map_reaching_one(self):
        base = reference_system()
        ramp = GreyLevelMap.linear_ramp(F(3, 4))
        bad = OrbitalFuzzySystem(ifs=base.ifs, grey_maps=(ramp, ramp))
        violations = bad.validate()
        assert any("rho(1)" in v for v in violations)
        with pytest.raises(AdmissibilityError):
            bad.step(slice_start(F(1, 2)))

    def test_nonzero_at_zero(self):
        base = reference_system()
        lifted = GreyLevelMap.from_breakpoints([(0, F(1, 2)), (1, 1)])
        bad = OrbitalFuzzySystem(ifs=base.ifs, grey_maps=(lifted, GreyLevelMap.identity()))
        assert any("rho(0)" in v for v in bad.validate())

    def test_structure_errors(self):
        base = reference_system()
        with pytest.raises(ValueError):
            OrbitalFuzzySystem(ifs=base.ifs, grey_maps=(GreyLevelMap.identity(),))


class TestStep:
    def test_identity_system_fixes_everything(self):
        u = FuzzySet([((F(0), F(1)), F(1)), ((F(2), F(3)), F(1, 2))])
        assert identity_system().step(u) == u

    def test_reference_first_step(self):
        u1 = reference_system().step(slice_start(F(1, 2)))
        assert dict(u1.items()) == {
            (F(1, 2), F(0)): F(1),
            (F(1, 2), F(1, 2)): F(3, 4),
        }

    def test_reference_second_step(self):
        system = reference_system()
        u2 = system.step(system.step(slice_start(F(1, 2))))
        assert {p[1]: l for p, l in u2.items()} == {
            F(0): F(1), F(1, 4): F(3, 4), F(1, 2): F(3, 4), F(3, 4): F(9, 16),
        }

    def test_float_step_matches_exact(self):
        system = reference_system()
        fsystem = system.to_float()
        u = band_start([0, F(1, 3), 1])
        fu = band_start([0.0, 1 / 3, 1.0], exact=False)
        for _ in range(4):
            u = system.step(u)
            fu = fsystem.step(fu)
        got = sorted(fu.items())
        want = sorted(u.to_float().items())
        assert len(got) == len(want)
        for (p, l), (q, m) in zip(got, want):
            assert max(abs(a - b) for a, b in zip(p, q)) <= 1e-9 and abs(l - m) <= 1e-9

    def test_mode_mixing_rejected(self):
        with pytest.raises(ValueError):
            reference_system().step(band_start([0.0], exact=False))


class TestIterate:
    def test_zero_steps(self):
        u0 = slice_start(F(1, 2))
        final, report = reference_system().iterate(u0, steps=0)
        assert final == u0
        assert report.iterations == 0 and report.d_history == ()

    def test_support_is_the_reachable_value_set(self):
        from fuzzyifs.dyadic import enumerated_levels
        system = reference_system()
        final, report = system.iterate(slice_start(F(1, 2)), steps=4)
        assert {p[1] for p, _ in final.items()} == set(enumerated_levels(4))
        assert len(report.d_history) == 4

    def test_history_decays_geometrically(self):
        _, report = reference_system().iterate(slice_start(F(1, 2)), steps=6)
        for a, b in zip(report.d_history, report.d_history[1:]):
            assert b <= a * F(1, 2)

    def test_tolerance_mode_stops_at_the_bound(self):
        system = reference_system()
        u0 = band_start([0, F(1, 2), 1])
        final, report = system.iterate(u0, tolerance=F(1, 100))
        # independent oracle: bound = sqrt(5) / 2^m <= 1/100 iff 4^m >= 50000
        expected_m = next(m for m in range(100) if 4 ** m >= 50000)
        assert report.iterations == expected_m == 8
        assert report.a_priori <= F(1, 100)
        assert report.certified_residual <= F(1, 100)

    def test_rejects_bad_arguments(self):
        system = reference_system()
        u0 = slice_start(F(1, 2))
        with pytest.raises(ValueError):
            system.iterate(u0)
        with pytest.raises(ValueError):
            system.iterate(u0, steps=2, tolerance=F(1, 10))
        with pytest.raises(ValueError):
            system.iterate(FuzzySet([((F(0), F(0)), F(1, 2))]), steps=1)

    def test_support_cap_carries_partial_report(self):
        system = reference_system()
        with pytest.raises(SupportCapError) as err:
            system.iterate(slice_start(F(1, 2)), steps=12, support_cap=50)
        partial_set, partial_report = err.value.partial
        assert len(partial_set) <= 50
        assert partial_report.iterations == len(partial_report.d_history)


class TestBounds:
    def test_a_priori_reference_values(self):
        system = reference_system()
        u0 = band_start([0, F(1, 2), 1])
        bound0 = system.a_priori_bound(u0, 0)
        assert bound0 == sqrt_exact(F(5))  # 2 * sqrt(5)/2
        assert float(bound0) == pytest.approx(2.2360679, abs=1e-6)
        bounds = [system.a_priori_bound(u0, m) for m in range(10)]
        assert all(b > n for b, n in zip(bounds, bounds[1:]))

    def test_one_diameter_per_run(self, monkeypatch):
        import fuzzyifs.system as system_module

        system = reference_system()
        u0 = band_start([0, F(1, 2), 1])
        measured = []
        real_diameter = system_module.diameter
        monkeypatch.setattr(system_module, "diameter",
                            lambda pts: measured.append(len(pts)) or real_diameter(pts))
        _, report = system.iterate(u0, tolerance=F(1, 100))
        assert measured == [6]  # three base points and their three images
        monkeypatch.undo()
        assert report.diameter == system.reach_diameter(u0) == sqrt_exact(F(5, 4))
        for m in range(report.iterations + 1):
            assert system.scaled_bound(report.diameter, m) == system.a_priori_bound(u0, m)
        assert report.a_priori == system.a_priori_bound(u0, report.iterations)

    def test_constant_maps_give_zero_bound(self):
        const = AffineMap(linear=((F(0), F(0)), (F(0), F(0))), offset=(F(1), F(1)))
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(maps=(const,), contraction_constant=F(0)),
            grey_maps=(GreyLevelMap.identity(),),
        )
        u = slice_start(F(1, 2))
        assert system.a_priori_bound(u, 1) == 0
        assert system.a_priori_bound(u, 5) == 0
        assert system.a_priori_bound(u, 0) > 0  # C^0 = 1 keeps the diameter

    def test_cauchy_bound_instance(self):
        system = reference_system()
        u0 = band_start([0, F(1, 2), 1])
        iterates = [u0]
        for _ in range(6):
            iterates.append(system.step(iterates[-1]))
        c = F(1, 2)
        diam_sq = F(5, 4)
        for m in range(6):
            for n in range(m + 1, 7):
                lhs = d_infinity(iterates[m], iterates[n])
                factor = (c ** m - c ** n) / (1 - c)
                rhs_sq = factor ** 2 * diam_sq
                assert lhs ** 2 <= rhs_sq if isinstance(lhs, F) else lhs.square <= rhs_sq


class TestFixedPoint:
    def test_already_fixed(self):
        u0 = FuzzySet([((F(3), F(4)), F(1))])
        final, report = identity_system().fixed_point(u0, F(1, 1000))
        assert final == u0
        assert report.iterations == 0
        assert report.certified_residual == 0

    def test_reference_limit_levels(self):
        system = reference_system()
        final, report = system.fixed_point(band_start([0, F(1, 2), 1]), F(1, 100))
        x = F(1, 2)
        assert final.level((x, F(0))) == 1
        assert final.level((x, F(1, 2))) == F(3, 4)
        assert final.level((x, F(3, 4))) == F(9, 16)

    def test_off_basin_start_converges_into_the_attractor(self):
        system = reference_system(exact=False)
        u0 = FuzzySet([((0.5, 10.0), 1.0)], exact=False)
        final, report = system.fixed_point(u0, 0.01)
        assert report.certified_residual <= 0.01
        ys = [p[1] for p, _ in final.items()]
        assert all(-0.1 <= y <= 1.2 for y in ys)
        assert all(p[0] == 0.5 for p, _ in final.items())


class TestDecompositionAndMembership:
    def test_orbit_restriction_decomposition(self):
        system = reference_system()
        u3, _ = system.iterate(slice_start(F(1, 2)), steps=3)
        orbit_pts = system.ifs.orbit(
            FinitePointSet.from_points([(F(1, 2), F(0))]), 3).points
        pieces = []
        for p in u3.support_points():
            pieces.append(restrict(u3, FinitePointSet.from_points([p])))
        assert join(pieces) == u3
        assert restrict(u3, orbit_pts) == u3

    def test_join_step_exchange(self):
        system = reference_system()
        rng = random.Random(17)
        for _ in range(50):
            family = []
            for _ in range(rng.randrange(1, 4)):
                n = rng.randrange(1, 4)
                pairs = [((F(rng.randrange(0, 5), 4), F(rng.randrange(0, 5), 4)),
                          F(rng.randrange(1, 5), 4)) for _ in range(n)]
                pairs[rng.randrange(n)] = (pairs[0][0], F(1))
                family.append(FuzzySet(pairs))
            lhs = system.step(join(family))
            rhs = join([system.step(u) for u in family])
            assert lhs == rhs
            # iterated exchange
            lhs2 = system.step(lhs)
            rhs2 = join([system.step(system.step(u)) for u in family])
            assert lhs2 == rhs2

    def test_invariant_domain_check(self):
        system = reference_system()
        assert invariant_domain_check(system, slice_start(F(1, 2))) == "yes"
        not_normal = FuzzySet([((F(1, 2), F(0)), F(1, 2))])
        assert invariant_domain_check(system, not_normal) == "no"
        u2 = system.step(system.step(slice_start(F(1, 2))))
        assert invariant_domain_check(system, u2, depth=4) == "yes"
        # a far-away positive point has no witness inside shallow orbits
        stray = join([slice_start(F(1, 2)), FuzzySet([((F(40), F(40)), F(1, 2))])])
        assert invariant_domain_check(system, stray, depth=2) == "unknown"

    def test_step_preserves_membership_witnesses(self):
        system = reference_system()
        u = slice_start(F(1, 2))
        for _ in range(3):
            u = system.step(u)
            assert invariant_domain_check(system, u, depth=4) == "yes"


def random_system(rng, dim):
    """1 to 3 maps with entries among 0, 1, -1 and non-unit rationals, zero
    and nonzero offsets, and grey maps that may jump; map 0 reaches 1."""
    entries = (F(0), F(0), F(1), F(-1), F(1, 2), F(-1, 3), F(3, 4), F(2))
    offsets = (F(0), F(0), F(1, 2), F(-2, 3), F(3))
    maps, greys = [], []
    for i in range(rng.randrange(1, 4)):
        maps.append(AffineMap(
            linear=tuple(tuple(rng.choice(entries) for _ in range(dim)) for _ in range(dim)),
            offset=tuple(rng.choice(offsets) for _ in range(dim)),
        ))
        greys.append(STEP_AT_HALF if rng.random() < 0.25 else _grey(rng, reach_one=i == 0))
    return OrbitalFuzzySystem(
        ifs=IteratedFunctionSystem(maps=tuple(maps), contraction_constant=F(1, 2)),
        grey_maps=tuple(greys),
    )


def random_fuzzy(rng, dim, normal):
    pairs = [(tuple(F(rng.randrange(-6, 7), rng.choice((1, 2, 3, 4))) for _ in range(dim)),
              F(rng.randrange(1, 9), 8)) for _ in range(rng.randrange(1, 7))]
    if normal:
        pairs[0] = (pairs[0][0], F(1))
    return FuzzySet(pairs)


class TestStepReference:
    """The one-pass step against join(apply_grey(zadeh_pushforward)), in
    both numeric modes."""

    def test_matches_reference_composition(self):
        rng = random.Random(41)
        compared = erased = 0
        for _ in range(400):
            dim = rng.choice((1, 2))
            exact_system = random_system(rng, dim)
            exact_u = random_fuzzy(rng, dim, normal=rng.random() < 0.5)
            for system, u in ((exact_system, exact_u),
                              (exact_system.to_float(), exact_u.to_float())):
                pushed = [zadeh_pushforward(f, u) for f in system.ifs.maps]
                parts = []
                for g, image in zip(system.grey_maps, pushed):
                    try:
                        parts.append(apply_grey(g, image))
                    except EmptySupportError:
                        erased += 1
                if not parts:
                    with pytest.raises(EmptySupportError):
                        system.step(u)
                    continue
                stepped = system.step(u)
                reference = join(parts)
                assert stepped == reference
                if len(parts) == len(pushed):
                    compared += 1
                if all(len(image) == len(u) for image in pushed):
                    # injective maps: the same support order, so the same CSV rows
                    assert list(stepped.support_points()) == list(reference.support_points())
        assert compared > 600 and erased > 10

    def test_erased_part_keeps_the_other_maps(self):
        half = ((F(1, 2), F(0)), (F(0), F(1, 2)))
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(
                maps=(AffineMap(half, (F(0), F(0))), AffineMap(half, (F(1, 2), F(0)))),
                contraction_constant=F(1, 2)),
            grey_maps=(GreyLevelMap.identity(), STEP_AT_HALF),
        )
        u = FuzzySet([((F(0), F(0)), F(1, 4)), ((F(1), F(0)), F(1, 4))])
        exact = system.step(u)
        assert dict(exact.items()) == {(F(0), F(0)): F(1, 4), (F(1, 2), F(0)): F(1, 4)}
        assert system.to_float().step(u.to_float()) == exact.to_float()

    def test_empty_join_raises_in_both_modes(self):
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(maps=(AffineMap.identity(1),), contraction_constant=F(0)),
            grey_maps=(STEP_AT_HALF,),
        )
        u = FuzzySet([((F(0),), F(1, 4))])
        for s, v in ((system, u), (system.to_float(), u.to_float())):
            with pytest.raises(EmptySupportError):
                s.step(v)

    def test_dimension_mismatch_rejected(self):
        # checked once per step: the maps then read coordinates unchecked
        for p in ((F(0),), (F(0), F(0), F(0))):
            with pytest.raises(DimensionMismatchError):
                reference_system().step(FuzzySet([(p, F(1))]))


def _assert_close_sets(exact, floated):
    """The hypographs lie within 1e-9 of each other: every point of either
    set has a point of the other within 1e-9 whose level is at least its
    own minus 1e-9.

    Float mode snaps points to a 1e-12 grid, so one exact point can come out
    as two float points 1e-12 apart, one of them at a lower level; the
    higher one covers it, so the sets still agree as fuzzy sets.
    """
    a, b = (
        (np.array([p for p, _ in u.items()]), np.array([l for _, l in u.items()]))
        for u in (exact.to_float(), floated)
    )
    for (pts, levels), (other, other_levels) in ((a, b), (b, a)):
        for p, level in zip(pts, levels):
            near = np.abs(other - p).max(axis=1) <= 1e-9
            assert np.any(near & (other_levels >= level - 1e-9))


def test_modes_agree_on_random_scenes():
    """Cross-mode differential check: random exact scenes, loaded once as
    written and once with the float override, agree on every iterate and on
    the report. Half of them stop on a tolerance, which both modes must turn
    into the same step count."""
    rng = random.Random(43)
    for _ in range(60):
        dim = rng.choice((1, 2))
        system = random_system(rng, dim)
        u0 = random_fuzzy(rng, dim, normal=True)
        m = rng.randrange(0, 4)
        if rng.random() < 0.5:
            stop = StopRule(steps=m)
        else:
            # just above the bound at m, so below the bound at m - 1 (twice it)
            bound = float(system.scaled_bound(system.reach_diameter(u0), m))
            stop = StopRule(tolerance=F(bound) * F(1_000_001, 1_000_000))
        doc = scene_to_dict(Scene(dimension=dim, numeric_mode="exact", system=system,
                                  initial=u0, stop=stop, render=None))
        runs = []
        for mode in (None, "float"):
            scene = load_scene_dict(doc, mode_override=mode)
            iterates = [scene.initial]
            final, report = scene.system.iterate(
                scene.initial, steps=scene.stop.steps, tolerance=scene.stop.tolerance,
                on_step=lambda n, u: iterates.append(u))
            assert iterates[-1] is final
            runs.append((iterates, report))
        (exact_iterates, report), (float_iterates, freport) = runs
        assert report.iterations == freport.iterations == m
        for u, fu in zip(exact_iterates, float_iterates):
            _assert_close_sets(u, fu)
        for d, fd in zip(report.d_history, freport.d_history):
            assert abs(float(d) - fd) <= 1e-9
        for name in ("a_priori", "certified_residual", "diameter"):
            assert abs(float(getattr(report, name)) - getattr(freport, name)) <= 1e-9


def test_operator_continuity_majorant_shrinks():
    system = reference_system()
    u = slice_start(F(1, 2))
    previous = None
    for k in (2, 4, 8, 16, 32):
        shifted = FuzzySet([((F(1, 2), F(1, k)), F(1))])
        majorant = max(
            d_infinity(zadeh_pushforward(f, shifted), zadeh_pushforward(f, u))
            for f in system.ifs.maps
        )
        assert d_infinity(system.step(shifted), system.step(u)) <= majorant
        if previous is not None:
            assert majorant <= previous  # approaching starts shrink the majorant
        previous = majorant
    assert previous == F(1, 64)  # maps halve the slice distance 1/32
