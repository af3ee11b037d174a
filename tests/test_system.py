import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fuzzyifs import fuzzy, geometry
from fuzzyifs import system as system_module
from fuzzyifs.dyadic import band_start, reference_system, slice_start
from fuzzyifs.fuzzy import (
    EmptyCutError,
    EmptySupportError,
    FuzzySet,
    GreyLevelMap,
    apply_grey,
    d_infinity,
    join,
    zadeh_pushforward,
)
from fuzzyifs.geometry import (
    GRID,
    DimensionMismatchError,
    diameter,
    grid_key,
    int_array,
    scale_points,
)
from fuzzyifs.ifs import AffineMap, IteratedFunctionSystem, SupportCapError
from fuzzyifs.numeric import Radical, sqrt_exact
from fuzzyifs.properties import _grey, d_infinity_level_sweep, invariant_domain_check
from fuzzyifs.scene import Scene, StopRule, load_scene, load_scene_dict, scene_to_dict
from fuzzyifs.system import AdmissibilityError, ContractionViolationError, OrbitalFuzzySystem

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

    def test_violations_are_found_once(self, monkeypatch):
        """Built systems keep their violations: steps and iterations raise
        on them without evaluating the grey maps again."""
        good = reference_system()
        ramp = GreyLevelMap.linear_ramp(F(3, 4))
        bad = OrbitalFuzzySystem(ifs=good.ifs, grey_maps=(ramp, ramp))
        monkeypatch.setattr(OrbitalFuzzySystem, "_find_violations",
                            lambda self: pytest.fail("violations searched again"))
        good.iterate(slice_start(F(1, 2)), steps=3)
        with pytest.raises(AdmissibilityError) as caught:
            bad.iterate(slice_start(F(1, 2)), steps=3)
        assert caught.value.violations == bad.validate() == ["no grey map attains rho(1) = 1"]
        bad.validate().clear()
        assert bad.validate() != []

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

    def test_nan_tolerance_is_refused_up_front(self, monkeypatch):
        """NaN fails tolerance <= 0 as it fails every comparison; refused
        before the reach diameter, not after a walk of every bound."""

        def forbidden(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(OrbitalFuzzySystem, "reach_diameter", forbidden)
        u0 = slice_start(F(1, 2))
        for system, u in ((reference_system(), u0), (reference_system(exact=False), u0.to_float())):
            with pytest.raises(ValueError, match="^tolerance must be positive$"):
                system.iterate(u, tolerance=math.nan)

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

    def test_support_cap_carries_partial_report(self, monkeypatch):
        system = reference_system()
        with pytest.raises(SupportCapError) as err:
            system.iterate(slice_start(F(1, 2)), steps=12, support_cap=50)
        partial_set, partial_report = err.value.partial
        assert len(partial_set) <= 50
        assert partial_report.iterations == len(partial_report.d_history)

        # The residual step counts too: two steps of the slice fit a cap of 4
        # points, and the residual step's image of 8 points does not.
        _, full_report = system.iterate(slice_start(F(1, 2)), steps=2)
        with pytest.raises(SupportCapError) as err:
            system.iterate(slice_start(F(1, 2)), steps=2, support_cap=4)
        partial_set, partial_report = err.value.partial
        assert len(partial_set) == 4
        assert partial_report.iterations == 2
        assert partial_report.d_history == full_report.d_history
        assert partial_report.a_priori == full_report.a_priori
        assert partial_report.certified_residual is None

        # A start of 5 points under a cap of 3: the image under the first map
        # passes the cap, and the step stops before it applies the second
        # map, the one with a nonzero offset. The step applies each map once,
        # to all points.
        offsets = []
        real_apply = AffineMap._apply
        monkeypatch.setattr(AffineMap, "_apply",
                            lambda f, p: offsets.append(f.offset) or real_apply(f, p))
        monkeypatch.setattr(OrbitalFuzzySystem, "reach_diameter", lambda self, u: F(1))
        xs = [0, F(1, 4), F(1, 2), F(3, 4), 1]
        for s, u0 in ((system, band_start(xs)), (system.to_float(), band_start(xs, exact=False))):
            offsets.clear()
            with pytest.raises(SupportCapError) as err:
                s.iterate(u0, steps=3, support_cap=3)
            partial_set, partial_report = err.value.partial
            assert partial_set == u0
            assert partial_report.iterations == 0 and partial_report.d_history == ()
            assert partial_report.a_priori == s.scaled_bound(partial_report.diameter, 0)
            assert len(offsets) == 1 and not any(offsets[0])

    def test_slow_contraction_singleton(self):
        """x -> 99/100 x + (1, 2) from the origin: the n-th iterate is the
        point (1, 2)(1 - C^n)/(1 - C), so d_n = sqrt(5) C^(n-1) exactly, here
        for 1,000 steps whose denominators reach 100^999."""
        c = F(99, 100)
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(maps=(AffineMap(((c, F(0)), (F(0), c)), (F(1), F(2))),),
                                       contraction_constant=c),
            grey_maps=(GreyLevelMap.identity(),),
        )
        _, report = system.iterate(FuzzySet([((F(0), F(0)), F(1))]), steps=1000)
        for n in (1, 2, 10, 500, 1000):
            assert report.d_history[n - 1] == sqrt_exact(5 * c ** (2 * (n - 1)))


    def test_audit_of_the_contraction_constant(self):
        """From step 2 on, and for the residual, d_n <= C d_(n-1) must hold:
        exactly in exact mode, on squares when the distances are Radicals,
        and up to 1e-9 relative plus the rounding of the grid and the maps
        in float mode. x -> x/2 from (1, 1) gives d_n = sqrt(2) / 2^n, half
        of d_(n-1)."""
        def halving(c, exact=True):
            number = F if exact else float
            half, zero = number(F(1, 2)), number(0)
            return OrbitalFuzzySystem(
                ifs=IteratedFunctionSystem(maps=(AffineMap(((half, zero), (zero, half)), (zero, zero)),),
                                           contraction_constant=number(c)),
                grey_maps=(GreyLevelMap.identity(exact),),
            ), FuzzySet([((number(1), number(1)), number(1))], exact=exact)

        system, u0 = halving(F(1, 2))
        _, report = system.iterate(u0, steps=4)
        assert report.d_history[1] == sqrt_exact(F(1, 8))
        for steps, at in ((4, 2), (1, 2), (0, None)):
            system, u0 = halving(F(1, 2) - F(1, 10 ** 30))
            if at is None:
                system.iterate(u0, steps=steps)
                continue
            with pytest.raises(ContractionViolationError) as err:
                system.iterate(u0, steps=steps,
                               on_step=lambda n, u: n < at or pytest.fail("audit too late"))
            assert (err.value.step, err.value.ratio) == (at, 0.5)
            assert err.value.constant == F(1, 2) - F(1, 10 ** 30)
        system, u0 = halving(0.5, exact=False)
        system.iterate(u0, steps=6)
        system, u0 = halving(0.5 * (1 - 1e-7), exact=False)
        with pytest.raises(ContractionViolationError, match="step 2 moved the iterate 0.5 times"):
            system.iterate(u0, steps=6)

    @pytest.mark.parametrize("shift", [0, 10 ** 4])
    def test_float_audit_allows_for_rounding(self, shift):
        """A float run of a true contraction never fails the audit, even
        where the grid and the map's rounding, about 10^-12 per coordinate
        at the origin and 2 * 10^-12 past |x| = 9007, where the keys pass
        2^53, are most of each distance: x -> R x / 2 + b in the plane, R a
        rotation, conjugated by a translation and run from one point to a
        tolerance of 10^-9, with 40 angles."""
        for i in range(40):
            angle = 0.1 + 0.137 * i
            cos, sin = math.cos(angle) / 2, math.sin(angle) / 2
            linear = ((cos, -sin), (sin, cos))
            offset = tuple(shift + 0.1 - sum(row) * shift for row in linear)
            system = OrbitalFuzzySystem(
                ifs=IteratedFunctionSystem(maps=(AffineMap(linear, offset),), contraction_constant=0.5),
                grey_maps=(GreyLevelMap.identity(False),))
            u0 = FuzzySet([((shift + 1.0, float(shift)), 1.0)], exact=False)
            _, report = system.iterate(u0, tolerance=1e-9)
            assert report.iterations > 25 and report.certified_residual <= 1e-9


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
                            lambda rows, *args: measured.append(len(rows)) or real_diameter(rows, *args))
        _, report = system.iterate(u0, tolerance=F(1, 100))
        assert measured == [6]  # three base points and their three images
        monkeypatch.undo()
        assert report.diameter == system.reach_diameter(u0) == sqrt_exact(F(5, 4))
        for m in range(report.iterations + 1):
            assert system.scaled_bound(report.diameter, m) == system.a_priori_bound(u0, m)
        assert report.a_priori == system.a_priori_bound(u0, report.iterations)

    def test_float_report_is_the_certified_bound(self):
        """A float run reports the bound its stop rule compared with the
        tolerance, not a recomputation that can land one ulp above it."""

        def one_map_system(c, b):
            return OrbitalFuzzySystem(
                ifs=IteratedFunctionSystem(maps=(AffineMap(linear=((c,),), offset=(b,)),),
                                           contraction_constant=c),
                grey_maps=(GreyLevelMap.identity().to_float(),),
            )

        system = one_map_system(0.347084, 5.054997)
        u0 = FuzzySet([((0.0,), 1.0)], exact=False)
        tol = 0.001630573357116929
        _, report = system.iterate(u0, tolerance=tol)
        assert report.iterations == 8
        assert report.a_priori <= tol
        assert report.a_priori == system.scaled_bound(report.diameter, 8)

        rng = random.Random(11)
        for _ in range(200):
            c = rng.uniform(0.05, 0.95)
            system = one_map_system(c, rng.uniform(-9, 9))
            u0 = FuzzySet([((rng.uniform(-9, 9),), 1.0)], exact=False)
            m = rng.randrange(0, 30)
            # the bound at m, walked by hand: diam/(1-C), then times C per step
            tol = system.reach_diameter(u0) / (1 - c)
            for _ in range(m):
                tol *= c
            _, report = system.iterate(u0, tolerance=tol)
            assert report.iterations == m
            assert report.a_priori <= tol
            assert report.a_priori == system.scaled_bound(report.diameter, m)

    def test_exact_certificate_against_a_float_tolerance(self):
        """An exact bound compares exactly with a float tolerance: the float
        nearest sqrt(104) lies below it, so m = 0 does not certify it."""
        half = AffineMap(linear=((F(1, 2), F(0)), (F(0), F(1, 2))), offset=(F(0), F(0)))
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(maps=(half,), contraction_constant=F(1, 2)),
            grey_maps=(GreyLevelMap.identity(),),
        )
        u0 = FuzzySet([((F(0), F(0)), F(1)), ((F(1), F(5)), F(1))])
        tol = 10.198039027185569
        assert tol == float(sqrt_exact(F(104)))
        _, report = system.iterate(u0, tolerance=tol)
        assert report.iterations == 1
        assert report.a_priori == sqrt_exact(F(26)) and report.a_priori <= tol

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


def crisp_reach_diameter(system, u):
    """diam(supp u together with its image under every map): the reach set
    built from point tuples, each map applied to one point at a time,
    measured on its integer form."""
    supp = u.support_points()
    reach = FuzzySet([(p, 1) for p in (*supp, *(f(p) for f in system.ifs.maps for p in supp))],
                     exact=u.exact).support_points()
    if u.exact:
        den, (rows,) = scale_points(reach)
        return diameter(int_array(rows), den, True)
    return diameter(int_array([grid_key(p) for p in reach]), GRID, False)


class TestReachDiameter:
    """The reach diameter from the step's images of u's integer form."""

    def test_matches_the_crisp_route(self):
        """Random systems whose grey maps may erase levels, in both modes,
        and bands whose numerators or keys pass int64."""
        rng = random.Random(67)
        erasing = 0
        cases = [shifted_band(exact, shift) for exact, shift in ((True, 2 ** 70), (False, 10 ** 7))]
        for _ in range(300):
            dim = rng.choice((1, 2, 3))
            system = random_system(rng, dim)
            u = random_fuzzy(rng, dim, normal=rng.random() < 0.5)
            erasing += any(g(level) == 0 for g in system.grey_maps for level in u.level_values())
            cases += [(system, u), (system.to_float(), u.to_float())]
        for system, u in cases:
            got, want = system.reach_diameter(u), crisp_reach_diameter(system, u)
            assert got == want and type(got) is type(want)
        assert erasing > 50

    def test_a_run_stays_on_the_integer_form(self, monkeypatch):
        """iterate builds no set from point tuples, makes no set's tuple
        view and never calls the crisp step."""

        def forbidden(*args, **kwargs):
            raise AssertionError("a run left the integer form")

        system, u0 = reference_system(), band_start([F(k, 16) for k in range(17)])
        runs = ((system, u0, F(1, 100)), (system.to_float(), u0.to_float(), 0.01))
        monkeypatch.setattr(FuzzySet, "__init__", forbidden)
        monkeypatch.setattr(FuzzySet, "items", forbidden)
        monkeypatch.setattr(IteratedFunctionSystem, "step", forbidden)
        for s, u, tol in runs:
            s.iterate(u, tolerance=tol)
            s.iterate(u, steps=3)

    @pytest.mark.parametrize("system, start, error, message", [
        ("exact", FuzzySet([((F(0),), F(1))]), DimensionMismatchError,
         "fuzzy set of dimension 1, system of 2"),
        ("exact", FuzzySet([((F(0), F(0), F(0)), F(1))]), DimensionMismatchError,
         "fuzzy set of dimension 3, system of 2"),
        ("exact", band_start([0, 1], exact=False), ValueError,
         "fuzzy set and system use different numeric modes"),
        ("float", band_start([0, 1]), ValueError,
         "fuzzy set and system use different numeric modes"),
    ], ids=["1-D", "3-D", "float-start", "exact-start"])
    def test_a_wrong_start_fails_before_any_mapping(self, monkeypatch, system, start, error,
                                                    message):
        import fuzzyifs.system as system_module

        def forbidden(*args, **kwargs):
            raise AssertionError("mapped before the checks")

        s = reference_system() if system == "exact" else reference_system().to_float()
        monkeypatch.setattr(AffineMap, "_apply", forbidden)
        monkeypatch.setattr(system_module, "diameter", forbidden)
        with pytest.raises(error) as raised:
            s.iterate(start, steps=2)
        assert str(raised.value) == message

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_a_wide_band_is_measured_at_once(self, exact):
        """4,097 columns x = k/4096: the reach set holds them and their
        4,097 images at y = 1/2, and the sweep's ball test leaves few."""
        system, u0 = reference_system(), band_start([F(k, 4096) for k in range(4097)])
        if not exact:
            system, u0 = system.to_float(), u0.to_float()
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            diam = system.reach_diameter(u0)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.1
        assert diam == (sqrt_exact(F(5, 4)) if exact else pytest.approx(math.sqrt(1.25)))


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


    def test_residual_past_the_tolerance_names_the_contraction_constant(self, monkeypatch):
        """The band declaring C = 1/4, where its steps halve the distance,
        with the audit of each step switched off: the residual misses the
        tolerance that the bound certified."""
        monkeypatch.setattr(OrbitalFuzzySystem, "_check_decay", lambda self, *args: None)
        system = reference_system()
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(maps=system.ifs.maps, contraction_constant=F(1, 4)),
            grey_maps=system.grey_maps)
        with pytest.raises(ContractionViolationError, match="declared contraction constant 0.25") as err:
            system.fixed_point(band_start([0, F(1, 2), 1]), F(1, 200))
        assert err.value.step == 6 and err.value.ratio > 1


class TestDecompositionAndMembership:
    def test_orbit_restriction_decomposition(self):
        system = reference_system()
        u3, _ = system.iterate(slice_start(F(1, 2)), steps=3)
        orbit_pts = system.ifs.orbit(FuzzySet([((F(1, 2), F(0)), 1)]), 3)
        assert join([FuzzySet([pair]) for pair in u3.items()]) == u3
        assert join([u3.support_set(), orbit_pts]) == orbit_pts

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


def integer_form_system(rng, dim):
    """1 to 3 maps whose entries and offsets mix halves and thirds, with
    negative values, zero rows and singular matrices; map 0 reaches 1."""
    entries = (F(0), F(1), F(-1), F(1, 2), F(-1, 3), F(2, 3), F(-5, 6), F(3, 2))
    offsets = (F(0), F(-1, 2), F(1, 3), F(-7, 6), F(2))
    maps, greys = [], []
    for i in range(rng.randrange(1, 4)):
        rows = [[rng.choice(entries) for _ in range(dim)] for _ in range(dim)]
        shape = rng.random()
        if shape < 0.2:
            rows[-1] = [F(0)] * dim
        elif shape < 0.4 and dim > 1:
            rows[-1] = [F(-2, 3) * v for v in rows[0]]
        maps.append(AffineMap(tuple(map(tuple, rows)),
                              tuple(rng.choice(offsets) for _ in range(dim))))
        greys.append(STEP_AT_HALF if rng.random() < 0.25 else _grey(rng, reach_one=i == 0))
    return OrbitalFuzzySystem(
        ifs=IteratedFunctionSystem(maps=tuple(maps), contraction_constant=F(1, 2)),
        grey_maps=tuple(greys),
    )


def check_integer_form(u):
    """The integer form of u is the canonical one and shows through the
    Fraction-valued accessors: D and L are the lcms of the reduced
    denominators of the support and of the levels, the table holds exactly
    the levels present as numerators over L, every point is its numerators
    over D, and rebuilding u from its pairs gives u."""
    den, (lden, levels), points, ranks = u.scaled()
    pairs = list(u.items())
    assert den == math.lcm(*(c.denominator for p, _ in pairs for c in p))
    assert lden == math.lcm(*(level.denominator for _, level in pairs))
    values = [F(n, lden) for n in levels]
    assert levels[0] == 0 and values[1:] == sorted({level for _, level in pairs})
    assert u.level_values() == values[1:]
    assert points.tolist() == [[int(c * den) for c in p] for p, _ in pairs]
    assert [values[r] for r in ranks.tolist()] == [level for _, level in pairs]
    assert FuzzySet(pairs) == u


class TestIntegerForm:
    """Exact sets held as integers over one denominator, against the
    Fraction reference."""

    def test_step_and_metric_match_the_reference(self):
        rng = random.Random(61)
        stepped_sets = swept = 0
        for _ in range(300):
            dim = rng.choice((1, 2, 3))
            system = integer_form_system(rng, dim)
            u = random_fuzzy(rng, dim, normal=rng.random() < 0.7)
            check_integer_form(u)
            for _ in range(2):
                pushed = [zadeh_pushforward(f, u) for f in system.ifs.maps]
                parts = []
                for g, image in zip(system.grey_maps, pushed):
                    try:
                        parts.append(apply_grey(g, image))
                    except EmptySupportError:
                        pass
                if not parts:
                    break
                reference = join(parts)
                stepped = system.step(u)
                stepped_sets += 1
                check_integer_form(stepped)
                assert stepped == reference
                assert stepped.level_values() == reference.level_values()
                for p, level in reference.items():
                    assert stepped.level(p) == level
                    assert stepped.level(tuple(c + F(1, 5) for c in p)) == reference.level(
                        tuple(c + F(1, 5) for c in p))
                if all(len(image) == len(u) for image in pushed):
                    assert list(stepped.items()) == list(reference.items())
                if stepped.max_level == u.max_level:
                    assert d_infinity(u, stepped) == d_infinity(stepped, u) == (
                        d_infinity_level_sweep(u, stepped))
                    swept += 1
                else:
                    with pytest.raises(EmptyCutError):
                        d_infinity(u, stepped)
                u = stepped
        assert stepped_sets > 400 and swept > 200


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except (ValueError, SupportCapError) as err:
        return type(err), str(err)


def assert_residual_is_the_reference(system, u, support_cap=10_000_000):
    """The residual taken map by map gives d_infinity(step(u), u): the same
    value of the same type, or the same error with the same message. Returns
    the outcome."""
    expected = _outcome(lambda: d_infinity(system.step(u, support_cap), u))
    got = _outcome(system._residual, u, support_cap)
    assert got == expected and type(got) is type(expected)
    return got


ONE_AT_A_QUARTER = GreyLevelMap.from_breakpoints([(0, 0), (F(1, 4), 1), (1, 1)])


class TestResidual:
    """The certified residual without the residual iterate, against the
    pair it replaces."""

    @pytest.mark.parametrize("pair_limit, systems", [(None, 2000), (0, 400)],
                             ids=["default-pair-limit", "arrays-and-grid"])
    def test_random_systems_with_singular_maps(self, monkeypatch, pair_limit, systems):
        """Maps with zero and proportional rows repeat points, grey maps that
        jump at 1/2 erase parts, and starts that are not normal often lose
        their top level; each system runs exact and as its float twin. With
        a pair limit of 0, d_infinity takes its array path and the kernel its
        grid on every pair."""
        if pair_limit is not None:
            monkeypatch.setattr(fuzzy, "_BRUTE_PAIR_LIMIT", pair_limit)
            monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", pair_limit)
        rng = random.Random(19)
        seen = set()
        for _ in range(systems):
            dim = rng.choice((1, 2, 3))
            system = integer_form_system(rng, dim)
            u = random_fuzzy(rng, dim, normal=rng.random() < 0.5)
            for s, v in ((system, u), (system.to_float(), u.to_float())):
                got = assert_residual_is_the_reference(s, v)
                seen.add(got[0] if isinstance(got, tuple) else type(got))
        assert seen == {F, Radical, float, EmptyCutError, EmptySupportError}

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("greys, start, error", [
        ((GreyLevelMap.identity(), STEP_AT_HALF), F(1, 4), None),
        ((STEP_AT_HALF, STEP_AT_HALF), F(1, 4), EmptySupportError),
        ((GreyLevelMap.identity(), ONE_AT_A_QUARTER), F(1, 2), EmptyCutError),
    ], ids=["one-part-erased", "support-erased", "top-levels-differ"])
    def test_erased_parts_and_top_levels(self, exact, greys, start, error):
        half = ((F(1, 2), F(0)), (F(0), F(1, 2)))
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(
                maps=(AffineMap(half, (F(0), F(0))), AffineMap(half, (F(1, 2), F(0)))),
                contraction_constant=F(1, 2)),
            grey_maps=greys,
        )
        u = FuzzySet([((F(0), F(0)), start), ((F(1), F(0)), start), ((F(3), F(1)), start)])
        if not exact:
            system, u = system.to_float(), u.to_float()
        got = assert_residual_is_the_reference(system, u)
        assert (got[0] if isinstance(got, tuple) else None) is error

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_small_residuals_take_the_dict_path(self, monkeypatch, exact):
        """Two maps keep 2n images of n points. Up to _BRUTE_PAIR_LIMIT
        pairs, 2n times n, the residual makes no array scan, as d_infinity
        of a pair that small makes none; past it, it does."""
        half = ((F(1, 2), F(0)), (F(0), F(1, 2)))
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(
                maps=(AffineMap(half, (F(0), F(0))), AffineMap(half, (F(1, 2), F(0)))),
                contraction_constant=F(1, 2)),
            grey_maps=(GreyLevelMap.identity(), GreyLevelMap.identity()),
        )
        if not exact:
            system = system.to_float()
        scans = []
        directed = fuzzy._directed
        monkeypatch.setattr(fuzzy, "_directed",
                            lambda *args, **kwargs: scans.append(1) or directed(*args, **kwargs))
        for n, arrays in ((45, False), (46, True)):
            assert (2 * n * n > fuzzy._BRUTE_PAIR_LIMIT) is arrays
            u = FuzzySet([((F(k), F(k % 7)), F(1 + k % 3, 3)) for k in range(n)])
            if not exact:
                u = u.to_float()
            scans.clear()
            residual = system._residual(u)
            assert bool(scans) is arrays
            assert residual == d_infinity(system.step(u), u)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_band_for_ten_steps(self, exact):
        scene = load_scene(Path(__file__).resolve().parent.parent / "scenes" / "dyadic_band.json")
        system, u = scene.system, scene.initial
        if not exact:
            system, u = system.to_float(), u.to_float()
        for n in range(10):
            assert assert_residual_is_the_reference(system, u) == F(1, 2 ** (n + 1))
            u = system.step(u)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_a_run_under_the_cap_makes_one_step_per_iteration(self, monkeypatch, exact):
        """m steps, and none for the residual, in both stopping modes. Every
        step, the public one's and the run's, goes through `_step`."""
        calls = []
        real_step = OrbitalFuzzySystem._step
        monkeypatch.setattr(OrbitalFuzzySystem, "_step",
                            lambda self, u, cap, carry=False: calls.append(len(u))
                            or real_step(self, u, cap, carry))
        system, u0 = reference_system(exact), band_start([0, F(1, 2), 1], exact)
        _, report = system.iterate(u0, steps=4)
        assert len(calls) == report.iterations == 4
        calls.clear()
        _, report = system.iterate(u0, tolerance=F(1, 100))
        assert len(calls) == report.iterations == 8

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_images_past_the_cap_whose_points_fit(self, monkeypatch, exact):
        """Two equal maps: the images of 9 points number 18, past a cap of 9,
        while their distinct points are the 9 of one map. The residual makes
        the step just for its cap check, which passes, and the run reports
        what it reports without the cap."""
        half = AffineMap(((F(1, 2),),), (F(1, 3),))
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(maps=(half, half), contraction_constant=F(1, 2)),
            grey_maps=(GreyLevelMap.identity(), GreyLevelMap.identity()),
        )
        u0 = FuzzySet([((F(k),), F(1) if k == 0 else F(k, 9)) for k in range(9)])
        if not exact:
            system, u0 = system.to_float(), u0.to_float()
        final, report = system.iterate(u0, steps=3)
        calls = []
        real_step = OrbitalFuzzySystem._step
        monkeypatch.setattr(OrbitalFuzzySystem, "_step",
                            lambda self, u, cap, carry=False: calls.append(cap)
                            or real_step(self, u, cap, carry))
        capped_final, capped_report = system.iterate(u0, steps=3, support_cap=9)
        assert capped_final == final and capped_report == report
        assert calls == [9] * 4
        assert report.certified_residual == d_infinity(system.step(final), final)


def reference_run(system, u0, steps):
    """A run's distances the long way: d_infinity of each pair of
    consecutive public steps, and of the last iterate's step and itself."""
    iterates = [u0]
    for _ in range(steps):
        iterates.append(system.step(iterates[-1]))
    history = tuple(d_infinity(a, b) for a, b in zip(iterates, iterates[1:]))
    return (*history, d_infinity(system.step(iterates[-1]), iterates[-1]))


def run_matches_reference(system, u0, steps) -> bool:
    """Whether iterate's history and residual equal `reference_run`'s,
    value for value and type for type."""
    _, report = system.iterate(u0, steps)
    got = (*report.d_history, report.certified_residual)
    expected = reference_run(system, u0, steps)
    return [(d, type(d)) for d in got] == [(d, type(d)) for d in expected]


def random_runs(seed, count, modes=(True, False)):
    """Random runs of 0 to 5 steps from normal starts of 1 to 6 points:
    `integer_form_system`'s maps repeat points (zero and proportional rows,
    so images meet at equal top levels), shear and scale unequally, and its
    grey maps that jump at 1/2 erase parts. Each system runs in the given
    modes, exact and as its float twin."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.choice((1, 2, 3))
        system = integer_form_system(rng, dim)
        u0, steps = random_fuzzy(rng, dim, normal=True), rng.randrange(0, 6)
        for exact in modes:
            yield (system, u0, steps) if exact else (system.to_float(), u0.to_float(), steps)


class TestCarriedWitnesses:
    """A run takes d_n and the residual from witnesses it carries through
    the steps' slot tables; these check the outcome against d_infinity of
    the pairs the run stands for, and that the checks see planted mistakes.
    The audit of the contraction constant is switched off: many random
    maps expand, and the distances are what is compared."""

    @pytest.fixture(autouse=True)
    def no_audit(self, monkeypatch):
        monkeypatch.setattr(OrbitalFuzzySystem, "_check_decay", lambda self, *args: None)

    @pytest.mark.parametrize("pair_limit, runs, carried_sides", [(None, 200, 100), (0, 120, 200)],
                             ids=["default-pair-limit", "arrays-and-grid"])
    def test_random_runs_match_d_infinity(self, monkeypatch, pair_limit, runs, carried_sides):
        """Both modes; with a pair limit of 0 every pair takes an array
        route, so a run's second pair on is always a carried one. Each
        carried pair or residual takes two sides."""
        if pair_limit is not None:
            monkeypatch.setattr(fuzzy, "_BRUTE_PAIR_LIMIT", pair_limit)
            monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", pair_limit)
        carried = []
        witnessed = fuzzy._witnessed
        monkeypatch.setattr(fuzzy, "_witnessed",
                            lambda *args: carried.append(args[0]) or witnessed(*args))
        for system, u0, steps in random_runs(23, runs):
            assert run_matches_reference(system, u0, steps)
        assert len(carried) > carried_sides

    def test_a_lower_occurrence_in_a_tie_is_caught(self, monkeypatch):
        """A result row reached by several occurrences must carry one at
        its top level; the first occurrence may be a lower one. Here two
        constant maps and the identity, whose grey map keeps only levels
        of 1/2 and above, put several images on one point."""
        monkeypatch.setattr(fuzzy, "_BRUTE_PAIR_LIMIT", 0)
        monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", 0)
        system = OrbitalFuzzySystem(
            ifs=IteratedFunctionSystem(maps=(
                AffineMap(((F(0),),), (F(-7, 6),)), AffineMap(((F(0),),), (F(1, 3),)),
                AffineMap.identity(1)), contraction_constant=F(1, 2)),
            grey_maps=(GreyLevelMap.identity(), GreyLevelMap.linear_ramp(F(1, 2)), STEP_AT_HALF))
        u0 = FuzzySet([((F(0),), F(1)), ((F(3, 4),), F(5, 8)), ((F(3, 2),), F(3, 8)),
                       ((F(-3),), F(1, 2)), ((F(5),), F(7, 8))])
        assert run_matches_reference(system, u0, 2)
        merge = fuzzy._merge_rows

        def first_occurrence(points, ranks, slots=False):
            merged = merge(points, ranks, slots)
            if not slots:
                return merged
            points, ranks, slot, _ = merged
            first = np.full(len(points), len(slot))
            np.minimum.at(first, slot, np.arange(len(slot)))
            return points, ranks, slot, first

        monkeypatch.setattr(fuzzy, "_merge_rows", first_occurrence)
        assert not run_matches_reference(system, u0, 2)

    def test_the_previous_slot_table_is_caught(self, monkeypatch):
        """u's witnesses in nxt come through this step's slot table; the
        previous step's, read in range, names rows of u instead."""
        monkeypatch.setattr(fuzzy, "_BRUTE_PAIR_LIMIT", 0)
        monkeypatch.setattr(geometry, "_BRUTE_PAIR_LIMIT", 0)

        def stale(previous, width, slot, top):
            size, old_slot, old_top, down, up = previous
            maps, rows = np.divmod(top, width)
            down = old_slot[maps * size + down[rows]]
            maps, rows = np.divmod(old_top, size)
            return down, old_slot[np.minimum(maps * width + up[rows], len(old_slot) - 1)]

        monkeypatch.setattr(system_module, "_carried", stale)
        assert not all(run_matches_reference(*run) for run in random_runs(23, 120, modes=(True,)))

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_band_pairs_after_the_first_query_once_per_direction(self, monkeypatch, exact):
        """On the band at 9 steps, the first pair seeds the witnesses from
        the rows it shares, and the kernel's grid improves them; every
        later pair and the residual make no grid round and no kernel
        call, and at most one exact query per direction. Counted, not
        timed."""
        counts = {"rounds": 0, "kernel": 0, "queries": 0}

        def counting(name, f):
            def counted(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)
            return counted

        monkeypatch.setattr(geometry, "_grid_round", counting("rounds", geometry._grid_round))
        monkeypatch.setattr(geometry, "_prefix_nearest", counting("kernel", geometry._prefix_nearest))
        monkeypatch.setattr(fuzzy, "_nearest_square", counting("queries", fuzzy._nearest_square))
        scene = load_scene(Path(__file__).resolve().parent.parent / "scenes" / "dyadic_band.json")
        system, u0 = scene.system, scene.initial
        if not exact:
            system, u0 = system.to_float(), u0.to_float()
        marks = [dict(counts)]
        _, report = system.iterate(u0, 9, on_step=lambda n, u: marks.append(dict(counts)))
        marks.append(dict(counts))
        assert report.certified_residual == (F(1, 1024) if exact else 2.0 ** -10)
        spent = [{name: after[name] - before[name] for name in counts}
                 for before, after in zip(marks, marks[1:])]
        assert len(spent) == 10 and spent[0]["kernel"] > 0
        for pair in spent[1:]:
            assert pair["rounds"] == pair["kernel"] == 0 and pair["queries"] <= 2


def shifted_band(exact, shift=0, upper_offset=F(1, 2)):
    """The reference band system conjugated by x -> x + (shift, shift), with
    the upper map's y offset upper_offset, and its start on 17 base points
    (k/16, 0) moved alike."""
    number = F if exact else float
    one, zero, half, t = number(1), number(0), number(F(1, 2)), number(shift)
    linear = ((one, zero), (zero, half))
    maps = (AffineMap(linear, (zero, t / 2)), AffineMap(linear, (zero, number(upper_offset) + t / 2)))
    system = OrbitalFuzzySystem(
        ifs=IteratedFunctionSystem(maps=maps, contraction_constant=half),
        grey_maps=(GreyLevelMap.identity(exact), GreyLevelMap.linear_ramp(number(F(3, 4)), exact)))
    return system, FuzzySet([((number(F(k, 16)) + t, t), one) for k in range(17)], exact=exact)


@pytest.mark.parametrize("exact, shift, upper_offset, start, stepped_dtype", [
    (True, 2 ** 70, F(1, 2), object, object),
    (True, 0, F(1, 2) + F(1, 3 ** 40), np.int64, object),
    (False, 10 ** 4, F(1, 2), np.int64, np.int64),
    (False, 10 ** 7, F(1, 2), object, object),
], ids=["exact-translated-2^70", "exact-denominator-3^40", "float-translated-10^4",
        "float-translated-10^7"])
def test_numerators_past_int64(exact, shift, upper_offset, start, stepped_dtype):
    """Sets whose numerators leave int64 hold Python ints in object arrays,
    and the step and the metric give what they give on int64: numerators
    past 2^62 from the start, or from the first step, whose map denominator
    3^40 takes every image past it; float keys past 2^62. Float keys past
    2^53 (the band translated by 10^4) stay int64: each is a rounded
    double, so n / 10^12 still reads the same as in Python. The iterates
    match the reference composition, support order included, and
    d_infinity the level sweep, from 34 points up to pairs of 136 and 272,
    which take the array path, and so does a run's, which carries its
    witnesses from the second pair on."""
    system, u = shifted_band(exact, shift, upper_offset)
    assert u.scaled()[2].dtype == start
    assert run_matches_reference(system, u, 4)
    for _ in range(4):
        reference = join([apply_grey(g, zadeh_pushforward(f, u))
                          for f, g in zip(system.ifs.maps, system.grey_maps)])
        stepped = system.step(u)
        assert stepped.scaled()[2].dtype == stepped_dtype
        assert stepped == reference and stepped.items() == reference.items()
        assert d_infinity(u, stepped) == d_infinity(stepped, u) == d_infinity_level_sweep(u, stepped)
        assert_residual_is_the_reference(system, u)
        u = stepped
    assert len(u) == 17 * 16


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


def random_scenes():
    """60 random exact scene documents, half of them stopping on a
    tolerance just above the bound at their step count."""
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
        yield m, scene_to_dict(Scene(dimension=dim, numeric_mode="exact", system=system,
                                     initial=u0, stop=stop, render=None))


def _run_both_modes(doc):
    """(iterates, report or ContractionViolationError) of the scene as
    written and with the float override."""
    runs = []
    for mode in (None, "float"):
        scene = load_scene_dict(doc, mode_override=mode)
        iterates = [scene.initial]
        try:
            final, report = scene.system.iterate(
                scene.initial, steps=scene.stop.steps, tolerance=scene.stop.tolerance,
                on_step=lambda n, u: iterates.append(u))
        except ContractionViolationError as err:
            runs.append((iterates, err))
            continue
        assert iterates[-1] is final
        runs.append((iterates, report))
    return runs


def test_modes_agree_on_random_scenes(monkeypatch):
    """Cross-mode differential check: random exact scenes, loaded once as
    written and once with the float override, agree on every iterate and on
    the report. Half of them stop on a tolerance, which both modes must turn
    into the same step count. Many of these systems are no contractions at
    their declared C = 1/2, so the audit of d_n <= C d_(n-1) is switched off
    here, and every run goes to its end."""
    monkeypatch.setattr(OrbitalFuzzySystem, "_check_decay", lambda self, *args: None)
    for m, doc in random_scenes():
        (exact_iterates, report), (float_iterates, freport) = _run_both_modes(doc)
        assert report.iterations == freport.iterations == m
        for u, fu in zip(exact_iterates, float_iterates):
            _assert_close_sets(u, fu)
        for d, fd in zip(report.d_history, freport.d_history):
            assert abs(float(d) - fd) <= 1e-9
        for name in ("a_priori", "certified_residual", "diameter"):
            assert abs(float(getattr(report, name)) - getattr(freport, name)) <= 1e-9


def test_modes_agree_on_contraction_violations():
    """The same random scenes with the audit on: both modes finish, or both
    stop at the same step with the same ratio, having agreed on every
    iterate before it."""
    finished = violated = 0
    for _, doc in random_scenes():
        (exact_iterates, report), (float_iterates, freport) = _run_both_modes(doc)
        assert len(exact_iterates) == len(float_iterates)
        for u, fu in zip(exact_iterates, float_iterates):
            _assert_close_sets(u, fu)
        if isinstance(report, ContractionViolationError):
            assert isinstance(freport, ContractionViolationError)
            assert report.step == freport.step == len(exact_iterates)
            assert report.ratio == pytest.approx(freport.ratio, rel=1e-9)
            violated += 1
        else:
            assert not isinstance(freport, ContractionViolationError)
            finished += 1
    assert finished > 20 and violated > 20


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
