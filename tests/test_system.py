import random
from fractions import Fraction

import pytest

from fuzzyifs.dyadic import band_start, reference_system, slice_start
from fuzzyifs.fuzzy import FuzzySet, GreyLevelMap, d_infinity, join, restrict
from fuzzyifs.geometry import FinitePointSet
from fuzzyifs.ifs import AffineMap, IteratedFunctionSystem, SupportCapError
from fuzzyifs.numeric import sqrt_exact
from fuzzyifs.system import AdmissibilityError, OrbitalFuzzySystem, invariant_domain_check

F = Fraction


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


def test_operator_continuity_majorant_shrinks():
    from fuzzyifs.fuzzy import zadeh_pushforward

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
