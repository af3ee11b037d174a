"""The orbital fuzzy system: admissibility checks, the fuzzy
Hutchinson-Barnsley operator, iteration to the fixed point and the a-priori
error bounds that certify convergence.

One application of the operator pushes the fuzzy set through every map,
reweights levels with the map's grey level map and joins the results
pointwise. Iterates form a Cauchy sequence whenever the declared contraction
constant C is valid; the distance from the m-th iterate to the limit is at
most C^m/(1-C) times the diameter of supp(u) together with its image, which
is what `a_priori_bound` computes and what tolerance-mode iteration stops
on; a run computes that diameter once and rescales it for every m. The
stopping rule uses the bound rather than the residual alone, so the
certificate stays sound even when consecutive iterates happen to coincide
early.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

# apply_grey, join and zadeh_pushforward are the step's reference, not its
# implementation; they stay names of this module for perfbench/tracing.py,
# which times them here.
from .fuzzy import (  # noqa: F401
    EmptySupportError,
    FuzzySet,
    GreyLevelMap,
    apply_grey,
    d_infinity,
    join,
    zadeh_pushforward,
)
from .geometry import DimensionMismatchError, FinitePointSet, as_point, diameter
from .ifs import DEFAULT_SUPPORT_CAP, IteratedFunctionSystem, SupportCapError
from .numeric import DEFAULT_TOL, Scalar, scale

_MAX_TOLERANCE_STEPS = 10_000


def _snapped(apply):
    """A float map's image function with its result on the dedup grid."""
    return lambda p: as_point(apply(p), False)


class UnreachableToleranceError(ValueError):
    """No step count within the guard brings the a-priori bound down to the
    requested tolerance."""


class AdmissibilityError(ValueError):
    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of an operator iteration run.

    d_history holds the distances between consecutive iterates;
    a_priori is the bound at the final step count; certified_residual is the
    measured distance between the final iterate and its image; diameter is
    the diameter of the initial support together with its image, which every
    a-priori bound of the run scales (see `OrbitalFuzzySystem.scaled_bound`).
    """

    iterations: int
    d_history: Tuple[Scalar, ...]
    a_priori: Scalar
    certified_residual: Scalar
    diameter: Scalar


@dataclass(frozen=True)
class OrbitalFuzzySystem:
    """An affine system paired with one grey level map per map."""

    ifs: IteratedFunctionSystem
    grey_maps: Tuple[GreyLevelMap, ...]

    def __post_init__(self):
        if len(self.grey_maps) != len(self.ifs.maps):
            raise ValueError("need exactly one grey map per affine map")
        if any(g.exact != self.ifs.exact for g in self.grey_maps):
            raise ValueError("cannot mix numeric modes")

    @property
    def exact(self) -> bool:
        return self.ifs.exact

    @property
    def dimension(self) -> int:
        return self.ifs.dimension

    def to_float(self) -> "OrbitalFuzzySystem":
        return OrbitalFuzzySystem(
            ifs=self.ifs.to_float(),
            grey_maps=tuple(g.to_float() for g in self.grey_maps),
        )

    def validate(self) -> list:
        """Admissibility violations; an empty list means the system is fine.

        Monotonicity and right continuity hold for every GreyLevelMap by
        construction, so the structural checks left are: nonzero maps,
        rho(0) = 0 for all of them and rho(1) = 1 for at least one.
        """
        violations = []
        for i, g in enumerate(self.grey_maps):
            if not g.is_nonzero:
                violations.append(f"grey map {i} is identically zero")
            if g.value_at_zero != 0:
                violations.append(f"grey map {i} has rho(0) = {g.value_at_zero}, expected 0")
        if not any(g.value_at_one == 1 for g in self.grey_maps):
            violations.append("no grey map attains rho(1) = 1")
        return violations

    def _require_admissible(self):
        violations = self.validate()
        if violations:
            raise AdmissibilityError(violations)

    def step(self, u: FuzzySet) -> FuzzySet:
        """One application of the fuzzy operator: the pointwise maximum of
        the grey-weighted images of u under every map.

        Both numeric modes make one pass per map into one dict. Each grey
        map is evaluated once per distinct level of u, and a point whose new
        level is 0 is not mapped at all. Float images are snapped to the
        dedup grid of `geometry.as_point`. The result equals
        join([apply_grey(g, zadeh_pushforward(f, u)) for f, g in ...]), the
        reference this step is tested against, except that a map whose part
        the grey map erases adds nothing instead of raising: only an empty
        join raises.
        """
        self._require_admissible()
        if u.exact != self.exact:
            raise ValueError("fuzzy set and system use different numeric modes")
        if u.dimension != self.dimension:
            raise DimensionMismatchError(
                f"fuzzy set of dimension {u.dimension}, system of {self.dimension}")
        exact = u.exact
        number = Fraction if exact else float
        items = u.items()
        levels = {level for _, level in items}
        merged: Dict = {}
        for f, g in zip(self.ifs.maps, self.grey_maps):
            relit = {level: number(g(level)) for level in levels}
            image = f._apply if exact else _snapped(f._apply)
            for p, level in items:
                new = relit[level]
                if new:
                    q = image(p)
                    old = merged.setdefault(q, new)
                    if new > old:
                        merged[q] = new
        if not merged:
            raise EmptySupportError("the operator erased the whole support")
        return FuzzySet._from_dict(merged, exact=exact, dimension=u.dimension)

    def reach_diameter(self, u: FuzzySet) -> Scalar:
        """diam(supp(u) together with its image under every map)."""
        supp = u.support_set()
        return diameter(supp.union(self.ifs.step(supp)))

    def scaled_bound(self, diam: Scalar, m: int) -> Scalar:
        """C^m/(1-C) times diam: the a-priori bound at m for a start whose
        reach diameter is diam."""
        if m < 0:
            raise ValueError("m must be >= 0")
        c = self.ifs.contraction_constant
        return scale(diam, c ** m / (1 - c))

    def a_priori_bound(self, u: FuzzySet, m: int) -> Scalar:
        """C^m/(1-C) times diam(image of supp(u) together with supp(u))."""
        return self.scaled_bound(self.reach_diameter(u), m)

    def _steps_for_tolerance(self, diam: Scalar, tolerance: Scalar) -> int:
        c = self.ifs.contraction_constant
        # The bound diam * c^m / (1 - c), one multiplication by c per m.
        # Exact mode compares squares, where every product stays rational.
        if self.exact:
            bound, ratio, limit = diam * diam / (1 - c) ** 2, c * c, tolerance * tolerance
        else:
            bound, ratio, limit = diam / (1 - c), c, tolerance
        for m in range(_MAX_TOLERANCE_STEPS + 1):
            if bound <= limit:
                return m
            bound *= ratio
        raise UnreachableToleranceError(
            f"tolerance {float(tolerance):g} needs more than {_MAX_TOLERANCE_STEPS} steps "
            f"at contraction constant {float(c):g}")

    def iterate(
        self,
        u0: FuzzySet,
        steps: Optional[int] = None,
        tolerance: Optional[Scalar] = None,
        support_cap: int = DEFAULT_SUPPORT_CAP,
        on_step: Optional[Callable[[int, FuzzySet], None]] = None,
    ) -> Tuple[FuzzySet, ConvergenceReport]:
        """Iterate the operator for a fixed step count or to a tolerance.

        In tolerance mode the run stops at the first m whose a-priori bound
        falls within the tolerance, which certifies that the final iterate is
        that close to its limit.
        """
        if (steps is None) == (tolerance is None):
            raise ValueError("choose exactly one of steps or tolerance")
        self._require_admissible()
        if not u0.normal:
            raise ValueError("initial fuzzy set must be normal (some level 1)")
        if steps is not None and steps < 0:
            raise ValueError("steps must be >= 0")
        if tolerance is not None and tolerance <= 0:
            raise ValueError("tolerance must be positive")
        diam = self.reach_diameter(u0)
        m = steps if steps is not None else self._steps_for_tolerance(diam, tolerance)
        current = u0
        history = []
        for n in range(1, m + 1):
            nxt = self.step(current)
            if len(nxt) > support_cap:
                raise SupportCapError(
                    f"support grew past the cap of {support_cap} points",
                    partial=(current, ConvergenceReport(
                        iterations=n - 1,
                        d_history=tuple(history),
                        a_priori=self.scaled_bound(diam, n - 1),
                        certified_residual=None,
                        diameter=diam,
                    )),
                )
            history.append(d_infinity(current, nxt))
            if on_step is not None:
                on_step(n, nxt)
            current = nxt
        residual = d_infinity(self.step(current), current)
        report = ConvergenceReport(
            iterations=m,
            d_history=tuple(history),
            a_priori=self.scaled_bound(diam, m),
            certified_residual=residual,
            diameter=diam,
        )
        return current, report

    def fixed_point(
        self,
        u0: FuzzySet,
        tolerance: Scalar,
        support_cap: int = DEFAULT_SUPPORT_CAP,
    ) -> Tuple[FuzzySet, ConvergenceReport]:
        """Iterate until the a-priori bound certifies the requested tolerance."""
        final, report = self.iterate(u0, tolerance=tolerance, support_cap=support_cap)
        # The bound at m dominates the residual, so this cannot fire unless
        # the declared contraction constant is wrong for the scene.
        if report.certified_residual > tolerance:
            raise RuntimeError(
                "residual exceeds the certified tolerance; "
                "the declared contraction constant looks invalid"
            )
        return final, report


def invariant_domain_check(
    system: OrbitalFuzzySystem,
    u: FuzzySet,
    depth: int = 6,
    tol: Optional[float] = None,
) -> str:
    """Best-effort test that every positive-level point sits in an orbit
    closure that also carries a level-1 point.

    Returns "yes" when witnesses were found for every support point, "no" on
    a certified obstruction (a non-normal set cannot qualify) and "unknown"
    when the search was inconclusive at this depth.
    """
    if not u.normal:
        return "no"
    if tol is None:
        tol = 0.0 if u.exact else DEFAULT_TOL
    one = Fraction(1) if u.exact else 1.0 - DEFAULT_TOL
    level_one_points = [p for p, l in u.items() if l >= one]
    orbits: Dict = {}

    def orbit_points(w):
        if w not in orbits:
            base = FinitePointSet(points=(w,), exact=u.exact)
            orbits[w] = system.ifs.orbit(base, depth).points
        return orbits[w]

    support = list(u.support_points())
    for x in support:
        witnesses = [x] + [w for w in support if w != x]
        found = False
        for w in witnesses:
            pts = orbit_points(w)
            if pts.contains(x, tol) and any(pts.contains(y, tol) for y in level_one_points):
                found = True
                break
        if not found:
            return "unknown"
    return "yes"
