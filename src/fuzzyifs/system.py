"""The orbital fuzzy system: admissibility checks, the fuzzy
Hutchinson-Barnsley operator, iteration to the fixed point and the a-priori
error bounds that certify convergence.

One application of the operator pushes the fuzzy set through every map,
reweights levels with the map's grey level map and joins the results
pointwise. Iterates form a Cauchy sequence whenever the declared contraction
constant C is valid; the distance from the m-th iterate to the limit is at
most C^m/(1-C) times the diameter of supp(u) together with its image, which
is what `a_priori_bound` computes and what tolerance-mode iteration stops
on. A run computes that diameter once; one walk, `bounds`, then yields the
bound for m = 0, 1, 2, ... with one multiplication per m, and the stop rule,
the report and the CLI's bound trace all read it, so a certified bound and a
reported one are the same number. The stopping rule uses the bound rather
than the residual alone, so the certificate stays sound even when
consecutive iterates happen to coincide early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, Iterator, Optional, Tuple

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
from .geometry import DimensionMismatchError, FinitePointSet, diameter, grid_key, scale_points
from .ifs import DEFAULT_SUPPORT_CAP, AffineMap, IteratedFunctionSystem, SupportCapError
from .numeric import DEFAULT_TOL, Radical, Scalar

_MAX_TOLERANCE_STEPS = 10_000


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
    a-priori bound of the run scales (see `OrbitalFuzzySystem.bounds`).
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
    # Exact systems: (L, ((linear, offset), ...)), every map times the least
    # common denominator L of all entries and offsets, in ints.
    _scaled_maps: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(self.grey_maps) != len(self.ifs.maps):
            raise ValueError("need exactly one grey map per affine map")
        if any(g.exact != self.ifs.exact for g in self.grey_maps):
            raise ValueError("cannot mix numeric modes")
        if self.exact:
            den, (rows,) = scale_points([row for f in self.ifs.maps
                                         for row in (*f.linear, f.offset)])
            d = self.dimension
            maps = tuple((tuple(rows[k:k + d]), rows[k + d])
                         for k in range(0, len(rows), d + 1))
            object.__setattr__(self, "_scaled_maps", (den, maps))

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
            if g.value_at_one == 0:
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

    def step(self, u: FuzzySet, support_cap: int = DEFAULT_SUPPORT_CAP) -> FuzzySet:
        """One application of the fuzzy operator: the pointwise maximum of
        the grey-weighted images of u under every map.

        Both numeric modes step the integer form of u (`FuzzySet.scaled`),
        one pass per map into one dict that keeps the highest level rank per
        image point. Each grey map is evaluated once per level of u's table;
        a point whose new level is 0 is not mapped. Only the image differs:
        an exact map times the system's common map denominator L, in ints,
        takes numerators over D to numerators over D*L, cut back to the
        least denominator at the end; a float map reads the grid point
        n / D and snaps its image with `geometry.grid_key`, and an image off
        the grid raises GridRangeError. The result equals
        join([apply_grey(g, zadeh_pushforward(f, u)) for f, g in ...]), the
        reference this step is tested against, except that a map whose part
        the grey map erases adds nothing instead of raising: only an empty
        join raises. SupportCapError is raised as soon as the points
        gathered after any map pass support_cap.
        """
        self._require_admissible()
        if u.exact != self.exact:
            raise ValueError("fuzzy set and system use different numeric modes")
        if u.dimension != self.dimension:
            raise DimensionMismatchError(
                f"fuzzy set of dimension {u.dimension}, system of {self.dimension}")
        den, levels, ranks = u.scaled()
        convert = Fraction if u.exact else float
        grey = [[convert(g(level)) for level in levels] for g in self.grey_maps]
        new_levels = tuple(sorted({level for row in grey for level in row}))
        rank = {level: i for i, level in enumerate(new_levels)}
        relits = [[rank[level] for level in row] for row in grey]
        if u.exact:
            map_den, maps = self._scaled_maps
            images = [AffineMap(linear, tuple(b * den for b in offset))._apply
                      for linear, offset in maps]
        else:
            map_den = 1
            images = [lambda p, apply=f._apply: grid_key(apply(tuple([n / den for n in p])))
                      for f in self.ifs.maps]
        merged: Dict = {}
        for image, relit in zip(images, relits):
            for p, r in ranks.items():
                new = relit[r]
                if new:
                    q = image(p)
                    old = merged.setdefault(q, new)
                    if new > old:
                        merged[q] = new
            if len(merged) > support_cap:
                raise SupportCapError(f"support grew past the cap of {support_cap} points")
        if not merged:
            raise EmptySupportError("the operator erased the whole support")
        return FuzzySet._from_scaled(merged, den * map_den, new_levels, u.dimension, u.exact)

    def reach_diameter(self, u: FuzzySet) -> Scalar:
        """diam(supp(u) together with its image under every map)."""
        supp = u.support_set()
        return diameter(supp.union(self.ifs.step(supp)))

    def bounds(self, diam: Scalar) -> Iterator[Scalar]:
        """The a-priori bound C^m/(1-C) times diam at m = 0, 1, 2, ... for a
        start whose reach diameter is diam, one multiplication per m.

        A Radical diameter is walked on squares: diam^2/(1-C)^2, then times
        C^2 per m. For C > 0 the square times a rational square stays a
        non-square, so each bound is a Radical with no square root taken; a
        zero bound is Fraction(0).
        """
        c = self.ifs.contraction_constant
        if isinstance(diam, Radical):
            square, ratio = diam.square / (1 - c) ** 2, c * c
            while True:
                yield Radical(square) if square else Fraction(0)
                square *= ratio
        bound = diam / (1 - c)
        while True:
            yield bound
            bound *= c

    def scaled_bound(self, diam: Scalar, m: int) -> Scalar:
        """The bound at m of `bounds(diam)`."""
        if m < 0:
            raise ValueError("m must be >= 0")
        return next(islice(self.bounds(diam), m, None))

    def a_priori_bound(self, u: FuzzySet, m: int) -> Scalar:
        """C^m/(1-C) times diam(image of supp(u) together with supp(u))."""
        return self.scaled_bound(self.reach_diameter(u), m)

    def _steps_for_tolerance(self, diam: Scalar, tolerance: Scalar) -> Tuple[int, Scalar]:
        """The first m whose bound is within the tolerance, and that bound."""
        for m, bound in zip(range(_MAX_TOLERANCE_STEPS + 1), self.bounds(diam)):
            if bound <= tolerance:
                return m, bound
        raise UnreachableToleranceError(
            f"tolerance {float(tolerance):g} needs more than {_MAX_TOLERANCE_STEPS} steps "
            f"at contraction constant {float(self.ifs.contraction_constant):g}")

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
        that close to its limit. A step that passes support_cap, the residual
        step included, raises SupportCapError with `partial` set to the last
        iterate and its report, whose certified_residual is None.
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
        if steps is None:
            m, bound = self._steps_for_tolerance(diam, tolerance)
        else:
            m, bound = steps, self.scaled_bound(diam, steps)
        current = u0
        history = []
        try:
            for n in range(1, m + 1):
                nxt = self.step(current, support_cap)
                history.append(d_infinity(current, nxt))
                if on_step is not None:
                    on_step(n, nxt)
                current = nxt
            residual = d_infinity(self.step(current, support_cap), current)
        except SupportCapError as err:
            # Whether a step or the residual step passed the cap, the partial
            # result is the last iterate reached, with its bound.
            err.partial = (current, ConvergenceReport(
                iterations=len(history),
                d_history=tuple(history),
                a_priori=self.scaled_bound(diam, len(history)),
                certified_residual=None,
                diameter=diam,
            ))
            raise
        report = ConvergenceReport(
            iterations=m,
            d_history=tuple(history),
            a_priori=bound,
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
