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
consecutive iterates happen to coincide early. The bound holds only if the
operator contracts by C along the run, so a run checks that on its own
distances, d_n <= C d_(n-1) at every step from the second on and for the
residual, and raises ContractionViolationError where they rule C out.

A run takes each d_n = d_infinity(u_(n-1), u_n) and the residual
d_infinity(T u_m, u_m) from witnesses, for each point a row of the
neighbouring iterate at its level or above, whatever the pair's size: the
first pair seeds them from the rows it shares, as a large pair of
d_infinity does, and the run carries them from pair to pair through the
steps' slot tables (`_carried`); a pair then makes a few exact queries
(`fuzzy._witnessed`).
The residual is taken one map at a time (`_residual`), and its kernel reads
the images of u_m through index arrays (`_Images`), so a run of m steps
makes m steps and never holds T u_m, whose N |u_m| image points would be
its largest array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

# apply_grey, join and zadeh_pushforward are the step's reference, not its
# implementation, and d_infinity is what a run's distances equal, not how it
# takes them; they stay names of this module for perfbench/tracing.py, which
# times them here.
from .fuzzy import (  # noqa: F401
    EmptySupportError,
    FuzzySet,
    _index_dtype,
    _merge_rows,
    _pair_distance,
    _pair_scale,
    _rank_dtype,
    _root,
    _seeded,
    _side,
    apply_grey,
    d_infinity,
    join,
    zadeh_pushforward,
)
from .geometry import GRID, _on_scale, _rescaled, diameter, magnitude
from .grey import GreyLevelMap
from .ifs import DEFAULT_SUPPORT_CAP, IteratedFunctionSystem, SupportCapError
from .numeric import Radical, Scalar, _exact_square

_MAX_TOLERANCE_STEPS = 10_000


class UnreachableToleranceError(ValueError):
    """No step count within the guard brings the a-priori bound down to the
    requested tolerance."""


class ContractionViolationError(ValueError):
    """Measured distances of a run that the declared contraction constant C
    rules out: d_n > C d_(n-1) for consecutive iterate distances, so C is
    not a valid constant for the scene and its a-priori bound certifies
    nothing. Carries the step n, the measured ratio and C."""

    def __init__(self, message: str, step: int, ratio: float, constant: Scalar):
        super().__init__(message)
        self.step, self.ratio, self.constant = step, ratio, constant


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


def _carried(previous: tuple, width: int, slot: np.ndarray,
             top: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The witnesses (down, up) of a run's pair (u, nxt) from those of the
    pair before, previous = (|u_(n-1)|, slot, top, down, up), given
    width = |u| and the tables slot and top of the step from u to nxt.

    A grey map is nondecreasing, so a witness carries through the maps
    (Cabrelli, Forte, Molter & Vrscay, J. Math. Anal. Appl. 171, 1992): if
    t lies at y's level or above, the image of t under map k lies at the
    level of y's image or above. Row x of nxt, at the level of the image of
    u's row j under map k (top), is witnessed by the image under map k of
    j's witness down[j] in u_(n-1): a row of u, found in the previous step's
    slot table. Row y of u, the image of u_(n-1)'s row j under map k at y's
    level (the previous top), is witnessed by the image under map k of j's
    witness up[j] in u: a row of nxt, found in this step's slot table. No
    coordinates are read, so float mode carries the same way."""
    size, old_slot, old_top, down, up = previous
    maps, rows = np.divmod(top, width)
    down = old_slot[np.multiply(maps, size, dtype=np.intp) + down[rows]]
    maps, rows = np.divmod(old_top, size)
    return down, slot[np.multiply(maps, width, dtype=np.intp) + up[rows]]


class _Images:
    """The images of u's rows under every map as one array that is made
    only where it is read: row k |u| + j is the image of u's row j under
    map k (`IteratedFunctionSystem._image`). Indexing it by an index array
    maps just those rows, one call per map."""

    def __init__(self, ifs: IteratedFunctionSystem, u: FuzzySet):
        self.ifs, self.u = ifs, u

    def __len__(self):
        return len(self.ifs.maps) * len(self.u)

    def __getitem__(self, index):
        maps, rows = np.divmod(index, len(self.u))
        blocks, places = [], []
        for k in range(len(self.ifs.maps)):
            place = np.flatnonzero(maps == k)
            if len(place):
                blocks.append(self.ifs._image(self.u, k, rows[place]))
                places.append(place)
        return np.concatenate(blocks)[np.argsort(np.concatenate(places))]


@dataclass(frozen=True)
class OrbitalFuzzySystem:
    """An affine system paired with one grey level map per map."""

    ifs: IteratedFunctionSystem
    grey_maps: Tuple[GreyLevelMap, ...]
    # The admissibility violations, found once; `validate` returns them and
    # every step and iteration raises on them.
    _violations: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if len(self.grey_maps) != len(self.ifs.maps):
            raise ValueError("need exactly one grey map per affine map")
        if any(g.exact != self.ifs.exact for g in self.grey_maps):
            raise ValueError("cannot mix numeric modes")
        object.__setattr__(self, "_violations", self._find_violations())

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
        rho(0) = 0 for all of them and rho(1) = 1 for at least one. The
        system is immutable, so they are found once, when it is built.
        """
        return list(self._violations)

    def _find_violations(self) -> tuple:
        violations = []
        for i, g in enumerate(self.grey_maps):
            if g.value_at_one == 0:
                violations.append(f"grey map {i} is identically zero")
            if g.value_at_zero != 0:
                violations.append(f"grey map {i} has rho(0) = {g.value_at_zero}, expected 0")
        if not any(g.value_at_one == 1 for g in self.grey_maps):
            violations.append("no grey map attains rho(1) = 1")
        return tuple(violations)

    def _require_admissible(self):
        if self._violations:
            raise AdmissibilityError(self._violations)

    def step(self, u: FuzzySet, support_cap: int = DEFAULT_SUPPORT_CAP) -> FuzzySet:
        """One application of the fuzzy operator: the pointwise maximum of
        the grey-weighted images of u under every map.

        Both numeric modes step the integer form of u (`FuzzySet.scaled`)
        with array operations per map: each grey map is evaluated once per
        level of u's table, a point whose new level is 0 is not mapped, and
        the images of all maps, concatenated in map order, are merged with
        one stable lexsort, each point keeping its first position and its
        highest level rank. Only the image differs (the system's `_image`,
        which the crisp step shares); an exact result is cut back to its
        least denominator by one gcd, and a float image off the grid raises
        GridRangeError. The result, support order
        included, equals join([apply_grey(g, zadeh_pushforward(f, u)) for
        f, g in ...]), the reference this step is tested against, except
        that a map whose part the grey map erases adds nothing instead of
        raising: only an empty join raises. SupportCapError is raised as
        soon as the distinct points gathered after any map pass support_cap.
        """
        return self._step(u, support_cap)[0]

    def _step(self, u: FuzzySet, support_cap: int, carry: bool = False):
        """`step`, and with carry its two tables (else None), which a run
        carries its witnesses through. Occurrence k |u| + j is the image of
        u's row j under map k. slot gives the row of the result that each
        kept occurrence went to, composed through the cap's merges; top
        gives for each row of the result an occurrence that reaches its
        level."""
        self._require_admissible()
        table, relits = self._relit(u)
        parts, part_ranks, gathered = [], [], 0
        if carry:
            size, dtype = len(u), _index_dtype(len(relits) * len(u))
            where, ids = np.zeros(len(relits) * size, dtype=dtype), []
        for k, kept, image, image_ranks in self._images(u, relits):
            parts.append(image)
            part_ranks.append(image_ranks)
            if carry:
                ids.append((np.arange(size) if kept is None else kept).astype(dtype) + k * size)
                where[ids[-1]] = np.arange(gathered, gathered + len(image))
            gathered += len(image)
            if gathered > support_cap:
                merged = _merge_rows(np.concatenate(parts), np.concatenate(part_ranks), carry)
                parts, part_ranks, gathered = [merged[0]], [merged[1]], len(merged[0])
                if carry:
                    where, ids = merged[2][where], [np.concatenate(ids)[merged[3]]]
                if gathered > support_cap:
                    raise SupportCapError(f"support grew past the cap of {support_cap} points")
        if not parts:
            raise EmptySupportError("the operator erased the whole support")
        # The parts go before the merge, whose sort needs about as much again.
        points, point_ranks = np.concatenate(parts), np.concatenate(part_ranks)
        del parts, part_ranks, image, image_ranks
        stepped = FuzzySet._from_images(points, point_ranks,
                                        u.scaled()[0] * self.ifs._scaled_maps[0],
                                        table, u.dimension, u.exact, carry)
        if not carry:
            return stepped, None, None
        stepped, slot, top = stepped
        return stepped, slot[where], np.concatenate(ids)[top]

    def _relit(self, u: FuzzySet) -> Tuple[tuple, list]:
        """The step's level tables: the table (L, levels) of the new levels,
        and per map the rank in it of each level of u's table under the
        map's grey map, each grey map evaluated once per positive level (on
        ints in exact mode, `GreyLevelMap._ratio_at`): level 0 goes to 0 on
        an admissible system, which the callers have required."""
        self.ifs._check(u)
        lden, levels = u.scaled()[1]
        if u.exact:
            grey = [[g._ratio_at(n, lden) for n in levels[1:]] for g in self.grey_maps]
            lden = math.lcm(*(d for row in grey for _, d in row))
            grey = [[0, *(n * (lden // d) for n, d in row)] for row in grey]
        else:
            grey = [[0.0, *(value if type(value) is float else float(value)
                            for value in map(g, levels[1:]))] for g in self.grey_maps]
        new_levels = tuple(sorted({level for row in grey for level in row}))
        rank = {level: i for i, level in enumerate(new_levels)}
        dtype = _rank_dtype(len(new_levels))
        return (lden, new_levels), [np.array([rank[level] for level in row], dtype=dtype)
                                    for row in grey]

    def _images(self, u: FuzzySet, relits) -> Iterator[tuple]:
        """Per map k, in map order: k, the rows of u that its relit table
        keeps (None for all of them; a point whose new rank is 0 is not
        mapped), their images and their new ranks; a map that keeps no
        point yields nothing."""
        ranks = u.scaled()[3]
        for k, relit in enumerate(relits):
            new = relit[ranks]
            count = np.count_nonzero(new)
            if count == len(new):
                yield k, None, self.ifs._image(u, k), new
            elif count:
                kept = np.flatnonzero(new)
                yield k, kept, self.ifs._image(u, k, kept), new[kept]

    def _residual(self, u: FuzzySet, support_cap: int, carried: Optional[tuple]) -> Scalar:
        """d_infinity(self.step(u, support_cap), u), the same value of the
        same type, taken without building the step's result: the images of
        u under each map, grey-relit, make one side (`fuzzy._side`), one map
        at a time, and u's side reads them all through index arrays
        (`_Images`): the alpha-cut of a pointwise maximum is the union of
        the alpha-cuts. The pair sits on D*L, the images' denominator
        before the step cuts it, a multiple of d_infinity's.

        With the witnesses that a run carries to u = u_m (`iterate`), the
        image of u's row j under map k is witnessed by the image of
        u_(m-1)'s row down[j] under map k, a row of u at its level or
        above, and u's row z, the image of u_(m-1)'s row y under map k at
        its level, by the image of up[y] under map k. Without them (a run
        of 0 steps), each map's images seed them from the rows they share
        with u (`fuzzy._seeded`), so T(u) is never built either: an image
        that u does not hold at its level or above goes to that map's one
        kernel call, and a point of u that no image holds at its level or
        above goes to u's side's one.

        When the maps keep more than support_cap points together, the step
        is made just for its cap check, so SupportCapError comes where the
        step raises it. The step's other errors come in its order too,
        except that EmptyCutError, for a top level of u that its image does
        not reach, comes before any image is made.
        """
        self._require_admissible()
        table, relits = self._relit(u)
        u_den, u_table, _, ranks = u.scaled()
        kept = sum(int(np.count_nonzero(relit[ranks])) for relit in relits)
        if not kept:
            raise EmptySupportError("the operator erased the whole support")
        if kept > support_cap:
            self.step(u, support_cap)
        den, dtype, image_rank, u_rank = _pair_scale(u_den * self.ifs._scaled_maps[0], table,
                                                     u_den, u_table)
        image_rank, u_rank = np.array(image_rank, dtype=dtype), np.array(u_rank, dtype=dtype)
        relits = [image_rank[relit] for relit in relits]
        targets, target_ranks = _rescaled(u, den), u_rank[ranks]
        dtype = _index_dtype(len(relits) * len(u))
        if carried is None:
            # The sort reads u's rows on den, so they are made once here
            # and the kernel reads the same copy.
            targets = targets[:]
            up = np.full(len(u), -1, dtype=dtype)
        else:
            size, slot, top, down, up = carried
        best = 0
        for k, kept_rows, image, image_ranks in self._images(u, relits):
            rows = slice(None) if kept_rows is None else kept_rows
            if carried is None:
                witness = np.full(len(image), -1, dtype=_index_dtype(len(u)))
                pending = _seeded(image, image_ranks, witness, targets, target_ranks, up,
                                  np.arange(k * len(u), (k + 1) * len(u), dtype=dtype)[rows])
            else:
                witness, pending = slot[np.add(down[rows], k * size, dtype=np.intp)], None
            best = _side(image, image_ranks, witness, targets, target_ranks, den, u.exact, best,
                         pending)
            # Let go of this map's images and witnesses before the next
            # map's are made.
            del image, image_ranks, witness, pending
        if carried is not None:
            maps, rows = np.divmod(top, size)
            up, rows = np.multiply(maps, len(u), dtype=dtype), up[rows]
            up += rows
            del maps, rows
        best = _side(targets, target_ranks, up, _Images(self.ifs, u),
                     np.concatenate([relit[ranks] for relit in relits]), den, u.exact, best,
                     np.flatnonzero(up < 0) if carried is None else None)
        return _root(best, den, u.exact)

    def reach_diameter(self, u: FuzzySet) -> Scalar:
        """diam(supp(u) together with its image under every map): u's rows and
        the images of all of them, whatever their new level, each point once."""
        den = u.scaled()[0] * self.ifs._scaled_maps[0]
        reach = np.concatenate([_on_scale(u, den),
                                *(self.ifs._image(u, k) for k in range(len(self.ifs.maps)))])
        return diameter(_merge_rows(reach, np.zeros(len(reach), dtype=np.uint8))[0], den, self.exact)

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

    def _rounding(self, largest: float) -> float:
        """How far float mode's rounding can push d_n past C d_(n-1) for
        iterates whose coordinates stay within `largest` in magnitude. By
        the triangle inequality, d_n exceeds C d_(n-1) by at most the
        distances of u_(n-1) and u_n from the exact images of their
        predecessors. Per coordinate that is the grid snap (half of
        1/GRID) and d + 4 roundings (reading the keys, the map's d + 1
        operations, the product by GRID, the metric), each at most 2^-53 of
        S = (1 + a) largest + b, a the largest row sum of |A| and b the
        largest |offset|. Both terms are taken twice for margin; a point
        moves sqrt(d) times its coordinate error."""
        maps = self.ifs.maps
        a = max(sum(map(abs, row)) for f in maps for row in f.linear)
        b = max(abs(c) for f in maps for c in f.offset)
        d = self.dimension
        error = 1 / GRID + (d + 4) * 2.0 ** -52 * ((1 + a) * largest + b)
        return 2 * math.sqrt(d) * error

    def _check_decay(self, distances, largest: float) -> None:
        """The audit of the certificate: ContractionViolationError unless
        the last of the consecutive iterate distances d_1, ..., d_n obeys
        d_n <= C d_(n-1). Exact mode compares exactly, on squares; float
        mode allows 1e-9 of C d_(n-1) and the rounding of iterates whose
        coordinates stay within `largest` in magnitude (`_rounding`)."""
        if len(distances) < 2:
            return
        *_, previous, d = distances
        c = self.ifs.contraction_constant
        if self.exact:
            square, previous_square = _exact_square(d), _exact_square(previous)
            if square <= c * c * previous_square:
                return
            ratio = math.sqrt(square / previous_square) if previous_square else math.inf
        else:
            if d <= c * previous * (1 + 1e-9) + self._rounding(largest):
                return
            ratio = d / previous if previous else math.inf
        n = len(distances)
        raise ContractionViolationError(
            f"step {n} moved the iterate {ratio:.6g} times as far as step {n - 1}, more than "
            f"the declared contraction constant {float(c):g}", n, ratio, c)

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
        that close to its limit. The certificate rests on the declared
        contraction constant C, so every distance d_n from step 2 on, the
        residual's included, is checked against C d_(n-1); a violation
        raises ContractionViolationError before the step reaches on_step.
        Each d_n equals d_infinity(u_(n-1), u_n) in value and type, and the
        residual d_infinity(self.step(u_m), u_m) for the last iterate u_m;
        neither is taken that way. Every pair runs on witnesses, whatever
        its size: the first seeds them from the rows it shares, and the
        run carries them on through the steps' slot tables
        (`_consecutive`), so a later pair costs O(n) index and vector work
        and a few exact queries, and the residual makes no step:
        `_residual` takes it one map at a time. A step
        that passes support_cap raises SupportCapError with `partial` set to
        the last iterate and its report, whose certified_residual is None,
        and so does the residual when the step of u_m would pass it: when
        the maps' images of u_m number more than support_cap, the residual
        makes that step just for its cap check.
        """
        if (steps is None) == (tolerance is None):
            raise ValueError("choose exactly one of steps or tolerance")
        self._require_admissible()
        if not u0.normal:
            raise ValueError("initial fuzzy set must be normal (some level 1)")
        if steps is not None and steps < 0:
            raise ValueError("steps must be >= 0")
        if tolerance is not None and not tolerance > 0:
            raise ValueError("tolerance must be positive")
        diam = self.reach_diameter(u0)
        if steps is None:
            m, bound = self._steps_for_tolerance(diam, tolerance)
        else:
            m, bound = steps, self.scaled_bound(diam, steps)
        current, carried = u0, None
        history = []
        # Float mode: the largest coordinate magnitude of the iterates so
        # far, which scales the audit's rounding slack.
        largest = 0.0 if self.exact else magnitude(u0.scaled()[2]) / GRID
        try:
            for n in range(1, m + 1):
                nxt, slot, top = self._step(current, support_cap, carry=True)
                distance, carried = self._consecutive(current, nxt, slot, top, carried)
                history.append(distance)
                del slot, top
                if not self.exact:
                    largest = max(largest, magnitude(nxt.scaled()[2]) / GRID)
                self._check_decay(history, largest)
                # The witnesses hold no coordinates of u_(n-1), so it goes
                # before on_step sees u_n.
                current = nxt
                if on_step is not None:
                    on_step(n, nxt)
            residual = self._residual(current, support_cap, carried)
            self._check_decay(history + [residual], largest)
        except SupportCapError as err:
            # Whether a step or the residual's cap check passed the cap, the
            # partial result is the last iterate reached, with its bound.
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

    def _consecutive(self, u: FuzzySet, nxt: FuzzySet, slot: np.ndarray, top: np.ndarray,
                     carried: Optional[tuple]) -> Tuple[Scalar, tuple]:
        """d_infinity(u, nxt) for nxt the step of u with the tables slot and
        top of `_step`, and the witnesses that the run carries on,
        (|u|, slot, top, down, up), down giving for each row of nxt a row
        of u and up for each row of u a row of nxt, each at the row's level
        or above.

        The pair is `fuzzy._pair_distance(nxt, u)`, whatever its size,
        which runs on the witnesses carried from the pair before
        (`_carried`), or for the run's first pair, carried None, seeds them
        as d_infinity does.
        """
        witnesses = None if carried is None else _carried(carried, len(u), slot, top)
        del carried
        distance, witnesses = _pair_distance(nxt, u, witnesses)
        return distance, (len(u), slot, top, *witnesses)

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
            n = report.iterations + 1
            ratio = float(report.certified_residual) / float(report.a_priori)
            raise ContractionViolationError(
                f"step {n}: the residual is {ratio:.6g} times the certified bound at the "
                f"declared contraction constant {float(self.ifs.contraction_constant):g}",
                n, ratio, self.ifs.contraction_constant)
        return final, report

