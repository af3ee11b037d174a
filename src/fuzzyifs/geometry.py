"""Points in R^D, finite point sets and the Hausdorff-Pompeiu metric.

Compact sets are represented as finite, deduplicated point collections;
float points are snapped to the 1e-12 grid of `grid_key`. The directed and
Hausdorff distances come from one nearest-neighbour kernel,
`directed_max_squared`, which `fuzzy.d_infinity` shares. Float mode answers
from a KD-tree. Exact mode works on integers: the points of both operands
are brought onto one common denominator D (`scale_points`), and the kernel
compares integer squared distances over D^2, taking every pair for small
inputs and a float KD shortlist otherwise, so results stay exact. The
brute-force double loop is kept as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .numeric import DEDUP_DECIMALS, Scalar, is_exact, sqrt_exact

Point = Tuple[Scalar, ...]

# Up to this many point pairs the exact all-pairs scan is cheaper than a
# KD-tree, whose fixed cost of building and querying dominates on small sets.
_BRUTE_PAIR_LIMIT = 4096


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


class EmptySetError(ValueError):
    """An operation that needs a nonempty point set received an empty one."""


class GridRangeError(ValueError):
    """A float coordinate that the 1e-12 grid cannot hold."""


def point_is_exact(p: Sequence) -> bool:
    return all(is_exact(c) for c in p)


# Float points are held as integers over GRID, the 1e-12 grid.
GRID = 10 ** DEDUP_DECIMALS


def grid_key(coords: Sequence) -> Tuple[int, ...]:
    """The float grid's key of a point, round(x * 10^12) per coordinate:
    the one snapping rule of float mode, shared by `as_point` and
    `FuzzySet`, so equal-within-noise points hash identically. A coordinate
    the grid cannot hold (infinite, NaN, or one whose x * 10^12 overflows)
    raises GridRangeError naming it."""
    try:
        return tuple([round(float(c) * GRID) for c in coords])
    except (OverflowError, ValueError):
        bad = next(c for c in coords if not math.isfinite(float(c) * GRID))
        raise GridRangeError(
            f"float coordinate {bad} is off the 1e-12 grid: x * 10^12 must be finite") from None


def as_point(coords: Sequence, exact: bool) -> Point:
    """Normalize coordinates for the chosen mode: Fractions in exact mode,
    the grid point key / GRID of `grid_key` in float mode."""
    if exact:
        return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
    return tuple([n / GRID for n in grid_key(coords)])


def _check_dimensions(p: Sequence, q: Sequence) -> None:
    if len(p) != len(q):
        raise DimensionMismatchError(f"dimension {len(p)} vs {len(q)}")


def squared_distance(p: Sequence, q: Sequence) -> Scalar:
    _check_dimensions(p, q)
    total = None
    for a, b in zip(p, q):
        d = a - b
        total = d * d if total is None else total + d * d
    return total


def euclid(p: Sequence, q: Sequence):
    """Euclidean distance; exact inputs give a Fraction or Radical."""
    sq = squared_distance(p, q)
    if is_exact(sq):
        return sqrt_exact(sq)
    return math.sqrt(sq)


@dataclass(frozen=True)
class FinitePointSet:
    """Nonempty, deduplicated, ordered collection of same-dimension points."""

    points: Tuple[Point, ...]
    exact: bool

    @classmethod
    def from_points(cls, points: Iterable[Sequence], exact: Optional[bool] = None) -> "FinitePointSet":
        raw = list(points)
        if not raw:
            raise EmptySetError("point set must be nonempty")
        if exact is None:
            exact = point_is_exact(raw[0])
        dim = len(raw[0])
        if any(len(p) != dim for p in raw):
            raise DimensionMismatchError("points of mixed dimension")
        return cls(points=tuple(dict.fromkeys(as_point(p, exact) for p in raw)), exact=exact)

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def point_lookup(self) -> frozenset:
        """Cached hash lookup of the points."""
        lookup = self.__dict__.get("_lookup")
        if lookup is None:
            lookup = frozenset(self.points)
            object.__setattr__(self, "_lookup", lookup)
        return lookup

    def contains(self, p: Sequence, tol: float = 0.0) -> bool:
        key = as_point(p, self.exact)
        if tol == 0.0:
            return key in self.point_lookup()
        return key in self.point_lookup() or any(euclid(key, q) <= tol for q in self.points)

    def union(self, *others: "FinitePointSet") -> "FinitePointSet":
        pts = list(self.points)
        for o in others:
            if o.exact != self.exact:
                raise ValueError("cannot mix numeric modes in a union")
            pts.extend(o.points)
        return FinitePointSet.from_points(pts, exact=self.exact)

    def issubset(self, other: "FinitePointSet", tol: float = 0.0) -> bool:
        if tol == 0.0:
            target = set(other.points)
            return all(p in target for p in self.points)
        return all(other.contains(p, tol) for p in self.points)

    def same_points(self, other: "FinitePointSet", tol: float = 0.0) -> bool:
        return self.issubset(other, tol) and other.issubset(self, tol)

    def to_float_array(self) -> np.ndarray:
        return np.array([[float(c) for c in p] for p in self.points], dtype=float)


def _require_compatible(a: FinitePointSet, b: FinitePointSet) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatchError(f"dimension {a.dimension} vs {b.dimension}")
    if a.exact != b.exact:
        raise ValueError("cannot mix numeric modes")


def directed_distance_brute(a: FinitePointSet, b: FinitePointSet):
    """Reference double loop: max over a of min distance into b."""
    _require_compatible(a, b)
    best = None
    for p in a.points:
        closest = min(squared_distance(p, q) for q in b.points)
        if best is None or closest > best:
            best = closest
    if a.exact:
        return sqrt_exact(best)
    return math.sqrt(best)


def _nn_radius_slack(arr: np.ndarray) -> float:
    # Absolute slack dominating every float rounding error in the candidate
    # shortlist; scales with coordinate magnitude.
    magnitude = float(np.abs(arr).max()) if arr.size else 1.0
    return 1e-9 * max(1.0, magnitude)


def scale_points(*groups: Sequence[Point]) -> Tuple[int, List[List[Tuple[int, ...]]]]:
    """Exact point groups on one common denominator D, the least one: (D,
    one list of numerator tuples per group), each point being its numerator
    tuple divided by D."""
    den = math.lcm(*{c.denominator for group in groups for p in group for c in p})
    return den, [[tuple(c.numerator * (den // c.denominator) for c in p) for p in group]
                 for group in groups]


def as_float_array(points: Sequence[Point], den: Optional[int]) -> np.ndarray:
    """Float coordinates of points, or of numerator tuples over den. n / den
    is int true division, correctly rounded like float(Fraction(n, den)),
    and stays in float range when n and den do not."""
    if den is None:
        return np.array(points, dtype=float)
    flat = np.fromiter((n / den for p in points for n in p), float, len(points) * len(points[0]))
    return flat.reshape(len(points), -1)


def tree_pays_off(n_points: int, n_targets: int, exact: bool) -> bool:
    """Whether `directed_max_squared` answers through a KD-tree: always in
    float mode, in exact mode above _BRUTE_PAIR_LIMIT point pairs."""
    return not exact or n_points * n_targets > _BRUTE_PAIR_LIMIT


def _squared(p: Tuple[int, ...], q: Tuple[int, ...]) -> int:
    total = 0
    for a, b in zip(p, q):
        total += (a - b) * (a - b)
    return total


def directed_max_squared(points: Sequence, targets: Sequence, den: Optional[int],
                         exact: bool, tree: Optional[cKDTree] = None):
    """Max over `points` of the min squared distance into `targets`.

    The one nearest-neighbour kernel behind `directed_distance`, `hausdorff`
    and `d_infinity`. The points are float tuples (`den` None) or integer
    numerator tuples over the common denominator `den`. In float mode the
    result is a float, answered with a KD-tree's nearest neighbours. In exact
    mode the result is the integer numerator of the squared distance over
    den^2, found with integer arithmetic only:

    - when the pairs are few and no tree is given, by scanning every target,
      a point stopping once it has a target no farther than the largest
      minimum so far, since it cannot raise it;
    - otherwise through the float nearest neighbour of each point. Its exact
      distance bounds the point's minimum from above, so only a point whose
      bound exceeds the largest minimum so far scans the targets within the
      rounding slack of its float distance, which hold its true nearest.
      Points go in decreasing float distance, so few of them scan.

    `tree`, if given, must be a KD-tree over `as_float_array(targets, den)`.
    """
    if tree is None and tree_pays_off(len(points), len(targets), exact):
        tree = cKDTree(as_float_array(targets, den))
    worst = 0
    if tree is None:
        for p in points:
            best = None
            for q in targets:
                d = _squared(p, q)
                if d <= worst:
                    break
                if best is None or d < best:
                    best = d
            else:
                worst = best
        return worst
    query = as_float_array(points, den)
    dist, nearest = tree.query(query, k=1)
    if not exact:
        return float(dist.max()) ** 2
    radius = dist + _nn_radius_slack(np.concatenate([query, tree.data]))
    nearest = nearest.tolist()
    for i in np.argsort(-dist, kind="stable").tolist():
        p = points[i]
        if _squared(p, targets[nearest[i]]) > worst:
            shortlist = tree.query_ball_point(query[i], radius[i])
            worst = max(worst, min(_squared(p, targets[j]) for j in shortlist))
    return worst


def _max_squared(a: FinitePointSet, b: FinitePointSet, symmetric: bool):
    """The kernel from a into b, and from b into a too when symmetric; exact
    sets are scaled to their common denominator once for both."""
    _require_compatible(a, b)
    exact = a.exact
    den, (points, targets) = scale_points(a.points, b.points) if exact else (None, (a.points, b.points))
    best = directed_max_squared(points, targets, den, exact)
    if symmetric:
        best = max(best, directed_max_squared(targets, points, den, exact))
    return sqrt_exact(Fraction(best, den * den)) if exact else math.sqrt(best)


def directed_distance(a: FinitePointSet, b: FinitePointSet):
    """sup over a of inf distance into b. Not symmetric."""
    return _max_squared(a, b, symmetric=False)


def hausdorff(a: FinitePointSet, b: FinitePointSet):
    """max of the two directed distances; a metric on exact point sets."""
    return _max_squared(a, b, symmetric=True)


def hausdorff_brute(a: FinitePointSet, b: FinitePointSet):
    return max(directed_distance_brute(a, b), directed_distance_brute(b, a))


def diameter(a: FinitePointSet):
    """Largest pairwise distance; zero for singletons.

    Float mode takes one numpy row of distances per point. Exact mode puts
    the points on one common denominator (`scale_points`), compares integer
    squared distances and normalizes only the largest.
    """
    if not a.exact:
        arr = a.to_float_array()
        return max((float(np.linalg.norm(arr[i + 1:] - arr[i], axis=1).max())
                    for i in range(len(arr) - 1)), default=0.0)
    den, (pts,) = scale_points(a.points)
    best = 0
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            d = _squared(p, q)
            if d > best:
                best = d
    return sqrt_exact(Fraction(best, den * den))
