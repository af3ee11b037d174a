"""Points in R^D, finite point sets and the Hausdorff-Pompeiu metric.

Compact sets are represented as finite, deduplicated point collections;
float points are snapped to the 1e-12 grid of `grid_key`. The directed and
Hausdorff distances come from one nearest-neighbour kernel,
`directed_max_squared`, which `fuzzy.d_infinity` shares with per-point
prefix limits. Float mode answers every prefix from one KD-tree. Exact mode
works on integers: the points of both operands are brought onto one common
denominator D (`scale_points`), and the kernel compares integer squared
distances over D^2, scanning every prefix for small inputs and a float KD
shortlist otherwise, so results stay exact. The brute-force double loop is
kept as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
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


def _nn_radius_slack(query: np.ndarray, data: np.ndarray) -> float:
    # Absolute slack dominating every float rounding error in the candidate
    # shortlist; scales with coordinate magnitude.
    magnitude = max(float(np.abs(query).max()), float(np.abs(data).max()))
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


def _squared(p: Tuple[int, ...], q: Tuple[int, ...]) -> int:
    total = 0
    for a, b in zip(p, q):
        total += (a - b) * (a - b)
    return total


def _scan_prefix(data: np.ndarray, point: np.ndarray, k: int) -> Tuple[float, int]:
    """Float distance and index of the nearest of data[:k] to point, by one
    numpy pass: the KD-tree's arithmetic, a sum of squared differences and
    its square root, overflowing to inf as silently."""
    with np.errstate(over="ignore"):
        squares = ((data[:k] - point) ** 2).sum(axis=1)
    j = int(squares.argmin())
    return float(np.sqrt(squares[j])), j


def _prefix_nearest(tree: cKDTree, query: np.ndarray, limits: np.ndarray):
    """Float distance and index of each query row's nearest point among the
    first limits[i] points of the tree, in three rounds: the nearest overall;
    for a row whose nearest lies past its limit, the first of its 8 nearest
    inside the prefix; for a row still left, a scan of its own prefix."""
    dist, nearest = tree.query(query, k=1)
    outside = np.flatnonzero(nearest >= limits)
    if outside.size:
        # The k nearest are sorted by distance, so the first one inside the
        # prefix is the nearest in it. There are at least two targets, since
        # some row's limit is below its nearest's index.
        near_dist, near_index = tree.query(query[outside], k=min(8, tree.n))
        inside = near_index < limits[outside, None]
        first = inside.argmax(axis=1)
        found = inside[np.arange(outside.size), first]
        rows = outside[found]
        dist[rows] = near_dist[found, first[found]]
        nearest[rows] = near_index[found, first[found]]
        for i in outside[~found].tolist():
            dist[i], nearest[i] = _scan_prefix(tree.data, query[i], limits[i])
    return dist, nearest


def directed_max_squared(points: Sequence, targets: Sequence, den: Optional[int],
                         exact: bool, limits: Optional[Sequence[int]] = None):
    """Max over `points` of the min squared distance into `targets`, point i
    looking only at the prefix targets[:limits[i]] (all of them when limits
    is None; every limit is at least 1).

    The one nearest-neighbour kernel behind `directed_distance`, `hausdorff`
    and `d_infinity`, whose per-point limits are level-sorted prefixes. The
    points are float tuples (`den` None) or integer numerator tuples over
    the common denominator `den`. Every prefix is answered from one KD-tree
    over all targets, built once per call (see `_prefix_nearest`). In float
    mode the result is a float, the largest of the tree's nearest distances.
    In exact mode the result is the integer numerator of the squared
    distance over den^2, found with integer arithmetic only:

    - when the pairs scanned (the sum of the limits) are few, without a
      tree, by scanning each point's prefix, a point stopping once it has a
      target no farther than the largest minimum so far, since it cannot
      raise it;
    - otherwise through the float nearest neighbour of each point in its
      prefix. Its exact distance bounds the point's minimum from above, so
      only a point whose bound exceeds the largest minimum so far scans the
      prefix targets within the rounding slack of its float distance, which
      hold its true nearest. Points go in decreasing float distance, so few
      of them scan.
    """
    limits = np.full(len(points), len(targets)) if limits is None else np.asarray(limits)
    worst = 0
    if exact and int(limits.sum()) <= _BRUTE_PAIR_LIMIT:
        for p, k in zip(points, limits.tolist()):
            best = None
            for q in islice(targets, k):
                d = _squared(p, q)
                if d <= worst:
                    break
                if best is None or d < best:
                    best = d
            else:
                worst = best
        return worst
    tree = cKDTree(as_float_array(targets, den))
    query = as_float_array(points, den)
    dist, nearest = _prefix_nearest(tree, query, limits)
    if not exact:
        return float(dist.max()) ** 2
    radius = dist + _nn_radius_slack(query, tree.data)
    for i in np.argsort(-dist, kind="stable"):
        p = points[i]
        if _squared(p, targets[nearest[i]]) > worst:
            k = limits[i]
            shortlist = tree.query_ball_point(query[i], radius[i])
            worst = max(worst, min(_squared(p, targets[j]) for j in shortlist if j < k))
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
