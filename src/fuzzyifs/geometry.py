"""Points in R^D, finite point sets and the Hausdorff-Pompeiu metric.

Compact sets are represented as finite, deduplicated point collections. The
directed and Hausdorff distances come from one nearest-neighbour kernel,
`directed_max_squared`, which `fuzzy.d_infinity` shares. Float mode answers
from a KD-tree. Exact mode compares candidates with integer arithmetic,
taking every pair for small inputs and a float KD shortlist otherwise, so
results stay exact. The brute-force double loop is kept as a test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

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


def point_is_exact(p: Sequence) -> bool:
    return all(is_exact(c) for c in p)


def as_point(coords: Sequence, exact: bool) -> Point:
    """Normalize coordinates for the chosen mode.

    Float coordinates are snapped to the 1e-12 dedup grid, so equal-within-
    noise points hash identically.
    """
    if exact:
        return tuple(Fraction(c) for c in coords)
    return tuple(round(float(c), DEDUP_DECIMALS) + 0.0 for c in coords)


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
        seen = {}
        for p in raw:
            if len(p) != dim:
                raise DimensionMismatchError("points of mixed dimension")
            key = as_point(p, exact)
            if key not in seen:
                seen[key] = key
        return cls(points=tuple(seen.values()), exact=exact)

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


def _squared_numden(p: Point, q: Point):
    """Squared distance of exact points as an unnormalized integer pair.

    Skipping Fraction's gcd normalization makes the exact candidate
    comparison an order of magnitude faster.
    """
    num = 0
    den = 1
    for a, b in zip(p, q):
        diff_num = a.numerator * b.denominator - b.numerator * a.denominator
        diff_den = a.denominator * b.denominator
        dd2 = diff_den * diff_den
        num = num * dd2 + diff_num * diff_num * den
        den = den * dd2
    return num, den


def tree_pays_off(n_points: int, n_targets: int, exact: bool) -> bool:
    """Whether `directed_max_squared` answers through a KD-tree: always in
    float mode, in exact mode above _BRUTE_PAIR_LIMIT point pairs."""
    return not exact or n_points * n_targets > _BRUTE_PAIR_LIMIT


def directed_max_squared(points: Sequence[Point], targets: Sequence[Point], exact: bool,
                         tree: Optional[cKDTree] = None) -> Scalar:
    """Max over `points` of the min squared distance into `targets`.

    The one nearest-neighbour kernel behind `directed_distance`, `hausdorff`
    and `d_infinity`. `tree`, if given, must be a KD-tree over the float
    coordinates of `targets`, in the same order. Float mode answers with the
    tree's nearest neighbours. Exact mode compares candidates with integer
    arithmetic: every target when the pairs are few and no tree is given,
    otherwise the targets whose float distance lies within the rounding
    slack of the float nearest neighbour. Only the final maximum is
    normalized into a Fraction, so the result is exact either way.
    """
    if tree is None and tree_pays_off(len(points), len(targets), exact):
        tree = cKDTree(np.array(targets, dtype=float))
    if tree is None:
        candidates = itertools.repeat(range(len(targets)))
    else:
        query = np.array(points, dtype=float)
        dist, _ = tree.query(query, k=1)
        if not exact:
            return float(dist.max()) ** 2
        slack = _nn_radius_slack(np.concatenate([query, tree.data]))
        candidates = tree.query_ball_point(query, dist + slack)
    worst_num, worst_den = 0, 1
    for p, idxs in zip(points, candidates):
        best_num, best_den = _squared_numden(p, targets[idxs[0]])
        if best_num:
            for j in idxs[1:]:
                num, den = _squared_numden(p, targets[j])
                if num * best_den < best_num * den:
                    best_num, best_den = num, den
                    if not num:
                        break
        if best_num * worst_den > worst_num * best_den:
            worst_num, worst_den = best_num, best_den
    return Fraction(worst_num, worst_den)


def directed_distance(a: FinitePointSet, b: FinitePointSet):
    """sup over a of inf distance into b. Not symmetric."""
    _require_compatible(a, b)
    best = directed_max_squared(a.points, b.points, a.exact)
    return sqrt_exact(best) if a.exact else math.sqrt(best)


def hausdorff(a: FinitePointSet, b: FinitePointSet):
    """max of the two directed distances; a metric on exact point sets."""
    return max(directed_distance(a, b), directed_distance(b, a))


def hausdorff_brute(a: FinitePointSet, b: FinitePointSet):
    return max(directed_distance_brute(a, b), directed_distance_brute(b, a))


def diameter(a: FinitePointSet):
    """Largest pairwise distance; zero for singletons.

    Float mode takes one numpy row of distances per point. Exact mode
    compares the pairs' squares as integer pairs (`_squared_numden`) and
    normalizes only the largest.
    """
    if not a.exact:
        arr = a.to_float_array()
        return max((float(np.linalg.norm(arr[i + 1:] - arr[i], axis=1).max())
                    for i in range(len(arr) - 1)), default=0.0)
    pts = a.points
    best_num, best_den = 0, 1
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            num, den = _squared_numden(p, q)
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return sqrt_exact(Fraction(best_num, best_den))
