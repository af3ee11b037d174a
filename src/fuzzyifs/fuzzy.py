"""Finitely supported fuzzy sets, grey level maps and the sup-over-cuts
metric.

A fuzzy set stores only its strictly positive levels; level zero means "not
in the support". Finitely supported functions are automatically upper
semicontinuous, so no continuity bookkeeping is needed.

The metric `d_infinity` is the supremum over alpha of the Hausdorff distance
between alpha-cuts. On finite supports the supremum is attained on the
finite set of occurring levels (cuts are constant between consecutive
levels), which gives the level-sweep reference implementation, kept as a
test oracle. `d_infinity` uses the equivalent per-point form: for each
support point x of u, the nearest point of v at level >= u(x), and
symmetrically. It has one body for both numeric modes, built on the same
nearest-neighbour kernel as the crisp `geometry.hausdorff`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    DimensionMismatchError,
    FinitePointSet,
    Point,
    as_point,
    directed_max_squared,
    hausdorff,
    point_is_exact,
    tree_pays_off,
)
from .numeric import DEFAULT_TOL, Scalar, is_exact, sqrt_exact


class EmptyCutError(ValueError):
    """An alpha-cut (or threshold set) came out empty."""


class EmptySupportError(ValueError):
    """A fuzzy set lost its entire support."""


class GreyMapError(ValueError):
    """Invalid grey level map data or evaluation outside [0, 1]."""


def _check_unit_interval(value, what: str):
    if not (0 <= value <= 1):
        raise GreyMapError(f"{what} {value!r} outside [0, 1]")


@dataclass(frozen=True)
class GreyLevelMap:
    """Nondecreasing right-continuous map of [0, 1] into itself.

    Stored as nodes (t, left value, right value) with strictly increasing t;
    a node with left < right encodes a jump, and the value at the jump point
    is the right value. Between nodes the graph is linear from one node's
    right value to the next node's left value. Build instances through
    `from_breakpoints`, where a jump is written as two breakpoints sharing
    the same t.
    """

    nodes: Tuple[Tuple[Scalar, Scalar, Scalar], ...]
    _ts: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _rights: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _slopes: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        ts = np.array([float(t) for t, _, _ in self.nodes])
        rights = np.array([float(r) for _, _, r in self.nodes])
        lefts = np.array([float(l) for _, l, _ in self.nodes])
        gaps = np.diff(ts)
        slopes = (lefts[1:] - rights[:-1]) / gaps
        object.__setattr__(self, "_ts", ts)
        object.__setattr__(self, "_rights", rights)
        object.__setattr__(self, "_slopes", slopes)

    @classmethod
    def from_breakpoints(cls, breakpoints: Sequence[Sequence], exact: bool = True) -> "GreyLevelMap":
        pts = [(Fraction(t), Fraction(v)) if exact else (float(t), float(v)) for t, v in breakpoints]
        if len(pts) < 2:
            raise GreyMapError("need at least breakpoints at t=0 and t=1")
        ts = [t for t, _ in pts]
        vs = [v for _, v in pts]
        for t in ts:
            _check_unit_interval(t, "breakpoint position")
        for v in vs:
            _check_unit_interval(v, "breakpoint value")
        if ts[0] != 0 or ts[-1] != 1:
            raise GreyMapError("breakpoints must start at t=0 and end at t=1")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise GreyMapError("breakpoint positions must be nondecreasing")
        if any(b < a for a, b in zip(vs, vs[1:])):
            raise GreyMapError("breakpoint values must be nondecreasing")
        nodes = []
        i = 0
        while i < len(pts):
            j = i
            while j + 1 < len(pts) and ts[j + 1] == ts[i]:
                j += 1
            if j - i >= 2:
                raise GreyMapError(f"more than two breakpoints share t={ts[i]}")
            nodes.append((ts[i], vs[i], vs[j]))
            i = j + 1
        return cls(nodes=tuple(nodes))

    @classmethod
    def identity(cls, exact: bool = True) -> "GreyLevelMap":
        return cls.from_breakpoints([(0, 0), (1, 1)], exact=exact)

    @classmethod
    def linear_ramp(cls, top, exact: bool = True) -> "GreyLevelMap":
        """t -> top * t."""
        return cls.from_breakpoints([(0, 0), (1, top)], exact=exact)

    @property
    def exact(self) -> bool:
        return is_exact(self.nodes[0][0])

    @property
    def value_at_zero(self) -> Scalar:
        return self.nodes[0][2]

    @property
    def value_at_one(self) -> Scalar:
        return self.nodes[-1][2]

    @property
    def is_nonzero(self) -> bool:
        return self.value_at_one > 0

    def to_breakpoints(self):
        out = []
        for t, left, right in self.nodes:
            out.append((t, left))
            if right != left:
                out.append((t, right))
        return out

    def to_float(self) -> "GreyLevelMap":
        return GreyLevelMap(
            nodes=tuple((float(t), float(l), float(r)) for t, l, r in self.nodes)
        )

    def __call__(self, t: Scalar) -> Scalar:
        if -1e-12 <= t < 0:
            t = 0
        elif 1 < t <= 1 + 1e-12:
            t = 1
        if not (0 <= t <= 1):
            raise GreyMapError(f"grey map evaluated at {t!r}, outside [0, 1]")
        nodes = self.nodes
        lo, hi = 0, len(nodes) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if nodes[mid][0] <= t:
                lo = mid
            else:
                hi = mid - 1
        tk, _, right = nodes[lo]
        if t == tk or lo == len(nodes) - 1:
            return right
        tn, left_next, _ = nodes[lo + 1]
        value = right + (left_next - right) * (t - tk) / (tn - tk)
        return min(max(value, 0), 1)

    def eval_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation."""
        x = np.clip(values, 0.0, 1.0)
        idx = np.clip(np.searchsorted(self._ts, x, side="right") - 1, 0, len(self._ts) - 2)
        out = self._rights[idx] + self._slopes[idx] * (x - self._ts[idx])
        out = np.where(x >= self._ts[-1], self._rights[-1], out)
        return np.clip(out, 0.0, 1.0)

    def level_preimage(self, alpha: Scalar) -> Scalar:
        """Smallest argument whose value reaches alpha.

        Right continuity makes the infimum attained: the returned beta
        satisfies rho(beta) >= alpha while rho(gamma) < alpha for gamma <
        beta.
        """
        if not (0 < alpha <= 1):
            raise GreyMapError(f"threshold {alpha!r} outside (0, 1]")
        if self.value_at_one < alpha:
            raise GreyMapError(f"grey map never reaches {alpha}")
        if alpha <= self.nodes[0][2]:
            return self.nodes[0][0]
        for k in range(1, len(self.nodes)):
            prev_t, _, prev_right = self.nodes[k - 1]
            t, left, right = self.nodes[k]
            if prev_right < alpha <= left:
                return prev_t + (alpha - prev_right) * (t - prev_t) / (left - prev_right)
            if alpha <= right:
                return t
        raise GreyMapError(f"grey map never reaches {alpha}")  # unreachable


class FuzzySet:
    """Finitely supported fuzzy subset of R^D with levels in (0, 1]."""

    __slots__ = ("_support", "exact", "dimension")

    def __init__(self, pairs: Iterable[Tuple[Sequence, Scalar]], exact: Optional[bool] = None):
        pairs = list(pairs)
        if not pairs:
            raise EmptySupportError("fuzzy set needs a nonempty support")
        if exact is None:
            p0, l0 = pairs[0]
            exact = point_is_exact(p0) and is_exact(l0)
        dimension = len(pairs[0][0])
        support: Dict[Point, Scalar] = {}
        for p, level in pairs:
            if len(p) != dimension:
                raise DimensionMismatchError("support points of mixed dimension")
            if level < 0 or level > 1:
                raise ValueError(f"level {level!r} outside [0, 1]")
            if level == 0:
                continue
            level = Fraction(level) if exact else float(level)
            key = as_point(p, exact)
            old = support.get(key)
            if old is None or level > old:
                support[key] = level
        if not support:
            raise EmptySupportError("all levels were zero")
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "dimension", dimension)

    @classmethod
    def _from_dict(cls, support: Dict[Point, Scalar], exact: bool, dimension: int) -> "FuzzySet":
        if not support:
            raise EmptySupportError("fuzzy set needs a nonempty support")
        obj = object.__new__(cls)
        object.__setattr__(obj, "_support", support)
        object.__setattr__(obj, "exact", exact)
        object.__setattr__(obj, "dimension", dimension)
        return obj

    @classmethod
    def _from_float_arrays(cls, points: np.ndarray, levels: np.ndarray) -> "FuzzySet":
        keep = levels > 0.0
        points = points[keep]
        levels = levels[keep]
        if not len(points):
            raise EmptySupportError("all levels were zero")
        support = {tuple(row): float(l) for row, l in zip(points.tolist(), levels.tolist())}
        return cls._from_dict(support, exact=False, dimension=points.shape[1])

    def __setattr__(self, *args):
        raise AttributeError("FuzzySet is immutable")

    def items(self):
        return self._support.items()

    def support_points(self) -> Tuple[Point, ...]:
        return tuple(self._support.keys())

    def support_set(self) -> FinitePointSet:
        return FinitePointSet(points=tuple(self._support.keys()), exact=self.exact)

    def level(self, p: Sequence) -> Scalar:
        key = as_point(p, self.exact)
        zero = Fraction(0) if self.exact else 0.0
        return self._support.get(key, zero)

    def level_values(self):
        """Distinct occurring levels, ascending."""
        return sorted(set(self._support.values()))

    @property
    def max_level(self) -> Scalar:
        return max(self._support.values())

    @property
    def normal(self) -> bool:
        if self.exact:
            return self.max_level == 1
        return self.max_level >= 1.0 - DEFAULT_TOL

    def points_array(self) -> np.ndarray:
        return np.array([[float(c) for c in p] for p in self._support], dtype=float)

    def levels_array(self) -> np.ndarray:
        return np.array([float(l) for l in self._support.values()], dtype=float)

    def to_float(self) -> "FuzzySet":
        if not self.exact:
            return self
        return FuzzySet(
            [(tuple(float(c) for c in p), float(l)) for p, l in self.items()],
            exact=False,
        )

    def __eq__(self, other):
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return (
            self.exact == other.exact
            and self.dimension == other.dimension
            and self._support == other._support
        )

    def __len__(self):
        return len(self._support)

    def __repr__(self):
        return f"FuzzySet({len(self._support)} points, max level {self.max_level})"


def _check_compatible(u: FuzzySet, v: FuzzySet) -> None:
    if u.dimension != v.dimension:
        raise DimensionMismatchError(f"dimension {u.dimension} vs {v.dimension}")
    if u.exact != v.exact:
        raise ValueError("cannot mix numeric modes")


def alpha_cut(u: FuzzySet, alpha: Scalar) -> FinitePointSet:
    """Points at level >= alpha; alpha = 0 gives the support."""
    if not (0 <= alpha <= 1):
        raise ValueError(f"alpha {alpha!r} outside [0, 1]")
    if alpha == 0:
        return u.support_set()
    pts = [p for p, l in u.items() if l >= alpha]
    if not pts:
        raise EmptyCutError(f"cut at level {alpha} is empty")
    return FinitePointSet(points=tuple(pts), exact=u.exact)


def zadeh_pushforward(f, u: FuzzySet) -> FuzzySet:
    """Image fuzzy set: level at an image point is the max over preimages."""
    return FuzzySet([(f(p), l) for p, l in u.items()], exact=u.exact)


def apply_grey(rho: GreyLevelMap, u: FuzzySet) -> FuzzySet:
    """Compose levels with a grey map; requires rho(0) = 0 so the complement
    of the support stays at level zero."""
    if rho.value_at_zero != 0:
        raise GreyMapError("grey map with rho(0) != 0 would light up the whole space")
    pairs = [(p, rho(l)) for p, l in u.items()]
    if all(level == 0 for _, level in pairs):
        raise EmptySupportError("grey map erased the whole support")
    return FuzzySet(pairs, exact=u.exact)


def join(sets: Sequence[FuzzySet]) -> FuzzySet:
    """Pointwise maximum of finitely many fuzzy sets."""
    if not sets:
        raise ValueError("join of an empty family")
    first = sets[0]
    merged: Dict[Point, Scalar] = dict(first.items())
    for other in sets[1:]:
        _check_compatible(first, other)
        for p, l in other.items():
            old = merged.get(p)
            if old is None or l > old:
                merged[p] = l
    return FuzzySet._from_dict(merged, exact=first.exact, dimension=first.dimension)


def restrict(u: FuzzySet, s: FinitePointSet) -> FuzzySet:
    """u on the given set, zero elsewhere."""
    tol = 0.0 if u.exact else DEFAULT_TOL
    pairs = [(p, l) for p, l in u.items() if s.contains(p, tol)]
    if not pairs:
        raise EmptySupportError("restriction has empty support")
    return FuzzySet(pairs, exact=u.exact)


def _directed_max_squared(u: FuzzySet, v: FuzzySet) -> Scalar:
    """Squared directed part of d_infinity, in either numeric mode.

    Points whose own position already sits in the other set's cut contribute
    zero and are skipped up front (Taha & Hanbury, IEEE TPAMI 37(11), 2015),
    which makes consecutive-iterate distances cheap. The rest are grouped by
    level; each group is one call of the geometry kernel against the prefix
    of the other support at that level or above, with one KD-tree per prefix
    length shared by the groups that need one.
    """
    zero = Fraction(0) if u.exact else 0.0
    vmap = v._support
    pending = [(p, lp) for p, lp in u.items() if vmap.get(p, zero) < lp]
    if not pending:
        return zero
    v_items = sorted(v.items(), key=lambda item: item[1], reverse=True)
    v_points = [p for p, _ in v_items]
    v_neg_levels = [-l for _, l in v_items]
    groups: Dict[Scalar, list] = {}
    for p, lp in pending:
        groups.setdefault(lp, []).append(p)
    v_arr = None
    trees: Dict[int, cKDTree] = {}
    best = zero
    for lam, pts in groups.items():
        k = bisect.bisect_right(v_neg_levels, -lam)
        if k == 0:
            raise EmptyCutError(f"no point of the other set at level >= {lam}")
        tree = None
        if tree_pays_off(len(pts), k, u.exact):
            tree = trees.get(k)
            if tree is None:
                if v_arr is None:
                    v_arr = np.array(v_points, dtype=float)
                tree = trees[k] = cKDTree(v_arr[:k])
        best = max(best, directed_max_squared(pts, v_points[:k], u.exact, tree))
    return best


def d_infinity(u: FuzzySet, v: FuzzySet):
    """Supremum over alpha of the Hausdorff distance between alpha-cuts."""
    _check_compatible(u, v)
    best = max(_directed_max_squared(u, v), _directed_max_squared(v, u))
    return sqrt_exact(best) if u.exact else math.sqrt(best)


def d_infinity_level_sweep(u: FuzzySet, v: FuzzySet):
    """Reference implementation: scan the occurring levels."""
    _check_compatible(u, v)
    best = None
    for alpha in sorted(set(u._support.values()) | set(v._support.values())):
        h = hausdorff(alpha_cut(u, alpha), alpha_cut(v, alpha))
        if best is None or h > best:
            best = h
    return best
