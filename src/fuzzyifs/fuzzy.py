"""Finitely supported fuzzy sets, grey level maps and the sup-over-cuts
metric.

A fuzzy set stores only its strictly positive levels; level zero means "not
in the support". Finitely supported functions are automatically upper
semicontinuous, so no continuity bookkeeping is needed.

A set of either numeric mode is held in integers: its points as numerator
tuples over one common denominator (for a float set, the 1e-12 grid of
`geometry.grid_key`), its levels as ranks in a table of the levels present
(see `FuzzySet`). The step, `d_infinity`, the raster and the CSV work on that
form and hash only ints; `items()`, `level()`, `support_set()` and
`level_values()` show Fractions, or floats, at the boundary.

The metric `d_infinity` is the supremum over alpha of the Hausdorff distance
between alpha-cuts. On finite supports the supremum is attained on the
finite set of occurring levels (cuts are constant between consecutive
levels), which gives the level-sweep reference implementation, kept as a
test oracle. `d_infinity` uses the equivalent per-point form: for each
support point x of u, the nearest point of v at level >= u(x), a prefix of
v sorted by level, and symmetrically. It has one body for both numeric
modes, built on the same nearest-neighbour kernel as the crisp
`geometry.hausdorff`; a pair is first brought onto one denominator and one
level table.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, truediv
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .geometry import (
    GRID,
    DimensionMismatchError,
    FinitePointSet,
    Point,
    as_point,
    directed_max_squared,
    grid_key,
    hausdorff,
    point_is_exact,
    scale_points,
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

    Stored as its breakpoints ((t, v), ...), nondecreasing in t and in v,
    from t = 0 to t = 1. A jump is two breakpoints sharing the same t, and
    the value at the jump point is the second one's v. Between breakpoints
    the graph is linear. Build instances through `from_breakpoints`, which
    validates them and drops exact duplicates.
    """

    breakpoints: Tuple[Tuple[Scalar, Scalar], ...]

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
        for a, c in zip(ts, ts[2:]):
            if a == c:
                raise GreyMapError(f"more than two breakpoints share t={a}")
        return cls(breakpoints=tuple(dict.fromkeys(pts)))

    @classmethod
    def identity(cls, exact: bool = True) -> "GreyLevelMap":
        return cls.from_breakpoints([(0, 0), (1, 1)], exact=exact)

    @classmethod
    def linear_ramp(cls, top, exact: bool = True) -> "GreyLevelMap":
        """t -> top * t."""
        return cls.from_breakpoints([(0, 0), (1, top)], exact=exact)

    @property
    def exact(self) -> bool:
        return is_exact(self.breakpoints[0][0])

    @property
    def value_at_zero(self) -> Scalar:
        return self(0)

    @property
    def value_at_one(self) -> Scalar:
        return self.breakpoints[-1][1]

    def to_float(self) -> "GreyLevelMap":
        return GreyLevelMap(breakpoints=tuple((float(t), float(v)) for t, v in self.breakpoints))

    def __call__(self, t: Scalar) -> Scalar:
        if -1e-12 <= t < 0:
            t = 0
        elif 1 < t <= 1 + 1e-12:
            t = 1
        if not (0 <= t <= 1):
            raise GreyMapError(f"grey map evaluated at {t!r}, outside [0, 1]")
        pts = self.breakpoints
        # The last breakpoint at or before t: at a jump, the right value.
        k = bisect.bisect_right(pts, t, key=itemgetter(0)) - 1
        tk, vk = pts[k]
        if t == tk:
            return vk
        tn, vn = pts[k + 1]
        value = vk + (vn - vk) * (t - tk) / (tn - tk)
        return min(max(value, 0), 1)

    def level_preimage(self, alpha: Scalar) -> Scalar:
        """Smallest argument whose value reaches alpha.

        Right continuity makes the infimum attained: the returned beta
        satisfies rho(beta) >= alpha while rho(gamma) < alpha for gamma <
        beta. In float mode the line through the breakpoints can round beta
        just below the preimage, so beta is stepped up one float at a time
        until rho(beta) >= alpha; it stays within a few ulps of the exact
        preimage of the same breakpoints.
        """
        if not (0 < alpha <= 1):
            raise GreyMapError(f"threshold {alpha!r} outside (0, 1]")
        pts = self.breakpoints
        if pts[-1][1] < alpha:
            raise GreyMapError(f"grey map never reaches {alpha}")
        # The first breakpoint reaching alpha. Unless it is the first one, the
        # graph rises to it from the previous one, which lies below alpha;
        # at a jump prev_t == t, and the line gives t itself.
        k = bisect.bisect_left(pts, alpha, key=itemgetter(1))
        t, v = pts[k]
        if k == 0:
            return t
        prev_t, prev_v = pts[k - 1]
        beta = prev_t + (alpha - prev_v) * (t - prev_t) / (v - prev_v)
        if not is_exact(beta):
            while self(beta) < alpha:
                beta = math.nextafter(beta, math.inf)
        return beta


class FuzzySet:
    """Finitely supported fuzzy subset of R^D with levels in (0, 1].

    Both numeric modes hold the same integer form: each support point is a
    tuple of numerators over one common denominator D and maps to the rank of
    its level in an ascending table of exactly the levels present, preceded
    by 0 at rank 0. Exact sets take the least D (the lcm of the reduced
    denominators of their coordinates); float sets take D = 10^12 and the
    keys of `geometry.grid_key`. That form is canonical, so equal sets have
    equal representations. `scaled()` gives it to the step, the metric and
    the writers; `items()`, `level()`, `support_set()` and `level_values()`
    give Fractions, or floats n / D.
    """

    __slots__ = ("_support", "_den", "_levels", "_items", "exact", "dimension")

    def __init__(self, pairs: Iterable[Tuple[Sequence, Scalar]], exact: Optional[bool] = None):
        pairs = list(pairs)
        if not pairs:
            raise EmptySupportError("fuzzy set needs a nonempty support")
        if exact is None:
            p0, l0 = pairs[0]
            exact = point_is_exact(p0) and is_exact(l0)
        dimension = len(pairs[0][0])
        points, kept = [], []
        for p, level in pairs:
            if len(p) != dimension:
                raise DimensionMismatchError("support points of mixed dimension")
            if level < 0 or level > 1:
                raise ValueError(f"level {level!r} outside [0, 1]")
            if level:
                if not exact:
                    level = float(level)
                elif type(level) is not Fraction:
                    level = Fraction(level)
                points.append(p)
                kept.append(level)
        if not kept:
            raise EmptySupportError("all levels were zero")
        if exact:
            den, (keys,) = scale_points([as_point(p, True) for p in points])
        else:
            den, keys = GRID, [grid_key(p) for p in points]
        support: Dict = {}
        for key, level in zip(keys, kept):
            old = support.get(key)
            if old is None or level > old:
                support[key] = level
        levels = (Fraction(0) if exact else 0.0, *sorted(set(support.values())))
        rank = {level: i for i, level in enumerate(levels)}
        self._init({p: rank[level] for p, level in support.items()}, den, levels, dimension, exact)

    def _init(self, support, den, levels, dimension, exact) -> None:
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_items", None)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "dimension", dimension)

    @classmethod
    def _from_scaled(cls, ranks: Dict[Tuple[int, ...], int], den: int,
                     levels: Tuple[Scalar, ...], dimension: int, exact: bool) -> "FuzzySet":
        """A set from numerator tuples over den and their positive ranks in
        levels, an ascending table starting with 0. The table is cut to the
        ranks in use, and an exact set's den to the least common denominator,
        in one pass each."""
        if not ranks:
            raise EmptySupportError("fuzzy set needs a nonempty support")
        used = sorted(set(ranks.values()))
        if len(used) < len(levels) - 1:
            new_rank = dict(zip(used, range(1, len(used) + 1)))
            levels = (levels[0], *(levels[r] for r in used))
            ranks = {p: new_rank[r] for p, r in ranks.items()}
        if exact:
            g = den
            for p in ranks:
                g = math.gcd(g, *p)
                if g == 1:
                    break
            else:
                den //= g
                ranks = {tuple(n // g for n in p): r for p, r in ranks.items()}
        obj = object.__new__(cls)
        obj._init(ranks, den, levels, dimension, exact)
        return obj

    def __setattr__(self, *args):
        raise AttributeError("FuzzySet is immutable")

    def scaled(self) -> Tuple[int, Tuple[Scalar, ...], Dict[Tuple[int, ...], int]]:
        """The integer form: (D, levels, ranks), where ranks maps each
        support point times D, a tuple of ints, to the index of its level in
        levels, the ascending table of the levels present preceded by 0. The
        dict is the set's own; do not modify it."""
        return self._den, self._levels, self._support

    def items(self):
        """(point, level) pairs in support order, built on the first call and
        kept: Fraction coordinates n/D in exact mode, floats n / D (int true
        division) in float mode."""
        if self._items is None:
            den, levels = self._den, self._levels
            coord = Fraction if self.exact else truediv
            object.__setattr__(self, "_items", tuple(
                (tuple([coord(n, den) for n in p]), levels[r]) for p, r in self._support.items()))
        return self._items

    def support_points(self) -> Tuple[Point, ...]:
        return tuple(p for p, _ in self.items())

    def support_set(self) -> FinitePointSet:
        return FinitePointSet(points=self.support_points(), exact=self.exact)

    def level(self, p: Sequence) -> Scalar:
        """The level at p, 0 off the support; a float point is looked up at
        its grid key."""
        if not self.exact:
            return self._levels[self._support.get(grid_key(p), 0)]
        key = []
        for c in as_point(p, True):
            n, rest = divmod(c.numerator * self._den, c.denominator)
            if rest:
                return self._levels[0]
            key.append(n)
        return self._levels[self._support.get(tuple(key), 0)]

    def level_values(self):
        """Distinct occurring levels, ascending."""
        return list(self._levels[1:])

    @property
    def max_level(self) -> Scalar:
        return self._levels[-1]

    @property
    def normal(self) -> bool:
        if self.exact:
            return self.max_level == 1
        return self.max_level >= 1.0 - DEFAULT_TOL

    def to_float(self) -> "FuzzySet":
        if not self.exact:
            return self
        return FuzzySet([(p, float(level)) for p, level in self.items()], exact=False)

    def __eq__(self, other):
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return (
            self.exact == other.exact
            and self.dimension == other.dimension
            and self._den == other._den
            and self._levels == other._levels
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
    for other in sets[1:]:
        _check_compatible(first, other)
    return FuzzySet([pair for u in sets for pair in u.items()], exact=first.exact)


def restrict(u: FuzzySet, s: FinitePointSet) -> FuzzySet:
    """u on the given set, zero elsewhere."""
    tol = 0.0 if u.exact else DEFAULT_TOL
    pairs = [(p, l) for p, l in u.items() if s.contains(p, tol)]
    if not pairs:
        raise EmptySupportError("restriction has empty support")
    return FuzzySet(pairs, exact=u.exact)


def _directed_max_squared(u: Dict, u_rank: Sequence[int], v: Dict, v_rank: Sequence[int],
                          den: int, exact: bool):
    """Squared directed part of d_infinity on two supports, each a dict from
    numerator tuples over den to the set's own level ranks, read through
    u_rank and v_rank, the increasing lists of their ranks in the pair's
    merged level table, so that only ints are hashed.

    Points whose own position already sits in the other set's cut contribute
    zero and are skipped up front (Taha & Hanbury, IEEE TPAMI 37(11), 2015),
    which makes consecutive-iterate distances cheap. The rest go to one call
    of the geometry kernel against v sorted by level, highest first, each
    point limited to the prefix at its level or above; the kernel answers
    every prefix from one grid of cells per round. The caller has checked
    that both sets reach the same top level, so no prefix is empty.
    """
    pending = [p for p, r in u.items() if v_rank[v.get(p, 0)] < u_rank[r]]
    if not pending:
        return 0
    v_points = sorted(v, key=v.__getitem__, reverse=True)
    v_levels = sorted(v.values())
    prefix = {r: len(v_levels) - bisect.bisect_left(v_levels, bisect.bisect_left(v_rank, u_rank[r]))
              for r in set(u.values())}
    return directed_max_squared(pending, v_points, den, exact, [prefix[u[p]] for p in pending])


def _on_scale(u: FuzzySet, den: int) -> Dict:
    """The support of a set as numerator tuples over den, a multiple of its
    own denominator; the set's own dict when den is its denominator."""
    factor = den // u._den
    if factor == 1:
        return u._support
    return {tuple(n * factor for n in p): r for p, r in u._support.items()}


def d_infinity(u: FuzzySet, v: FuzzySet):
    """Supremum over alpha of the Hausdorff distance between alpha-cuts.

    The pair is brought onto the lcm of its denominators, and each set's
    level ranks are read through its list of ranks in the merged level
    table, so the directed scans hash ints only and a set is copied only to
    be rescaled. Each directed scan is one kernel call with per-point
    prefix limits, however many levels the sets carry. Exact mode compares
    integer squares over that denominator; float mode takes the kernel's
    float distances.
    """
    _check_compatible(u, v)
    top_u, top_v = u.max_level, v.max_level
    if top_u != top_v:
        raise EmptyCutError(f"no point of the other set at level >= {max(top_u, top_v)}")
    den = math.lcm(u._den, v._den)
    rank = {level: i for i, level in enumerate(sorted(set(u._levels) | set(v._levels)))}
    u_rank, v_rank = [rank[level] for level in u._levels], [rank[level] for level in v._levels]
    us, vs = _on_scale(u, den), _on_scale(v, den)
    exact = u.exact
    best = max(_directed_max_squared(us, u_rank, vs, v_rank, den, exact),
               _directed_max_squared(vs, v_rank, us, u_rank, den, exact))
    return sqrt_exact(Fraction(best, den * den)) if exact else math.sqrt(best)


def d_infinity_level_sweep(u: FuzzySet, v: FuzzySet):
    """Reference implementation: scan the occurring levels."""
    _check_compatible(u, v)
    best = None
    for alpha in sorted(set(u.level_values()) | set(v.level_values())):
        h = hausdorff(alpha_cut(u, alpha), alpha_cut(v, alpha))
        if best is None or h > best:
            best = h
    return best
