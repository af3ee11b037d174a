"""Finitely supported fuzzy sets, grey level maps and the sup-over-cuts
metric.

A fuzzy set stores only its strictly positive levels; level zero means "not
in the support". Finitely supported functions are automatically upper
semicontinuous, so no continuity bookkeeping is needed.

A set of either numeric mode is held in integer arrays: its points as an
n x d array of numerators over one common denominator (for a float set, the
1e-12 grid of `geometry.grid_key`), its levels as an array of ranks in a
table of the levels present (see `FuzzySet`). The numerators are int64 while
their magnitude allows it and Python ints in object arrays beyond, and one
numpy code path serves both. A crisp point set is a FuzzySet whose every
level is 1: `alpha_cut` and `support_set()` give one, taken from the rows
of the integer form, and `geometry.hausdorff` measures supports. The step,
`d_infinity`, the cuts, the raster and the CSV work on that form; `items()`,
`level()` and `level_values()` show Fractions, or floats, at the boundary.

The metric `d_infinity` is the supremum over alpha of the Hausdorff distance
between alpha-cuts. On finite supports the supremum is attained on the
finite set of occurring levels (cuts are constant between consecutive
levels), which gives the level-sweep reference implementation, a test
oracle in `properties`. `d_infinity` uses the equivalent per-point form: for each
support point x of u, the nearest point of v at level >= u(x), a prefix of
v sorted by level, and symmetrically. It has one body for both numeric
modes (`_sup_distance`), built on the same nearest-neighbour kernel as
`geometry.hausdorff`, and its first side may be the pointwise maximum of
several parts, which the operator's residual gives map by map; a pair is
first brought onto one denominator and one level table. Pairs of at most
`_BRUTE_PAIR_LIMIT` point pairs leave the arrays for Python lists and
dicts, where numpy's fixed cost per call would dominate. Every larger pair
runs on witnesses, for each point a row of the other side at its level or
above. A run carries them from pair to pair: the distance to its witness
bounds each point, and only the points whose bounds pass an exact query's
minimum go to the kernel (`_witnessed`). Any other pair seeds them from
the rows both sides share: a point held at its level or above is done, and
the rest go to the kernel, which finds their witnesses.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    _BRUTE_PAIR_LIMIT,
    GRID,
    INT64_BOUND,
    DimensionMismatchError,
    Point,
    _nearest_square,
    _on_scale,
    _paired_squares,
    _require_compatible,
    _rescaled,
    _scan_squared,
    as_point,
    directed_max_squared,
    grid_key,
    int_array,
    point_is_exact,
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
        # Rounding noise within 1e-12 of [0, 1] is clamped; the float bounds
        # are tested only outside [0, 1], since comparing a Fraction with a
        # float converts the float to a Fraction first.
        if not (0 <= t <= 1):
            if -1e-12 <= t < 0:
                t = 0
            elif 1 < t <= 1 + 1e-12:
                t = 1
            else:
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
    """Finitely supported fuzzy subset of R^d with levels in (0, 1].

    Both numeric modes hold the same integer form: an n x d array of point
    numerators over one common denominator D, one row per support point in
    support order (the order in which the points first came), and an array
    of the ranks of their levels in an ascending table of exactly the levels
    present, preceded by 0 at rank 0. Ranks take the smallest unsigned
    dtype that holds the table (`_rank_dtype`): uint8 up to 256 entries, so
    one byte per point, then uint16, then intp. Exact sets take the least D
    (the lcm of the reduced denominators of their coordinates); float sets
    take D = 10^12 and the keys of `geometry.grid_key`. The numerators are
    int64 while every one lies below 2^62 in magnitude
    (`geometry.INT64_BOUND`), and Python ints in an object array otherwise.
    Equal sets hold the same rows and ranks up to their order, and `==`
    compares their values sorted, whatever the dtypes. `scaled()` gives
    that form to the step, the metric and the writers; `items()`, `level()`
    and `level_values()` give Fractions, or floats n / D. A crisp set is a
    FuzzySet whose level table is (0, 1).
    """

    __slots__ = ("_points", "_ranks", "_den", "_levels", "_items", "_index", "exact",
                 "dimension")

    def __init__(self, pairs: Iterable[Tuple[Sequence, Scalar]], exact: Optional[bool] = None):
        pairs = list(pairs)
        if not pairs:
            raise EmptySupportError("fuzzy set needs a nonempty support")
        if exact is None:
            p0, l0 = pairs[0]
            exact = point_is_exact(p0) and is_exact(l0)
        dimension = len(pairs[0][0])
        # One pass: the coordinates in order, and per point the id of its
        # level in order of first appearance. An exact level is hashed as
        # given, since equal numbers hash alike whatever their type, and
        # each distinct one becomes a Fraction once.
        coords, ids, first = [], [], {}
        for p, level in pairs:
            if len(p) != dimension:
                raise DimensionMismatchError("support points of mixed dimension")
            if not (0 <= level <= 1):
                raise ValueError(f"level {level!r} outside [0, 1]")
            if level:
                if not exact:
                    level = float(level)
                    coords += grid_key(p)
                else:
                    coords += p
                ids.append(first.setdefault(level, len(first)))
        if not ids:
            raise EmptySupportError("all levels were zero")
        if exact:
            # An int has a numerator and a denominator, as a Fraction has.
            coords = [c if type(c) is Fraction or type(c) is int else Fraction(c) for c in coords]
            den = math.lcm(*{c.denominator for c in coords})
            coords = [c.numerator * (den // c.denominator) for c in coords]
            distinct = [level if type(level) is Fraction else Fraction(level) for level in first]
        else:
            den = GRID
            distinct = list(first)
        fits = -INT64_BOUND < min(coords) and max(coords) < INT64_BOUND
        points = np.array(coords, dtype=np.int64 if fits else object).reshape(len(ids), dimension)
        order = sorted(range(len(distinct)), key=distinct.__getitem__)
        rank_of = [0] * len(order)
        for r, i in enumerate(order, 1):
            rank_of[i] = r
        levels = (Fraction(0) if exact else 0.0, *(distinct[i] for i in order))
        ranks = np.array([rank_of[i] for i in ids], dtype=_rank_dtype(len(levels)))
        if len(set(zip(*[iter(coords)] * dimension))) < len(ids):
            points, ranks = _merge_rows(points, ranks)
            levels, ranks = _cut_levels(levels, ranks)
        self._init(points, ranks, den, levels, dimension, exact)

    def _init(self, points, ranks, den, levels, dimension, exact) -> None:
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_items", None)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "dimension", dimension)

    @classmethod
    def _from_images(cls, points: np.ndarray, ranks: np.ndarray, den: int,
                     levels: Tuple[Scalar, ...], dimension: int, exact: bool,
                     slots: bool = False):
        """A set from rows of numerators over den, which may repeat, and
        their positive ranks in levels, an ascending table starting with 0:
        each point keeps its first position and its highest rank, the table
        is cut to the ranks in use, and an exact set's den to the least
        common denominator with one gcd over all numerators. With slots,
        the set and the two tables of `_merge_rows`: the set's row of each
        given row, and per row of the set a given row at its level."""
        points, ranks, *tables = _merge_rows(points, ranks, slots)
        levels, ranks = _cut_levels(levels, ranks)
        if exact:
            points, den = _least_terms(points, den)
        obj = object.__new__(cls)
        obj._init(points, ranks, den, levels, dimension, exact)
        return (obj, *tables) if slots else obj

    def __setattr__(self, *args):
        raise AttributeError("FuzzySet is immutable")

    def scaled(self) -> Tuple[int, Tuple[Scalar, ...], np.ndarray, np.ndarray]:
        """The integer form: (D, levels, points, ranks), where points is the
        n x d array of the support's numerators over D in support order
        (int64, or Python ints in an object array), ranks the array of the
        index of each point's level in levels, the ascending table of the
        levels present preceded by 0: uint8 for a table of at most 256
        entries, uint16 up to 65,536, intp beyond. The arrays are the set's
        own; do not modify them."""
        return self._den, self._levels, self._points, self._ranks

    def items(self):
        """(point, level) pairs in support order, built on the first call and
        kept: Fraction coordinates n/D in exact mode, floats n / D (the
        correctly rounded quotient) in float mode."""
        if self._items is None:
            den = self._den
            if self.exact:
                points = [tuple([Fraction(n, den) for n in p]) for p in self._points.tolist()]
            else:
                points = list(map(tuple, (self._points / den).tolist()))
            levels = self._levels
            object.__setattr__(self, "_items", tuple(
                zip(points, [levels[r] for r in self._ranks.tolist()])))
        return self._items

    def support_points(self) -> Tuple[Point, ...]:
        return tuple(p for p, _ in self.items())

    def support_set(self) -> "FuzzySet":
        """The support as a crisp set: every point at level 1."""
        return alpha_cut(self, 0)

    def level(self, p: Sequence) -> Scalar:
        """The level at p, 0 off the support; a float point is looked up at
        its grid key. The first call builds a dict from numerator tuples to
        ranks, which the set keeps, so each later call is one lookup.
        DimensionMismatchError for a point of another dimension."""
        if len(p) != self.dimension:
            raise DimensionMismatchError(f"point of dimension {len(p)}, set of {self.dimension}")
        if not self.exact:
            key = grid_key(p)
        else:
            key = []
            for c in as_point(p, True):
                n, rest = divmod(c.numerator * self._den, c.denominator)
                if rest:
                    return self._levels[0]
                key.append(n)
        if self._index is None:
            object.__setattr__(self, "_index", dict(zip(
                map(tuple, self._points.tolist()), self._ranks.tolist())))
        return self._levels[self._index.get(tuple(key), 0)]

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

    def _sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        """The rows and ranks in lexicographic order of the rows."""
        order = np.lexsort(self._points.T[::-1])
        return self._points[order], self._ranks[order]

    def __eq__(self, other):
        if not isinstance(other, FuzzySet):
            return NotImplemented
        if not (self.exact == other.exact and self.dimension == other.dimension
                and self._den == other._den and self._levels == other._levels
                and len(self) == len(other)):
            return False
        (p, r), (q, s) = self._sorted(), other._sorted()
        return np.array_equal(p, q) and np.array_equal(r, s)

    def __len__(self):
        return len(self._points)

    def __repr__(self):
        return f"FuzzySet({len(self)} points, max level {self.max_level})"


def _rank_dtype(size: int):
    """The smallest unsigned dtype for ranks into a level table of `size`
    entries: uint8 up to 256, uint16 up to 65,536, intp beyond."""
    return np.uint8 if size <= 256 else np.uint16 if size <= 65536 else np.intp


def _index_dtype(size: int):
    """The dtype of a run's row and occurrence indices below size, which it
    carries from step to step: int32 below 2^30, so that the sum of two
    fits, intp beyond."""
    return np.int32 if size < 2 ** 30 else np.intp


def _sorted_runs(columns) -> Tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of rows given by their columns, the
    first column leading, and whether each row along it but the first
    equals the row before: compared a column at a time, without the sorted
    rows. lexsort copies a strided column; a contiguous one it reads."""
    order = np.lexsort(columns[::-1])
    same = np.ones(len(order) - 1, dtype=bool)
    for column in columns:
        column = column[order]
        same &= column[1:] == column[:-1]
    return order, same


def _merge_rows(points: np.ndarray, ranks: np.ndarray, slots: bool = False):
    """The distinct rows of points in the order of their first occurrence,
    each with the highest of its ranks: one stable lexsort, so that a row's
    first occurrence leads its run, and one maximum per run. With slots,
    also the row of the result that each input row went to, and for each
    result row the first input row that carries its highest rank (the
    maximum gives the rank, not the row that reached it)."""
    order, same = _sorted_runs(list(points.T))
    if not same.any():
        if slots:
            rows = np.arange(len(points), dtype=_index_dtype(len(points)))
            return points, ranks, rows, rows
        return points, ranks
    new_run = np.concatenate(([True], ~same))
    start = np.flatnonzero(new_run)
    first = order[start]
    sorted_ranks = ranks[order]
    top = np.maximum.reduceat(sorted_ranks, start)
    keep = np.argsort(first)
    if not slots:
        return points[first[keep]], top[keep]
    dtype = _index_dtype(len(points))
    run = np.cumsum(new_run) - 1
    row_of_run = np.empty(len(keep), dtype=dtype)
    row_of_run[keep] = np.arange(len(keep))
    slot = np.empty(len(points), dtype=dtype)
    slot[order] = row_of_run[run]
    reached = np.flatnonzero(sorted_ranks == top[run])
    leads = np.concatenate(([True], run[reached[1:]] != run[reached[:-1]]))
    return points[first[keep]], top[keep], slot, order[reached[leads]][keep].astype(dtype)


def _merged_levels(tables):
    """The ascending union of ascending level tables, and per table the
    list of the ranks of its levels in the union: one merge pass per
    table, which compares levels and hashes none."""
    merged, ranks = tables[0], [range(len(tables[0]))]
    for table in tables[1:]:
        union, old, new = [], [], []
        a, b = (*merged, math.inf), (*table, math.inf)
        i = j = 0
        while i < len(merged) or j < len(table):
            low = min(a[i], b[j])
            if a[i] is low:
                old.append(len(union))
                i += 1
            if b[j] is low or not low < b[j]:
                new.append(len(union))
                j += 1
            union.append(low)
        ranks = [[old[r] for r in rank] for rank in ranks] + [new]
        merged = tuple(union)
    return merged, ranks


def _cut_levels(levels: Tuple[Scalar, ...], ranks: np.ndarray):
    """The table cut to the ranks in use, and the ranks renumbered to it in
    the rank dtype of the cut table."""
    present = np.bincount(ranks, minlength=len(levels)) > 0
    if np.count_nonzero(present) == len(levels) - 1:
        return levels, ranks
    levels = (levels[0], *(level for level, kept in zip(levels[1:], present[1:].tolist()) if kept))
    return levels, np.cumsum(present, dtype=_rank_dtype(len(levels)))[ranks]


def _least_terms(points: np.ndarray, den: int) -> Tuple[np.ndarray, int]:
    """Rows of exact numerators over den, and den, both divided by their
    gcd: one gcd over all numerators."""
    g = math.gcd(den, int(np.gcd.reduce(points, axis=None)))
    return (points // g, den // g) if g > 1 else (points, den)


# The level table of a crisp set, per numeric mode.
_CRISP_LEVELS = {True: (Fraction(0), Fraction(1)), False: (0.0, 1.0)}


def alpha_cut(u: FuzzySet, alpha: Scalar) -> FuzzySet:
    """The crisp set of u's points at level >= alpha, in support order;
    alpha = 0 gives the support. Its rows are u's rows at the ranks that
    reach alpha, and only a cut that drops rows takes the gcd that brings
    an exact set back to its least denominator."""
    if not (0 <= alpha <= 1):
        raise ValueError(f"alpha {alpha!r} outside [0, 1]")
    den, levels, points, ranks = u.scaled()
    first = bisect.bisect_left(levels, alpha, 1) if alpha else 1
    if first == len(levels):
        raise EmptyCutError(f"cut at level {alpha} is empty")
    if first == 1 and levels == _CRISP_LEVELS[u.exact]:
        return u
    if first > 1:
        points = points[ranks >= first]
        if u.exact:
            points, den = _least_terms(points, den)
    cut = object.__new__(FuzzySet)
    cut._init(points, np.ones(len(points), dtype=np.uint8), den, _CRISP_LEVELS[u.exact],
              u.dimension, u.exact)
    return cut


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
    """Pointwise maximum of finitely many fuzzy sets: their rows on the lcm
    of their denominators, ranked in the merged table of their levels and
    concatenated in order, each distinct point keeping its first position
    and its highest level (`FuzzySet._from_images`)."""
    if not sets:
        raise ValueError("join of an empty family")
    first = sets[0]
    for other in sets[1:]:
        _require_compatible(first, other)
    if len(sets) == 1:
        return first
    den = math.lcm(*(u._den for u in sets))
    levels, tables = _merged_levels([u._levels for u in sets])
    dtype = _rank_dtype(len(levels))
    points = np.concatenate([_on_scale(u, den) for u in sets])
    ranks = np.concatenate([np.array(rank, dtype=dtype)[u._ranks] for rank, u in zip(tables, sets)])
    return FuzzySet._from_images(points, ranks, den, levels, first.dimension, first.exact)


def _directed(points: np.ndarray, ranks: np.ndarray, targets: np.ndarray,
              target_ranks: np.ndarray, rows: np.ndarray, den: int, exact: bool,
              floor: Scalar = 0, found: Optional[np.ndarray] = None):
    """Squared directed part of d_infinity from the points of the given
    rows, or floor when that is larger: one call of the geometry kernel
    against the targets sorted by level, highest first, each point limited
    to the prefix at its level or above; the kernel answers every prefix
    from one grid of cells per round, and writes into found the index of
    the target it found for each point. Ranks are in the pair's merged
    level table, unsigned, so the descending order sorts top - ranks. The
    kernel reads the points and the sorted targets from the sets' own
    arrays through their indices. The caller has checked that both sets
    reach the same top level, so no prefix is empty."""
    order = np.argsort(target_ranks.max() - target_ranks, kind="stable")
    limits = len(targets) - np.searchsorted(target_ranks[order][::-1], ranks[rows])
    return directed_max_squared(points, targets, den, exact, limits, rows, order,
                                floor=floor, found=found)


def _directed_small(u: Dict[tuple, int], v: Dict[tuple, int], den: int, exact: bool):
    """`_directed` for a small pair, each set a dict from its numerator
    tuples to their merged ranks: a point is looked up in the other set's
    dict, and the prefixes of the points it does not hold at their level or
    above are scanned with Python ints in exact mode, or handed to the
    kernel as rows of grid keys over den."""
    pending = [p for p, r in u.items() if v.get(p, 0) < r]
    if not pending:
        return 0
    targets = sorted(v, key=v.__getitem__, reverse=True)
    ranks = sorted(v.values())
    limits = [len(ranks) - bisect.bisect_left(ranks, u[p]) for p in pending]
    if exact:
        return _scan_squared(pending, targets, limits)
    return directed_max_squared(int_array(pending), int_array(targets), den, False, limits)


def _shared_rows(points: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows that points and targets share, as their indices in each:
    one stable lexsort of both, joined a column at a time so that the sort
    reads contiguous columns. The targets hold each row once, so a run of
    equal rows ends with the target's; the points may repeat a row (the
    images of a map that is not injective), and only the last of them,
    which directly precedes the target's, is paired with it."""
    order, same = _sorted_runs([np.concatenate(pair) for pair in zip(points.T, targets.T)])
    shared = np.flatnonzero(same)
    shared = shared[order[shared + 1] >= len(points)]
    return order[shared], order[shared + 1] - len(points)


def _seeds(seeds: np.ndarray, ranks: np.ndarray, target_ranks: np.ndarray, rows: np.ndarray,
           target_rows: np.ndarray, ids: Optional[np.ndarray] = None) -> np.ndarray:
    """seeds, each point rows[i] given the index of target_rows[i], a row at
    the same place, where that target's rank is no lower than the point's:
    ids[target_rows[i]] when ids maps the targets' rows to indices, else
    target_rows[i]. The other points keep their seeds."""
    held = ranks[rows] <= target_ranks[target_rows]
    seeds[rows[held]] = target_rows[held] if ids is None else ids[target_rows[held]]
    return seeds


def _witnessed(points, ranks: np.ndarray, witness: np.ndarray, targets,
               target_ranks: np.ndarray, den: int, exact: bool, worst: Scalar):
    """The larger of worst and a lower bound of the squared directed part of
    d_infinity from points to targets, and the rows of points that may
    still pass it, given for each point the index witness[i] of a target at
    its rank or above: the exact squared distance to it bounds the point's
    nearest (`geometry._paired_squares`), and a point whose bound is no
    larger than worst cannot raise the maximum (Taha & Hanbury, IEEE TPAMI
    37(11), 2015). The point of the largest bound takes one exact query of
    its prefix, whose nearest becomes its witness. points and targets are
    arrays over den or lazy ones, such as `geometry._Rescaled`, read
    through indices."""
    upper = _paired_squares(points, targets, witness, den, exact)
    if not exact:
        # The carry rests on grey maps being nondecreasing, which float
        # interpolation keeps only up to rounding: a witness that sits a
        # level below its point bounds nothing.
        upper[target_ranks[witness] < ranks] = np.inf
    top = int(np.argmax(upper))
    if upper[top] > worst:
        square, witness[top] = _nearest_square(points[top:top + 1], targets,
                                              np.flatnonzero(target_ranks >= ranks[top]), den,
                                              exact)
        worst = max(worst, square)
    return worst, np.flatnonzero(upper > worst)


def _pair_scale(u_den: int, u_levels: Tuple[Scalar, ...], v_den: int,
                v_levels: Tuple[Scalar, ...]):
    """The preamble of `d_infinity` for a pair given by its denominators
    and level tables: EmptyCutError unless both tables reach the same top
    level, then the lcm of the denominators and each table's ranks in the
    merged table of both, as arrays of the merged table's rank dtype."""
    top_u, top_v = u_levels[-1], v_levels[-1]
    if top_u != top_v:
        raise EmptyCutError(f"no point of the other set at level >= {max(top_u, top_v)}")
    levels, ranks = _merged_levels([u_levels, v_levels])
    dtype = _rank_dtype(len(levels))
    return math.lcm(u_den, v_den), *(np.array(rank, dtype=dtype) for rank in ranks)


def _sup_distance(parts: Callable[[], Iterable[tuple]], size: int, v: FuzzySet,
                  v_rank: np.ndarray, den: int, exact: bool, every: Callable[[], tuple]):
    """The body of `d_infinity`: the distance between v and the pointwise
    maximum of the parts that parts() gives, each (points, ranks, witness,
    ids) on den and in the merged table into which v_rank ranks v's levels
    (`_pair_scale`); size is their points together. The alpha-cut of a
    pointwise maximum is the union of the parts' alpha-cuts (Cabrelli,
    Forte, Molter & Vrscay, J. Math. Anal. Appl. 171, 1992). Up to
    _BRUTE_PAIR_LIMIT point pairs, size times |v|, both directions go
    through Python dicts.

    Larger pairs run on witnesses at their points' level or above: a part's
    witness gives each of its points a row of v, and every(), called once
    the parts are done, gives (up, targets, target_ranks), up giving each
    point of v an index in targets, the points of all parts. A carried side
    takes its pending rows from `_witnessed`. A part whose witness array
    comes filled with -1, and v's side when up is None, are seeded from the
    rows each part shares with v (`_shared_rows`, `_seeds`), the part's row
    i being targets[ids[i]], or targets[i] without ids: a row held at its
    level or above is at distance 0, and every other row pends. Each side
    makes one kernel call on its pending rows (`_directed`), which writes
    their witnesses in place. The caller owns the parts' witness arrays, so
    none outlives its part here. Returns the distance and v's witnesses, or
    None for a dict pair."""
    if size * len(v) <= _BRUTE_PAIR_LIMIT:
        us = {}
        for points, ranks, *_ in parts():
            for p, r in zip(map(tuple, points.tolist()), ranks.tolist()):
                if us.get(p, 0) < r:
                    us[p] = r
        vs = dict(zip(map(tuple, _on_scale(v, den).tolist()), v_rank[v._ranks].tolist()))
        best = max(_directed_small(us, vs, den, exact), _directed_small(vs, us, den, exact))
        return _root(best, den, exact), None
    vs, vr = _rescaled(v, den), v_rank[v._ranks]
    best, up = 0, None
    for points, ranks, witness, ids in parts():
        if witness[0] < 0:
            # The sort reads v's rows on den, so they are made once here and
            # the kernel reads the same copy.
            vs = vs[:]
            in_part, in_v = _shared_rows(points, vs)
            pending = np.flatnonzero(_seeds(witness, ranks, vr, in_part, in_v) < 0)
            # A row of the top rank, which every point may take, stays the
            # witness only where a small exact scan writes none.
            witness[pending] = np.argmax(vr)
            if up is None:
                up = np.full(len(vr), -1, dtype=_index_dtype(len(points)) if ids is None
                             else ids.dtype)
            _seeds(up, vr, ranks, in_v, in_part, ids)
            del in_part, in_v
        else:
            best, pending = _witnessed(points, ranks, witness, vs, vr, den, exact, best)
        del ids
        if len(pending):
            best = _directed(points[:], ranks, vs[:], vr, pending, den, exact, best, witness)
        del points, ranks, witness, pending
    carried, targets, target_ranks = every()
    if carried is None:
        pending = np.flatnonzero(up < 0)
        up[pending] = np.argmax(target_ranks)
    else:
        up = carried
        best, pending = _witnessed(vs, vr, up, targets, target_ranks, den, exact, best)
    if len(pending):
        best = _directed(vs[:], vr, targets[:], target_ranks, pending, den, exact, best, up)
    return _root(best, den, exact), up


def _root(square: Scalar, den: int, exact: bool) -> Scalar:
    """The distance whose square is square / den^2 in exact mode, or square."""
    return sqrt_exact(Fraction(square, den * den)) if exact else math.sqrt(square)


def d_infinity(u: FuzzySet, v: FuzzySet):
    """Supremum over alpha of the Hausdorff distance between alpha-cuts.

    A pair of at most _BRUTE_PAIR_LIMIT point pairs goes through Python
    lists and dicts, where numpy's fixed costs would dominate. In a larger
    one, a point that the other set holds at its level or above is at
    distance 0, and the other points of each side go to the kernel in one
    call (`_sup_distance`, through `_pair_distance`).
    Exact mode compares integer squares over the common denominator; float
    mode takes the kernel's float distances.
    """
    _require_compatible(u, v)
    return _pair_distance(u, v)[0]


def _pair_distance(u: FuzzySet, v: FuzzySet, witnesses: Optional[tuple] = None):
    """d_infinity(u, v) on the lcm of their denominators and their merged
    level table (`_pair_scale`), u the one part of `_sup_distance`, and its
    witnesses (down, up): for each row of u a row of v, and for each row of
    v a row of u, at the row's level or above; None for a dict pair. Given
    witnesses, the pair runs on them and updates them in place; else it
    seeds them."""
    den, u_rank, v_rank = _pair_scale(u._den, u._levels, v._den, v._levels)
    points, ranks = _on_scale(u, den), u_rank[u._ranks]
    down, up = witnesses or (None, None)
    if down is None and len(u) * len(v) > _BRUTE_PAIR_LIMIT:
        # A pair on the dict path takes no witnesses, so it makes none.
        down = np.full(len(u), -1, dtype=_index_dtype(len(v)))
    distance, up = _sup_distance(lambda: ((points, ranks, down, None),), len(u), v, v_rank, den,
                                 u.exact, lambda: (up, points, ranks))
    return distance, None if up is None else (down, up)
