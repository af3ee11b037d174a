"""Finitely supported fuzzy sets, the grey reweighting of their levels
(the maps are in `grey`) and the sup-over-cuts metric.

A fuzzy set stores only its strictly positive levels; level zero means "not
in the support". Finitely supported functions are automatically upper
semicontinuous, so no continuity bookkeeping is needed.

A set of either numeric mode is held in integer arrays: its points as an
n x d array of numerators over one common denominator (for a float set, the
1e-12 grid of `geometry.grid_key`), its levels as an array of ranks in a
table of the levels present, in exact mode numerators over one level
denominator (see `FuzzySet`). The numerators are int64 while their magnitude
allows it and Python ints in object arrays beyond, and one numpy code path
serves both. A crisp point set is a FuzzySet whose every level is 1:
`alpha_cut` and `support_set()` give one, taken from the rows of the integer
form, and `geometry.hausdorff` measures supports. The step, `d_infinity`,
the cuts, the raster and the CSV compare levels as ints; `items()`,
`level()`, `level_values()` and `max_level` show Fractions, or floats, at
the boundary.

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
`_BRUTE_PAIR_LIMIT` point pairs are built as Python lists and dicts, where
numpy's fixed cost per call would dominate. Every larger pair
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
from fractions import Fraction
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
    _rows,
    _scan_squared,
    as_point,
    directed_max_squared,
    grid_key,
    int_array,
    point_is_exact,
)
from .grey import GreyLevelMap, GreyMapError
from .numeric import DEFAULT_TOL, Scalar, exact_root, is_exact


class EmptyCutError(ValueError):
    """An alpha-cut (or threshold set) came out empty."""


class EmptySupportError(ValueError):
    """A fuzzy set lost its entire support."""


def _unit_key(value, what: str, exact: bool):
    """value checked to lie in [0, 1], else ValueError naming what: in
    exact mode as the ints (numerator, denominator), compared as ints when
    value is an int or a Fraction; in float mode as a float."""
    if exact and (type(value) is Fraction or type(value) is int):
        key = value.numerator, value.denominator
        if 0 <= key[0] <= key[1]:
            return key
    elif 0 <= value <= 1:
        return Fraction(value).as_integer_ratio() if exact else float(value)
    raise ValueError(f"{what} {value!r} outside [0, 1]")


class FuzzySet:
    """Finitely supported fuzzy subset of R^d with levels in (0, 1].

    Both numeric modes hold the same integer form: an n x d array of point
    numerators over one common denominator D, one row per support point in
    support order (the order in which the points first came), and an array
    of the ranks of their levels in a level table (L, levels): levels is an
    ascending tuple of exactly the levels present, preceded by 0 at rank 0,
    each a numerator over one level denominator L in exact mode, and a float
    over L = 1 in float mode. Ranks take the smallest unsigned dtype that
    holds the table (`_rank_dtype`): uint8 up to 256 entries, so one byte
    per point, then uint16, then intp. Exact sets take the least D and the
    least L (the lcm of the reduced denominators of their coordinates, and
    of their levels); float sets take D = 10^12 and the keys of
    `geometry.grid_key`. The numerators are int64 while every one lies
    below 2^62 in magnitude (`geometry.INT64_BOUND`), and Python ints in an
    object array otherwise. Equal sets hold the same rows, ranks and table
    up to the order of the rows, and `==` compares their values sorted,
    whatever the dtypes. `scaled()` gives that form to the step, the metric
    and the writers, which compare levels as ints; `items()`, `level()`,
    `level_values()` and `max_level` give Fractions, or floats n / D. A
    crisp set is a FuzzySet whose level table is (1, (0, 1)).
    """

    __slots__ = ("_points", "_ranks", "_den", "_table", "_items", "_index", "exact",
                 "dimension")

    def __init__(self, pairs: Iterable[Tuple[Sequence, Scalar]], exact: Optional[bool] = None):
        pairs = list(pairs)
        if not pairs:
            raise EmptySupportError("fuzzy set needs a nonempty support")
        if exact is None:
            p0, l0 = pairs[0]
            exact = point_is_exact(p0) and is_exact(l0)
        dimension = len(pairs[0][0])
        if not dimension:
            raise DimensionMismatchError("support points of dimension 0")
        # One pass: the coordinates in order, and per point the id of its
        # level in order of first appearance, keyed by (numerator,
        # denominator) in exact mode.
        coords, ids, first = [], [], {}
        for p, level in pairs:
            if len(p) != dimension:
                raise DimensionMismatchError("support points of mixed dimension")
            key = _unit_key(level, "level", exact)
            if key[0] if exact else key:
                coords += p if exact else grid_key(p)
                ids.append(first.setdefault(key, len(first)))
        if not ids:
            raise EmptySupportError("all levels were zero")
        if exact:
            # An int has an integer ratio, as a Fraction has.
            ratios = [(c if type(c) is Fraction or type(c) is int else Fraction(c)).as_integer_ratio()
                      for c in coords]
            den = math.lcm(*{d for _, d in ratios})
            coords = [n * (den // d) for n, d in ratios]
            lden = math.lcm(*(d for _, d in first))
            distinct = [n * (lden // d) for n, d in first]
        else:
            den, lden, distinct = GRID, 1, list(first)
        fits = -INT64_BOUND < min(coords) and max(coords) < INT64_BOUND
        points = np.array(coords, dtype=np.int64 if fits else object).reshape(len(ids), dimension)
        levels = sorted(distinct)
        rank = {level: r for r, level in enumerate(levels, 1)}
        table = (lden, (0 if exact else 0.0, *levels))
        ranks = np.array([rank[distinct[i]] for i in ids], dtype=_rank_dtype(len(table[1])))
        if len(set(zip(*[iter(coords)] * dimension))) < len(ids):
            points, ranks = _merge_rows(points, ranks)
            table, ranks = _cut_levels(table, ranks)
        self._init(points, ranks, den, table, dimension, exact)

    def _init(self, points, ranks, den, table, dimension, exact) -> None:
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_items", None)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "dimension", dimension)

    @classmethod
    def _from_images(cls, points: np.ndarray, ranks: np.ndarray, den: int, table: tuple,
                     dimension: int, exact: bool, slots: bool = False):
        """A set from rows of numerators over den, which may repeat, and
        their positive ranks in a level table (L, levels), levels ascending
        from 0: each point keeps its first position and its highest rank,
        the table is cut to the ranks in use (`_cut_levels`), and an exact
        set's den to the least common denominator with one gcd over all
        numerators. With slots, the set and the two tables of `_merge_rows`:
        the set's row of each given row, and per row of the set a given row
        at its level."""
        points, ranks, *tables = _merge_rows(points, ranks, slots)
        table, ranks = _cut_levels(table, ranks)
        if exact:
            points, den = _least_terms(points, den)
        obj = object.__new__(cls)
        obj._init(points, ranks, den, table, dimension, exact)
        return (obj, *tables) if slots else obj

    def __setattr__(self, *args):
        raise AttributeError("FuzzySet is immutable")

    def scaled(self) -> Tuple[int, tuple, np.ndarray, np.ndarray]:
        """The integer form: (D, (L, levels), points, ranks), where points is
        the n x d array of the support's numerators over D in support order
        (int64, or Python ints in an object array), ranks the array of the
        index of each point's level in levels, the ascending table of the
        levels present preceded by 0, as numerators over L in exact mode
        and floats over L = 1 in float mode: uint8 for a table of at most
        256 entries, uint16 up to 65,536, intp beyond. The arrays are the
        set's own; do not modify them."""
        return self._den, self._table, self._points, self._ranks

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
            levels = [_level_value(level, self._table[0]) for level in self._table[1]]
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
                    return Fraction(0)
                key.append(n)
        if self._index is None:
            object.__setattr__(self, "_index", dict(zip(
                map(tuple, self._points.tolist()), self._ranks.tolist())))
        lden, levels = self._table
        return _level_value(levels[self._index.get(tuple(key), 0)], lden)

    def level_values(self):
        """Distinct occurring levels, ascending."""
        lden, levels = self._table
        return [_level_value(level, lden) for level in levels[1:]]

    @property
    def max_level(self) -> Scalar:
        return _level_value(self._table[1][-1], self._table[0])

    @property
    def normal(self) -> bool:
        lden, levels = self._table
        if self.exact:
            return levels[-1] == lden
        return levels[-1] >= 1.0 - DEFAULT_TOL

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
                and self._den == other._den and self._table == other._table
                and len(self) == len(other)):
            return False
        (p, r), (q, s) = self._sorted(), other._sorted()
        return np.array_equal(p, q) and np.array_equal(r, s)

    def __len__(self):
        return len(self._points)

    def __repr__(self):
        return f"FuzzySet({len(self)} points, max level {self.max_level})"


def _level_value(level, lden: int) -> Scalar:
    """An entry of a level table at the boundary: the Fraction level / L of
    an exact table's int, a float table's float as it is."""
    return Fraction(level, lden) if type(level) is int else level


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
    """The union of level tables (L, levels) on the lcm of their L, and per
    table the list of the ranks of its levels in the union."""
    lden = math.lcm(*(own for own, _ in tables))
    tables = [levels if own == lden else [n * (lden // own) for n in levels] for own, levels in tables]
    merged = sorted(set().union(*tables))
    rank = {level: i for i, level in enumerate(merged)}
    return (lden, tuple(merged)), [[rank[level] for level in levels] for levels in tables]


def _cut_levels(table: tuple, ranks: np.ndarray):
    """The level table (L, levels) cut to the ranks in use, on the least L
    that holds the levels left (one gcd), and the ranks renumbered to it in
    the rank dtype of the cut table."""
    lden, levels = table
    present = np.bincount(ranks, minlength=len(levels)) > 0
    if np.count_nonzero(present) == len(levels) - 1:
        return table, ranks
    levels = (levels[0], *(level for level, kept in zip(levels[1:], present[1:].tolist()) if kept))
    # A float table has L = 1, and so has an exact one with no level below 1.
    common = math.gcd(lden, *levels) if lden > 1 else 1
    if common > 1:
        lden, levels = lden // common, tuple(n // common for n in levels)
    return (lden, levels), np.cumsum(present, dtype=_rank_dtype(len(levels)))[ranks]


def _least_terms(points: np.ndarray, den: int) -> Tuple[np.ndarray, int]:
    """Rows of exact numerators over den, and den, both divided by their
    gcd: one gcd over all numerators."""
    g = math.gcd(den, int(np.gcd.reduce(points, axis=None)))
    return (points // g, den // g) if g > 1 else (points, den)


# The level table of a crisp set, per numeric mode.
_CRISP_LEVELS = {True: (1, (0, 1)), False: (1, (0.0, 1.0))}


def alpha_cut(u: FuzzySet, alpha: Scalar) -> FuzzySet:
    """The crisp set of u's points at level >= alpha, in support order;
    alpha = 0 gives the support. Its rows are u's rows at the ranks that
    reach alpha, found in an exact table by a bisect for ceil(alpha L), and
    only a cut that drops rows takes the gcd that brings an exact set back
    to its least denominator."""
    key = _unit_key(alpha, "alpha", u.exact)
    den, table, points, ranks = u.scaled()
    lden, levels = table
    key = -(-key[0] * lden // key[1]) if u.exact else alpha
    first = bisect.bisect_left(levels, key, 1) if key else 1
    if first == len(levels):
        raise EmptyCutError(f"cut at level {alpha} is empty")
    if first == 1 and table == _CRISP_LEVELS[u.exact]:
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
    and its highest level (`_merge_rows`). Every set is on least terms, so
    its rows share no factor with its denominator, and the union, which
    holds them all, shares none with the lcm: no gcd is taken."""
    if not sets:
        raise ValueError("join of an empty family")
    first = sets[0]
    for other in sets[1:]:
        _require_compatible(first, other)
    if len(sets) == 1:
        return first
    den = math.lcm(*(u._den for u in sets))
    table, tables = _merged_levels([u._table for u in sets])
    dtype = _rank_dtype(len(table[1]))
    points = np.concatenate([_on_scale(u, den) for u in sets])
    ranks = np.concatenate([np.array(rank, dtype=dtype)[u._ranks] for rank, u in zip(tables, sets)])
    points, ranks = _merge_rows(points, ranks)
    table, ranks = _cut_levels(table, ranks)
    union = object.__new__(FuzzySet)
    union._init(points, ranks, den, table, first.dimension, first.exact)
    return union


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


def _directed_small(u: Dict[tuple, int], v: Dict[tuple, int], den: int, exact: bool,
                    floor: Scalar):
    """`_directed` for a small pair, each set a dict from its numerator
    tuples to their merged ranks, or floor when that is larger: a point is
    looked up in the other set's dict, and the prefixes of the points it
    does not hold at their level or above are scanned with Python ints in
    exact mode, or handed to the kernel as rows of grid keys over den. The
    points go highest level first: their prefixes are the shortest, and
    the minima they find raise the floor below which a later point's scan
    stops."""
    pending = [p for p, r in u.items() if v.get(p, 0) < r]
    if not pending:
        return floor
    pending.sort(key=u.__getitem__, reverse=True)
    targets = sorted(v, key=v.__getitem__, reverse=True)
    ranks = sorted(v.values())
    limits = [len(ranks) - bisect.bisect_left(ranks, u[p]) for p in pending]
    if exact:
        return _scan_squared(pending, targets, limits, floor)
    return directed_max_squared(int_array(pending), int_array(targets), den, False, limits,
                                floor=floor)


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


def _pair_scale(u_den: int, u_table: tuple, v_den: int, v_table: tuple):
    """The preamble of `d_infinity` for a pair given by its denominators
    and level tables (L, levels): EmptyCutError unless both tables reach
    the same top level, then the lcm of the denominators, the rank dtype of
    the merged table of both (`_merged_levels`) and each table's ranks in
    it, as lists."""
    (lden, levels), (u_rank, v_rank) = _merged_levels([u_table, v_table])
    if u_rank[-1] != v_rank[-1]:
        top = _level_value(levels[max(u_rank[-1], v_rank[-1])], lden)
        raise EmptyCutError(f"no point of the other set at level >= {top}")
    return math.lcm(u_den, v_den), _rank_dtype(len(levels)), u_rank, v_rank


def _row_ranks(u: FuzzySet, den: int, rank: Sequence[int]) -> Dict[tuple, int]:
    """A small set's rows over den (`geometry._rows`), each mapped to its
    rank in a merged table, rank[r] for its own rank r."""
    return dict(zip(_rows(u, den), [rank[r] for r in u._ranks.tolist()]))


def _dict_distance(us: Dict[tuple, int], vs: Dict[tuple, int], den: int, exact: bool) -> Scalar:
    """d_infinity of a pair of dicts from rows to merged ranks: the first
    direction's maximum is the second's floor."""
    best = _directed_small(vs, us, den, exact, _directed_small(us, vs, den, exact, 0))
    return _root(best, den, exact)


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
        return _dict_distance(us, _row_ranks(v, den, v_rank.tolist()), den, exact), None
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
    return exact_root(square, den) if exact else math.sqrt(square)


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
    level table (`_pair_scale`), and its witnesses (down, up): for each row
    of u a row of v, and for each row of v a row of u, at the row's level or
    above; None for a dict pair, which is built from row and rank lists
    without arrays. Else u is the one part of `_sup_distance`: given
    witnesses, the pair runs on them and updates them in place, or it
    seeds them."""
    den, dtype, u_rank, v_rank = _pair_scale(u._den, u._table, v._den, v._table)
    if len(u) * len(v) <= _BRUTE_PAIR_LIMIT:
        return _dict_distance(_row_ranks(u, den, u_rank), _row_ranks(v, den, v_rank), den,
                              u.exact), None
    points, ranks = _on_scale(u, den), np.array(u_rank, dtype=dtype)[u._ranks]
    down, up = witnesses or (None, None)
    if down is None:
        down = np.full(len(u), -1, dtype=_index_dtype(len(v)))
    distance, up = _sup_distance(lambda: ((points, ranks, down, None),), len(u), v,
                                 np.array(v_rank, dtype=dtype), den, u.exact,
                                 lambda: (up, points, ranks))
    return distance, (down, up)
