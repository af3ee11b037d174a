"""Points in R^D and the Hausdorff-Pompeiu metric on the supports of sets.

There is one set type, `fuzzy.FuzzySet`, a crisp set being one whose every
level is 1. `hausdorff` and `directed_distance` measure the supports of two
sets, their numerator rows brought onto the lcm of their denominators
(`_on_scale`), or for a small exact pair scanned as rows of Python ints
(`_rows`, `_scan_squared`); float points are the keys of the 1e-12 grid of
`grid_key` over 10^12. Both come from one nearest-neighbour kernel,
`directed_max_squared`, which `fuzzy.d_infinity` shares with per-point
prefix limits. It finds float nearest neighbours in numpy, from a uniform
grid of cells whose size is certified by the distances it finds (the cell
method of Bentley, Stanat & Williams, Inf. Process. Lett. 6(6), 1977),
or by scanning where such cells would cost more: few points, or few
targets for their dimension. Float mode takes their distances. Exact mode
compares integer squared distances over D^2, scanning every prefix for
small inputs and checking the float nearest neighbours otherwise, so
results stay exact. The kernel takes its points as n x d arrays: integer
numerators are int64 while they stay below 2^62 in magnitude, so that a
sum or difference of two cannot overflow, and Python ints in object arrays
beyond (`int_array`); the same numpy code serves both. The tests check it
against a brute-force double loop of their own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .numeric import DEDUP_DECIMALS, Scalar, exact_root, is_exact, sqrt_exact

Point = Tuple[Scalar, ...]

# Up to this many point pairs, scanning every pair is cheaper than the grid,
# whose fixed cost of sorting and searching dominates on small sets: exact
# mode scans them with integers, and the grid scans its last points in one
# numpy pass.
_BRUTE_PAIR_LIMIT = 4096


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


class GridRangeError(ValueError):
    """A float coordinate that the 1e-12 grid cannot hold, or exact points
    too far apart for their differences to be floats."""


def point_is_exact(p: Sequence) -> bool:
    return all(is_exact(c) for c in p)


# Float points are held as integers over GRID, the 1e-12 grid.
GRID = 10 ** DEDUP_DECIMALS

# Integer arrays are int64 while every entry lies below INT64_BOUND in
# magnitude, so that the sum or difference of two entries stays in int64;
# object arrays of Python ints otherwise.
INT64_BOUND = 2 ** 62


def magnitude(values: np.ndarray) -> int:
    """The largest |entry| of a nonempty integer array, as a Python int.
    Unlike np.abs, exact at -2^63 and on Python ints."""
    return max(int(np.maximum.reduce(values, axis=None)),
               -int(np.minimum.reduce(values, axis=None)))


def int_array(rows) -> np.ndarray:
    """Rows of ints (lists, tuples or an array) as an n x d array: int64
    when every entry lies below INT64_BOUND in magnitude, object otherwise."""
    try:
        array = np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)
    return array if magnitude(array) < INT64_BOUND else array.astype(object)


def grid_keys(coords: np.ndarray) -> np.ndarray:
    """The keys of `grid_key` for an array of float coordinates, with the
    same rounding (half to even) and the same GridRangeError: int64 while
    every key lies below INT64_BOUND in magnitude, Python ints in an object
    array otherwise. Each key is a rounded double, so it reads back exactly
    as a float. Besides coords and the keys, one float array of their shape
    is made, rounded in place."""
    with np.errstate(over="ignore", invalid="ignore"):
        keys = coords * GRID
        np.rint(keys, out=keys)
    finite = np.isfinite(keys)
    if not finite.all():
        bad = coords[~finite].flat[0]
        raise GridRangeError(
            f"float coordinate {bad} is off the 1e-12 grid: x * 10^12 must be finite")
    del finite
    if max(-keys.min(), keys.max()) < INT64_BOUND:
        return keys.astype(np.int64)
    return np.array([int(k) for k in keys.ravel().tolist()], dtype=object).reshape(keys.shape)


def grid_key(coords: Sequence) -> Tuple[int, ...]:
    """The float grid's key of a point, round(x * 10^12) per coordinate:
    the one snapping rule of float mode, shared by `as_point` and
    `FuzzySet`, so equal-within-noise points hash identically. A coordinate
    the grid cannot hold (infinite, NaN, or one whose x * 10^12 overflows)
    raises GridRangeError naming it."""
    try:
        return tuple([round(float(c) * GRID) for c in coords])
    except (OverflowError, ValueError):
        for c in coords:
            try:
                round(float(c) * GRID)
            except (OverflowError, ValueError):
                raise GridRangeError(f"float coordinate {c} is off the 1e-12 grid: "
                                     "x * 10^12 must be finite") from None
        raise


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


def _require_compatible(a, b) -> None:
    """Two sets of one dimension and one numeric mode."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(f"dimension {a.dimension} vs {b.dimension}")
    if a.exact != b.exact:
        raise ValueError("cannot mix numeric modes")


def _nn_radius_slack(query: np.ndarray, data: np.ndarray) -> float:
    # Absolute slack dominating every float rounding error in a comparison
    # of float distances; scales with coordinate magnitude, the largest |entry|.
    magnitude = max(float(query.max()), -float(query.min()), float(data.max()), -float(data.min()))
    return 1e-9 * max(1.0, magnitude)


class _Rescaled:
    """The rows of an integer array times a factor, made as they are read:
    indexing it scales only the rows it gathers, so a set on a coarser
    denominator is read on the pair's without a rescaled copy of it all.
    Whether the products need Python ints, where int64 would pass
    INT64_BOUND, is decided once, for all rows."""

    __slots__ = ("points", "factor", "wide")

    def __init__(self, points: np.ndarray, factor: int):
        self.points, self.factor = points, factor
        self.wide = points.dtype != object and max(magnitude(points), 1) * factor >= INT64_BOUND

    def __len__(self):
        return len(self.points)

    def __getitem__(self, index):
        rows = self.points[index]
        return (rows.astype(object) if self.wide else rows) * self.factor


def _rescaled(u, den: int):
    """A set's rows over den, a multiple of its own denominator: its own
    array, or a `_Rescaled` view of it."""
    own, _, points, _ = u.scaled()
    return points if den == own else _Rescaled(points, den // own)


def _on_scale(u, den: int) -> np.ndarray:
    """The numerators of a set's support over den, a multiple of its own
    denominator, in one multiplication."""
    return _rescaled(u, den)[:]


def _rows(u, den: int) -> List[Tuple[int, ...]]:
    """`_on_scale` as tuples of Python ints, for small sets, where numpy's
    fixed costs would dominate."""
    own, _, points, _ = u.scaled()
    if den == own:
        return list(map(tuple, points.tolist()))
    factor = den // own
    return [tuple([n * factor for n in row]) for row in points.tolist()]


def scale_points(*groups: Sequence[Point]) -> Tuple[int, List[List[Tuple[int, ...]]]]:
    """Exact point groups on one common denominator D, the least one: (D,
    one list of numerator tuples per group), each point being its numerator
    tuple divided by D."""
    den = math.lcm(*{c.denominator for group in groups for p in group for c in p})
    return den, [[tuple(c.numerator * (den // c.denominator) for c in p) for p in group]
                 for group in groups]


def as_float_array(points: np.ndarray, den: int,
                   origin: Optional[np.ndarray] = None) -> np.ndarray:
    """Float coordinates (n - origin) / den of a nonempty array of integer
    numerators over den, origin an integer point (0 when None): the
    correctly rounded quotient, like float(Fraction(n - o, den)), which
    stays in float range when n and den do not. Floats divide when n - o
    and den are exact as floats, as every integer of magnitude at most 2^53
    is, an IEEE division being correctly rounded; Python's int true
    division does otherwise. OverflowError when n - o is too large for a
    float."""
    if origin is not None:
        points = points - origin
    if points.dtype != object and den < 2 ** 1024 and float(den) == den \
            and magnitude(points) <= 2 ** 53:
        return points / float(den)
    return (points.astype(object) / den).astype(float)


def _squared(p: Sequence[int], q: Sequence[int]) -> int:
    total = 0
    for a, b in zip(p, q):
        total += (a - b) * (a - b)
    return total


def _exact_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact squared distances between the integer points of a and b (rows,
    broadcast against each other): int64 when they fit, Python ints
    otherwise."""
    diff = a - b
    if diff.dtype != object and magnitude(diff) > math.isqrt((2 ** 63 - 1) // diff.shape[-1]):
        diff = diff.astype(object)
    # Summed a column at a time: a sum along a short last axis is slow.
    total = diff[..., 0] * diff[..., 0]
    for k in range(1, diff.shape[-1]):
        total += diff[..., k] * diff[..., k]
    return total


def _scan_squared(points: Sequence, targets: Sequence, limits: Sequence[int], worst: int = 0) -> int:
    """The larger of worst and the exact max over points of the min squared
    distance into the prefix targets[:limits[i]], on rows of Python ints:
    each point scans its prefix and stops once it has a target no farther
    than the largest minimum so far, since it cannot raise it."""
    for p, k in zip(points, limits):
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


def _squares(a: Iterable[np.ndarray], b: Iterable[np.ndarray]) -> np.ndarray:
    """Float squared distances between points of a and b, each given by its
    coordinate arrays in axis order, broadcast against each other: a sum of
    squared differences in axis order, overflowing to inf silently."""
    total = 0.0
    with np.errstate(over="ignore"):
        for x, y in zip(a, b):
            total = total + (x - y) ** 2
    return total


def _block_squares(a: np.ndarray, b: np.ndarray, den: int, exact: bool) -> np.ndarray:
    """Squared distances between the integer rows of a and b over den,
    broadcast against each other: exact integers, or in float mode the
    kernel's own `_squares` of the floats n / den, so that a float bound and
    the kernel's distance of the same pair are the same number."""
    if exact:
        return _exact_squares(a, b)
    return _squares(as_float_array(a, den).T, as_float_array(b, den).T)


def _paired_squares(points, targets, witness: np.ndarray, den: int, exact: bool) -> np.ndarray:
    """The squared distance from each row of points to its witness, the row
    targets[witness[i]], both over den (see `_block_squares`); points and
    targets are arrays or lazy ones such as `_Rescaled`, read a block of
    _GRID_BLOCK rows at a time."""
    squares = []
    for start in range(0, len(witness), _GRID_BLOCK):
        block = slice(start, start + _GRID_BLOCK)
        squares.append(_block_squares(points[block], targets[witness[block]], den, exact))
    return np.concatenate(squares)


def _nearest_square(point: np.ndarray, targets, prefix: np.ndarray, den: int, exact: bool):
    """The least squared distance from one point, a 1 x d array, to the rows
    targets[prefix] (see `_block_squares`), and the index in targets of a
    row at that distance: one exact query, O(len(prefix)) vector work in
    blocks of _GRID_BLOCK rows."""
    best = index = None
    for start in range(0, len(prefix), _GRID_BLOCK):
        rows = prefix[start:start + _GRID_BLOCK]
        squares = _block_squares(point, targets[rows], den, exact)
        i = int(np.argmin(squares))
        if best is None or squares[i] < best:
            best, index = squares[i], int(rows[i])
    return (int(best) if exact else float(best)), index


def _scan(query: np.ndarray, data: np.ndarray, limits: np.ndarray):
    """Float squared distance and index of each query point's nearest
    target among the first limits[i], by numpy passes over all pairs, each
    of at most _BRUTE_PAIR_LIMIT pairs or one point."""
    best, nearest = [], []
    step = max(1, _BRUTE_PAIR_LIMIT // data.shape[1])
    for rows in (slice(start, start + step) for start in range(0, query.shape[1], step)):
        squares = _squares(data[:, None], query[:, rows, None])
        squares[np.arange(data.shape[1]) >= limits[rows, None]] = np.inf
        nearest.append(squares.argmin(axis=1))
        best.append(squares[np.arange(len(nearest[-1])), nearest[-1]])
    return np.concatenate(best), np.concatenate(nearest)


# Cell coordinates and keys are integer-valued floats, exact up to 2^53; a
# round whose cells would number more than this doubles h first.
_MAX_CELLS = 2 ** 50

# The candidate pairs a grid round holds at once, one point's aside: about
# 1 MB of arrays. Blocks of _BRUTE_PAIR_LIMIT pairs took twice as long on
# points whose cells hold thousands of targets; larger blocks than these
# took at most a quarter less time, for several times the memory. A round
# takes its points in blocks of a quarter as many, whose dozen or so arrays
# of one entry per point then hold less than a block of pairs; the exact
# check takes its upper bounds in blocks of _GRID_BLOCK points.
_GRID_BLOCK = 4 * _BRUTE_PAIR_LIMIT


def _key(cells: Iterable[np.ndarray], strides: List[float]) -> np.ndarray:
    """The key of each point from its integer cell coordinates, given one
    axis at a time: their sum weighted by the strides, exact in floats
    below 2^53."""
    axes = zip(cells, strides)
    column, stride = next(axes)
    total = column * stride
    for column, stride in axes:
        total += column * stride
    return total


def _grid_round(query: np.ndarray, data: np.ndarray, limits: np.ndarray, todo: np.ndarray,
                h: float, low: np.ndarray, high: np.ndarray, best: np.ndarray,
                nearest: np.ndarray) -> bool:
    """One round of the prefix search with cells of side 2h, h a power of
    two: writes to best and nearest, for each query point i in todo, the
    float squared distance and index of its nearest target among the first
    limits[i] that lie in the 2^d cells around the half cell holding the
    point, which hold every target within h of it (inf and index 0 for a
    point with none). False, with nothing written, when the box [low, high]
    holding all points has more than _MAX_CELLS cells.

    Cells are keyed by their integer coordinates relative to the corner
    low, and the targets are sorted by key once per round. Dividing by a
    power of two is exact, so the cells are too: a point whose half cell
    index along an axis is j gets the cells (j + 1) // 2 - 1 and
    (j + 1) // 2 there, which cover [x - h, x + h]. Only the targets of a
    cell inside a point's prefix become its candidates: sorted by key and
    then by index, those start the cell's run of targets. The points todo
    go in blocks of _GRID_BLOCK // 4 points, whose coordinates are gathered
    an axis at a time, so that apart from the targets' keys, order and runs
    only best and nearest hold an entry per query point. A block's
    candidates are taken in blocks of at most _GRID_BLOCK pairs, or one
    point, at a time."""
    side = 2 * h
    cell_low = np.floor(low / side) - 1
    strides = [1.0]
    for width in (np.floor(high / side) - cell_low + 2).tolist():
        strides.append(strides[-1] * width)
    if not strides.pop() <= _MAX_CELLS:
        return False
    cell_low = cell_low.tolist()
    keys = _key((np.floor(axis / side) - c for axis, c in zip(data, cell_low)), strides)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Each target's cell number times the targets plus its index: a sorted
    # array, in which a cell's targets inside a prefix are found by a search.
    runs = np.zeros(len(order), dtype=np.int64)
    np.cumsum(keys[1:] != keys[:-1], out=runs[1:])
    runs *= len(order)
    runs += order
    corners = [0.0]
    for stride in strides:
        corners += [c + stride for c in corners]
    step = max(1, _GRID_BLOCK // 4)
    for chunk in (todo[start:start + step] for start in range(0, len(todo), step)):
        base = _key(((np.floor(query[k, chunk] / h) - 2 * c + 1) // 2 - 1
                     for k, c in enumerate(cell_low)), strides)
        # Searching the keys in sorted order keeps the binary searches local.
        rows = np.argsort(base, kind="stable")
        base = base[rows]
        rows = chunk[rows]
        best[rows] = np.inf
        nearest[rows] = 0
        for corner in corners:
            first = np.searchsorted(keys, base + corner, "left")
            hit = np.flatnonzero(np.searchsorted(keys, base + corner, "right") > first)
            start = first[hit]
            hit = rows[hit]
            counts = np.searchsorted(runs, runs[start] - order[start] + limits[hit]) - start
            ends = counts.cumsum()
            done = 0
            while done < len(hit):
                cap = ends[done] - counts[done] + _GRID_BLOCK
                block = slice(done, max(done + 1, int(np.searchsorted(ends, cap, "right"))))
                done = block.stop
                taken = counts[block]
                row = np.repeat(hit[block], taken)
                index = np.arange(len(row))
                index += np.repeat(start[block] - taken.cumsum() + taken, taken)
                index = order[index]
                squares = _squares((axis[index] for axis in data), (axis[row] for axis in query))
                np.minimum.at(best, row, squares)
                hit_best = squares == best[row]
                nearest[row[hit_best]] = index[hit_best]
    return True


# The number of points whose exact minima set the first cell size.
_SAMPLE = 8


def _prefix_nearest(query: np.ndarray, data: np.ndarray, limits: np.ndarray):
    """Float squared distance and index, per query point (a column), of a
    target among the first limits[i] columns of data: its nearest, or one
    no farther than a nearest found for another point, which is as good for
    the max of the minima.

    A sample of _SAMPLE points is scanned first (`_scan`); the median of
    its positive minima sets h, and the other points go through rounds of
    `_grid_round`, h doubling from round to round. The points left are
    ordered by their last coordinate once, and each round takes them in
    blocks of that order, so that only the results and the indices of the
    points left hold an entry per query point. A point whose best
    candidate is no farther than h has its nearest: every target outside
    its cells is farther than h along some axis, so its float squared
    distance is at least h^2, h being a power of two. A point whose
    candidate is no farther than a minimum already found keeps that
    candidate, since it cannot raise the max of the minima (Taha & Hanbury,
    IEEE TPAMI 37(11), 2015). Once h exceeds the extent of the data every
    target is a candidate, so the rounds end there: such a round has at
    most 4 cells per axis, 4^d in all, fewer than the targets and so never
    too many to key. With 4^d targets or fewer, looking up the 2^d cells
    around each point costs more than scanning every target (measured on
    uniform points, from about d = 6 on), and all points are scanned; so
    are the points left whenever they, small inputs from the start, have
    at most _BRUTE_PAIR_LIMIT pairs with the targets."""
    size = query.shape[1]
    if size * data.shape[1] <= _BRUTE_PAIR_LIMIT or 4 ** len(data) >= data.shape[1]:
        return _scan(query, data, limits)
    best = np.full(size, np.inf)
    nearest = np.zeros(size, dtype=np.int64)
    sample = np.arange(0, size, -(-size // _SAMPLE))
    best[sample], nearest[sample] = _scan(query[:, sample], data, limits[sample])
    # The other points by their last coordinate, which leads the cell keys,
    # so that the points of a block search a narrow range of the keys.
    todo = np.delete(np.arange(size), sample)
    todo = todo[np.argsort(query[-1, todo], kind="stable")]
    minima = sorted(best[sample].tolist())
    known = minima[-1]
    positive = [square for square in minima if square > 0]
    low = np.minimum(query.min(axis=1), data.min(axis=1))
    high = np.maximum(query.max(axis=1), data.max(axis=1))
    reach = float((high - low).max())
    # A power of two at least the median positive minimum of the sample,
    # below 2 reach, and no finer than the spacing of floats at the largest
    # coordinate, so that every cell coordinate stays finite.
    h = math.sqrt(positive[len(positive) // 2]) if positive else 0.0
    h = max(min(h, reach), math.ulp(max(-low.min(), high.max(), 0.0)))
    h = math.ldexp(1.0, math.frexp(h)[1])
    while len(todo) * data.shape[1] > _BRUTE_PAIR_LIMIT:
        if _grid_round(query, data, limits, todo, h, low, high, best, nearest):
            found = best[todo]
            done = (found <= h * h) | (h > reach)
            if done.any():
                known = max(known, float(found[done].max()))
            todo = todo[~(done | (found <= known))]
        h *= 2
    if len(todo):
        best[todo], nearest[todo] = _scan(query[:, todo], data, limits[todo])
    return best, nearest


def _float_columns(group: np.ndarray, index: np.ndarray, den: int,
                   origin: Optional[np.ndarray]) -> np.ndarray:
    """The float coordinates (n - origin) / den of the rows group[index] of
    integer numerators over den, origin an integer point (0 when None), as
    a d x n array built one column at a time by `as_float_array`."""
    columns = np.empty((group.shape[1], len(index)))
    for k, column in enumerate(columns):
        # A one-entry slice of the origin, not its entry: an int64 column
        # minus a Python int past int64 overflows, where arrays of int64 and
        # Python ints subtract in Python ints.
        column[:] = as_float_array(group[index, k], den, None if origin is None else origin[k:k + 1])
    return columns


def directed_max_squared(points: np.ndarray, targets: np.ndarray, den: int, exact: bool,
                         limits: Optional[Sequence[int]] = None,
                         rows: Optional[np.ndarray] = None, order: Optional[np.ndarray] = None,
                         floor: Scalar = 0, found: Optional[np.ndarray] = None):
    """Max over the points of the min squared distance into the targets,
    point i looking only at the prefix of the first limits[i] targets (all
    of them when limits is None; every limit is at least 1), or floor when
    that is larger: a point whose distances cannot pass the floor is not
    checked exactly. The index arrays rows and order select the points
    points[rows] and the targets targets[order] (all rows, in order, when
    None); the kernel reads them through the indices, a column or a block
    at a time, and holds no gathered copy of either. When the grid answers,
    found[rows[i]] gets the index in targets of the target it found for
    point i, which lies in the point's prefix; the scan of a small exact
    input leaves found as it is, so a caller that needs an index for every
    point fills found with valid ones first.

    The one nearest-neighbour kernel behind `directed_distance`, `hausdorff`
    and `d_infinity`, whose per-point limits are level-sorted prefixes. The
    points and the targets are rows of integer numerators over the common
    denominator `den` (float mode: grid keys over GRID), int64 or Python
    ints (`int_array`). Every prefix is answered from one uniform grid of
    cells per round (see `_prefix_nearest`). In float mode the result is a
    float, the largest of the nearest distances between the floats n / den,
    each the square root of a sum of squared differences. In exact mode the
    result is the integer numerator of the squared distance over den^2,
    found with integer arithmetic only:

    - when the pairs scanned (the sum of the given limits) are few, without
      the grid, by `_scan_squared` on Python ints (`hausdorff` scans a small
      pair without limits itself);
    - otherwise through a float near neighbour of each point in its prefix,
      the coordinates taken relative to the first target so that only the
      spread of the points must fit a float. Its exact squared distance
      bounds the point's minimum from above, so only a point whose bound
      exceeds the largest minimum so far takes one exact query over its
      whole prefix (`_nearest_square`), which also gives its found index.
      Points go in decreasing float distance, so few of them do, and their
      bounds are computed a block of _GRID_BLOCK points at a time, from
      just the rows of the points and of their near neighbours. A spread too large for floats raises GridRangeError.
    """
    size = len(points) if rows is None else len(rows)
    count = len(targets) if order is None else len(order)
    if exact and limits is not None and int(np.sum(limits)) <= _BRUTE_PAIR_LIMIT:
        return _scan_squared((points if rows is None else points[rows]).tolist(),
                             (targets if order is None else targets[order]).tolist(),
                             np.asarray(limits).tolist(), floor)
    rows = np.arange(size) if rows is None else rows
    order = np.arange(count) if order is None else order
    limits = np.full(size, count) if limits is None else np.asarray(limits)
    origin = targets[order[0]] if exact else None
    try:
        data, query = (_float_columns(group, index, den, origin)
                       for group, index in ((targets, order), (points, rows)))
    except OverflowError:
        raise GridRangeError("exact points too far apart for float coordinates") from None
    best, nearest = _prefix_nearest(query, data, limits)
    if found is not None:
        found[rows] = order[nearest]
    dist = np.sqrt(best, out=best)
    if not exact:
        return max(floor, float(dist.max()) ** 2)
    by_distance = np.argsort(-dist, kind="stable")
    worst = floor
    for start in range(0, size, _GRID_BLOCK):
        block = by_distance[start:start + _GRID_BLOCK]
        upper = _exact_squares(points[rows[block]], targets[order[nearest[block]]])
        ahead = np.flatnonzero(upper > worst)
        for i, bound in zip(block[ahead].tolist(), upper[ahead].tolist()):
            if bound > worst:
                row = rows[i]
                square, index = _nearest_square(points[row:row + 1], targets, order[:limits[i]],
                                                den, exact)
                if found is not None:
                    found[row] = index
                worst = max(worst, square)
    return worst


def _max_squared(a, b, symmetric: bool):
    """The kernel from the support of a into that of b, and from b into a
    too when symmetric, on the lcm of their denominators; a small exact
    pair is scanned on rows of Python ints."""
    _require_compatible(a, b)
    exact = a.exact
    den = math.lcm(a.scaled()[0], b.scaled()[0])
    if exact and len(a) * len(b) <= _BRUTE_PAIR_LIMIT:
        points, targets = _rows(a, den), _rows(b, den)
        best = _scan_squared(points, targets, [len(targets)] * len(points))
        if symmetric:
            best = _scan_squared(targets, points, [len(points)] * len(targets), best)
        return exact_root(best, den)
    points, targets = _on_scale(a, den), _on_scale(b, den)
    best = directed_max_squared(points, targets, den, exact)
    if symmetric:
        # The first direction's maximum is a floor: a point of b no farther
        # than it from a cannot raise the result, and is not checked exactly.
        best = directed_max_squared(targets, points, den, exact, floor=best)
    return exact_root(best, den) if exact else math.sqrt(best)


def directed_distance(a, b):
    """sup over supp a of inf distance into supp b. Not symmetric."""
    return _max_squared(a, b, symmetric=False)


def hausdorff(a, b):
    """max of the two directed distances; a metric on exact supports."""
    return _max_squared(a, b, symmetric=True)


def diameter(points: np.ndarray, den: int, exact: bool) -> Scalar:
    """The largest distance between rows of an n x d array of numerators
    over den (float mode: grid keys over GRID); zero for one row.

    A double sweep finds rows a and b at distance L; a longer pair has an
    end farther than L/2 from their midpoint (Malandain & Boissonnat, IJCGA
    12(6), 2002), so only such rows get a row of distances of their own.
    Exact mode compares integer squares, in Python ints from 2^60 on so
    that 2p - a - b fits in int64. Float mode takes the norms of the
    differences of the floats n / den scaled by the power of two that
    brings the widest coordinate extent into [1/2, 1), so none overflows,
    and prunes with `_nn_radius_slack` of slack for their rounding.
    """
    if exact:
        if points.dtype != object and magnitude(points) >= 2 ** 60:
            points = points.astype(object)
        coords = points
    else:
        coords = as_float_array(points, den)
        _, e = math.frexp(float((coords.max(axis=0) - coords.min(axis=0)).max()))
        scale = math.ldexp(1.0, -e)

    def lengths(p, q):
        """Exact squared or scaled float distances between the rows of p and q."""
        if exact:
            return _exact_squares(p, q)
        return np.linalg.norm((p - q) * scale, axis=1)
    a = int(lengths(coords, coords[0]).argmax())
    sweep = lengths(coords, coords[a])
    b = int(sweep.argmax())
    best = sweep[b]
    # 2 (p - a) - (b - a) is twice p's offset from the midpoint of a and b.
    centred = coords - coords[a]
    slack = 0 if exact else _nn_radius_slack(centred * scale, centred[b] * scale)
    for i in np.flatnonzero(lengths(2 * centred, centred[b]) > best - slack).tolist():
        best = max(best, lengths(coords, coords[i]).max())
    return exact_root(int(best), den) if exact else math.ldexp(float(best), e)
