"""Affine self-maps, iterated function systems, orbits, the crisp set
operator, and finite words over the map indices {1..N}.

Maps are restricted to affine form so exact-rational iteration stays closed
and contractivity sampling is well defined. The contraction constant is a
declared property of the system; `check_contractivity` only samples orbit
pairs and never claims a proof.

Sets are `fuzzy.FuzzySet`s, a crisp set one whose every level is 1. One
routine, `IteratedFunctionSystem._image`, maps a set's integer form under
one map in array operations, for the crisp step and orbit and for the
fuzzy operator's step, residual and reach diameter in `system`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

import numpy as np

from .fuzzy import FuzzySet, join
from .geometry import (INT64_BOUND, DimensionMismatchError, Point, as_float_array, grid_keys,
                       magnitude, point_is_exact, scale_points, squared_distance)
from .numeric import DEFAULT_TOL, Scalar, sqrt_exact

DEFAULT_SUPPORT_CAP = 10_000_000

# check_contractivity compares every pair of at most this many orbit points.
CONTRACTIVITY_SAMPLES = 64

Word = Tuple[int, ...]


class SupportCapError(RuntimeError):
    """Iteration produced more points than the configured cap allows."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class AffineMap:
    """x -> linear @ x + offset.

    Construction builds a per-row plan: the nonzero entries of the row with
    unit entries marked, and the offset, left out when it is exactly zero.
    Applying the map then skips multiplying by 1 and adding a zero offset.
    Float maps keep their offsets, because 0.0 + -0.0 is 0.0 and skipping the
    addition would change the sign of a zero result.
    """

    linear: Tuple[Tuple[Scalar, ...], ...]
    offset: Point
    # Per row: (offset or None, ((column, entry or None for 1), ...)).
    _rows: tuple = field(init=False, repr=False, compare=False, default=None)
    # Whether every entry is exact, found once; `exact` returns it.
    _exact: bool = field(init=False, repr=False, compare=False, default=True)

    def __post_init__(self):
        d = len(self.offset)
        if len(self.linear) != d or any(len(row) != d for row in self.linear):
            raise DimensionMismatchError("linear part must be DxD with offset of length D")
        exact = point_is_exact(self.offset) and all(point_is_exact(r) for r in self.linear)
        object.__setattr__(self, "_exact", exact)
        rows = []
        for row, off in zip(self.linear, self.offset):
            terms = tuple((j, None if entry == 1 else entry)
                          for j, entry in enumerate(row) if entry)
            rows.append((None if exact and terms and not off else off, terms))
        object.__setattr__(self, "_rows", tuple(rows))

    @property
    def dimension(self) -> int:
        return len(self.offset)

    @property
    def exact(self) -> bool:
        return self._exact

    @classmethod
    def identity(cls, dimension: int, exact: bool = True) -> "AffineMap":
        one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
        rows = tuple(tuple(one if i == j else zero for j in range(dimension)) for i in range(dimension))
        return cls(linear=rows, offset=tuple(zero for _ in range(dimension)))

    def __call__(self, p: Sequence) -> Point:
        if len(p) != self.dimension:
            raise DimensionMismatchError(f"point of dimension {len(p)}, map of {self.dimension}")
        return self._apply(p)

    def _apply(self, p: Sequence) -> Point:
        """The image of p, for callers that checked its dimension already."""
        out = []
        for acc, terms in self._rows:
            for j, entry in terms:
                term = p[j] if entry is None else entry * p[j]
                acc = term if acc is None else acc + term
            out.append(acc)
        return tuple(out)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if self.dimension != other.dimension:
            raise DimensionMismatchError("composing maps of different dimension")
        d = self.dimension
        rows = tuple(
            tuple(sum(self.linear[i][k] * other.linear[k][j] for k in range(d)) for j in range(d))
            for i in range(d)
        )
        return AffineMap(linear=rows, offset=self(other.offset))

    def to_float(self) -> "AffineMap":
        return AffineMap(
            linear=tuple(tuple(float(v) for v in row) for row in self.linear),
            offset=tuple(float(v) for v in self.offset),
        )


def words_of_length(alphabet_size: int, length: int) -> Iterator[Word]:
    return itertools.product(range(1, alphabet_size + 1), repeat=length)


def words_up_to(alphabet_size: int, max_length: int) -> Iterator[Word]:
    for n in range(max_length + 1):
        yield from words_of_length(alphabet_size, n)


def compose_word(maps: Sequence[AffineMap], word: Word) -> AffineMap:
    """Composite of the indexed maps along a word; the first letter's map is
    applied last. The empty word composes to the identity."""
    if not maps:
        raise ValueError("need at least one map")
    composed = AffineMap.identity(maps[0].dimension, exact=maps[0].exact)
    for letter in word:
        if not 1 <= letter <= len(maps):
            raise ValueError(f"letter {letter} outside 1..{len(maps)}")
        composed = composed.compose(maps[letter - 1])
    return composed


@dataclass(frozen=True)
class ContractivityReport:
    max_ratio: Scalar
    ok: bool


@dataclass(frozen=True)
class IteratedFunctionSystem:
    """Finite family of affine maps with a declared contraction constant."""

    maps: Tuple[AffineMap, ...]
    contraction_constant: Scalar
    # Exact systems: (L, ((linear map, offset), ...)), every map times the
    # least common denominator L of all entries and offsets, in ints, its
    # linear part an AffineMap with a zero offset whose plan is built here
    # once; float: (1, ()).
    _scaled_maps: tuple = field(init=False, repr=False, compare=False, default=(1, ()))

    def __post_init__(self):
        if not self.maps:
            raise ValueError("a system needs at least one map")
        d = self.maps[0].dimension
        if any(m.dimension != d for m in self.maps):
            raise DimensionMismatchError("maps of mixed dimension")
        if any(m.exact != self.maps[0].exact for m in self.maps):
            raise ValueError("cannot mix numeric modes")
        if not (0 <= self.contraction_constant < 1):
            raise ValueError("contraction_constant out of range [0, 1)")
        if self.exact:
            den, (rows,) = scale_points([row for f in self.maps for row in (*f.linear, f.offset)])
            d = self.dimension
            zero = (0,) * d
            maps = tuple((AffineMap(tuple(rows[k:k + d]), zero), rows[k + d])
                         for k in range(0, len(rows), d + 1))
            object.__setattr__(self, "_scaled_maps", (den, maps))

    @property
    def dimension(self) -> int:
        return self.maps[0].dimension

    @property
    def exact(self) -> bool:
        return self.maps[0].exact

    def to_float(self) -> "IteratedFunctionSystem":
        return IteratedFunctionSystem(
            maps=tuple(m.to_float() for m in self.maps),
            contraction_constant=float(self.contraction_constant),
        )

    def _image(self, u: FuzzySet, k: int, rows=slice(None)) -> np.ndarray:
        """The images under map k of u's rows after checking u's mode and
        dimension: numerators over D*L for an exact map times L (see
        `_scaled_maps`), its linear part applied to the numerators and its
        offset times D added, in int64 while a bound on them allows; for a
        float map, `grid_keys` of `AffineMap._apply` on the floats n / D."""
        if u.exact != self.exact:
            raise ValueError("fuzzy set and system use different numeric modes")
        if u.dimension != self.dimension:
            raise DimensionMismatchError(
                f"fuzzy set of dimension {u.dimension}, system of {self.dimension}")
        den, _, points, _ = u.scaled()
        points = points[rows]
        if u.exact:
            plan, offset = self._scaled_maps[1][k]
            # Every image numerator is below this bound.
            top = max(magnitude(points), 1)
            bound = max(top * sum(map(abs, row)) + abs(b) * den for row, b in zip(plan.linear, offset))
            columns = list(points.astype(np.int64 if bound < INT64_BOUND else object, copy=False).T)
            image = [c + b * den if b else c for c, b in zip(plan._apply(columns), offset)]
        else:
            columns = list(as_float_array(points, den).T)
            image = self.maps[k]._apply(columns)
        # A row of a map without linear terms gives a scalar component. The
        # block is column-major, so that the merge's sort reads contiguous
        # columns.
        block = np.empty((len(points), u.dimension), dtype=columns[0].dtype, order="F")
        for j, component in enumerate(image):
            block[:, j] = component
        # Only the block is alive while the float one becomes keys.
        del columns, image, component
        return block if u.exact else grid_keys(block)

    def step(self, u: FuzzySet) -> FuzzySet:
        """The images of u under every map, each keeping its point's level:
        the images of u's rows, concatenated in map order, merged onto their
        distinct rows in order of first occurrence, each with its highest
        level. That is join([zadeh_pushforward(f, u) for f in maps]); a
        crisp u gives the crisp set operator's image."""
        den, levels, _, ranks = u.scaled()
        points = np.concatenate([self._image(u, k) for k in range(len(self.maps))])
        return FuzzySet._from_images(points, np.tile(ranks, len(self.maps)),
                                     den * self._scaled_maps[0], levels, u.dimension, u.exact)

    def orbit(self, base: FuzzySet, depth: int,
              support_cap: int = DEFAULT_SUPPORT_CAP) -> FuzzySet:
        """The crisp set of the images of the base's support under every
        word of length <= depth, in order of first occurrence: the base's
        points, then each crisp step's new points."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        level = acc = base.support_set()
        for _ in range(depth):
            level = self.step(level)
            acc = join([acc, level])
            if len(acc) > support_cap:
                raise SupportCapError(
                    f"orbit grew past the cap of {support_cap} points",
                    partial=acc,
                )
        return acc

    def check_contractivity(self, base: FuzzySet, depth: int) -> ContractivityReport:
        """Sample orbit point pairs and compare image distances against the
        declared constant. A sampling check, not a proof."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        pts = self.orbit(base, depth).support_points()
        if len(pts) > CONTRACTIVITY_SAMPLES:
            stride = (len(pts) - 1) / (CONTRACTIVITY_SAMPLES - 1)
            pts = [pts[round(i * stride)] for i in range(CONTRACTIVITY_SAMPLES)]
        exact = base.exact
        worst_sq = Fraction(0) if exact else 0.0
        for i, y in enumerate(pts):
            for z in pts[i + 1:]:
                denom = squared_distance(y, z)
                if not denom:
                    continue
                for f in self.maps:
                    ratio_sq = squared_distance(f(y), f(z)) / denom
                    if ratio_sq > worst_sq:
                        worst_sq = ratio_sq
        max_ratio = sqrt_exact(worst_sq) if exact else worst_sq ** 0.5
        limit = self.contraction_constant if exact else float(self.contraction_constant) + DEFAULT_TOL
        return ContractivityReport(max_ratio=max_ratio, ok=bool(max_ratio <= limit))
