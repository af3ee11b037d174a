"""Affine self-maps, iterated function systems, orbits, the crisp set
operator and attractor iteration.

Maps are restricted to affine form so exact-rational iteration stays closed
and contractivity sampling is well defined. The contraction constant is a
declared property of the system; `check_contractivity` only samples orbit
pairs and never claims a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .geometry import (
    DimensionMismatchError,
    FinitePointSet,
    Point,
    hausdorff,
    point_is_exact,
    squared_distance,
)
from .numeric import DEFAULT_TOL, Scalar, sqrt_exact

DEFAULT_SUPPORT_CAP = 10_000_000


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

    def __post_init__(self):
        d = len(self.offset)
        if len(self.linear) != d or any(len(row) != d for row in self.linear):
            raise DimensionMismatchError("linear part must be DxD with offset of length D")
        exact = self.exact
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
        return point_is_exact(self.offset) and all(point_is_exact(r) for r in self.linear)

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


@dataclass(frozen=True)
class OrbitApproximation:
    """All images of the base set under words of length <= depth."""

    base: FinitePointSet
    depth: int
    points: FinitePointSet


@dataclass(frozen=True)
class ContractivityReport:
    max_ratio: Scalar
    ok: bool
    pairs_checked: int


@dataclass(frozen=True)
class IteratedFunctionSystem:
    """Finite family of affine maps with a declared contraction constant."""

    maps: Tuple[AffineMap, ...]
    contraction_constant: Scalar

    def __post_init__(self):
        if not self.maps:
            raise ValueError("a system needs at least one map")
        d = self.maps[0].dimension
        if any(m.dimension != d for m in self.maps):
            raise DimensionMismatchError("maps of mixed dimension")
        if not (0 <= self.contraction_constant < 1):
            raise ValueError("contraction_constant out of range [0, 1)")

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

    def step(self, k: FinitePointSet) -> FinitePointSet:
        """Union of the images of k under every map, deduplicated."""
        images = [f(p) for f in self.maps for p in k.points]
        return FinitePointSet.from_points(images, exact=k.exact)

    def iterate(
        self,
        k0: FinitePointSet,
        steps: int,
        tol: Optional[Scalar] = None,
        support_cap: int = DEFAULT_SUPPORT_CAP,
    ):
        """Iterate the set operator.

        Returns the final set together with the history of consecutive
        Hausdorff distances h(K_n, K_{n+1}). With `tol` given, stops at the
        first step whose distance falls within tol.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        current = k0
        history = []
        for _ in range(steps):
            nxt = self.step(current)
            if len(nxt) > support_cap:
                raise SupportCapError(
                    f"support grew past the cap of {support_cap} points",
                    partial=(current, history),
                )
            h = hausdorff(current, nxt)
            history.append(h)
            current = nxt
            if tol is not None and h <= tol:
                break
        return current, history

    def orbit(self, base: FinitePointSet, depth: int,
              support_cap: int = DEFAULT_SUPPORT_CAP) -> OrbitApproximation:
        """Images of the base under every word of length <= depth."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        level = base
        acc = base
        for _ in range(depth):
            level = self.step(level)
            acc = acc.union(level)
            if len(acc) > support_cap:
                raise SupportCapError(
                    f"orbit grew past the cap of {support_cap} points",
                    partial=acc,
                )
        return OrbitApproximation(base=base, depth=depth, points=acc)

    def check_contractivity(self, base: FinitePointSet, depth: int,
                            sample_limit: int = 64) -> ContractivityReport:
        """Sample orbit point pairs and compare image distances against the
        declared constant. A sampling check, not a proof."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        pts = list(self.orbit(base, depth).points)
        if len(pts) > sample_limit:
            stride = (len(pts) - 1) / (sample_limit - 1)
            pts = [pts[round(i * stride)] for i in range(sample_limit)]
        exact = base.exact
        worst_sq = Fraction(0) if exact else 0.0
        pairs = 0
        for i, y in enumerate(pts):
            for z in pts[i + 1:]:
                denom = squared_distance(y, z)
                if not denom:
                    continue
                pairs += 1
                for f in self.maps:
                    ratio_sq = squared_distance(f(y), f(z)) / denom
                    if ratio_sq > worst_sq:
                        worst_sq = ratio_sq
        max_ratio = sqrt_exact(worst_sq) if exact else worst_sq ** 0.5
        limit = self.contraction_constant if exact else float(self.contraction_constant) + DEFAULT_TOL
        return ContractivityReport(max_ratio=max_ratio, ok=bool(max_ratio <= limit), pairs_checked=pairs)
