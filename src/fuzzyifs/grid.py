"""Dense grid discretization of fuzzy sets and the binary PGM writer.

The grid stores one grey level per cell in image orientation: row 0 is the
top of the picture, which covers the highest world y. Rendering a fuzzy set
snaps each support point into its containing cell and keeps the maximum
level per cell.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fuzzy import FuzzySet
from .geometry import as_float_array

PGM_MAXVAL = 255

# The bytes per cell that rendering touches: the float64 raster, the two
# float64 arrays of `to_pgm` (the scaled levels and their rounding), its
# uint8 pixels, their bytes and the image's bytes.
RASTER_BYTES_PER_CELL = 8 + 8 + 8 + 1 + 1 + 1


@dataclass(frozen=True)
class RenderSpec:
    """A render window: the box (x0, y0, x1, y1) and the raster size. Its
    corners and extents are finite, x0 < x1 and y0 < y1, and the width and
    height are positive ints. These rules live here alone: a scene's render
    block, the CLI's --bbox and --grid and every grid build a RenderSpec,
    so a bad box fails where it is read, before any iteration. So does a
    raster that cannot fit: RASTER_BYTES_PER_CELL times width times height
    past physical memory (page size times pages, `os.sysconf`) raises
    MemoryError. The size is compared, not allocated, since overcommit
    would let a raster too large be allocated and fail only when filled."""

    bbox: Tuple[float, float, float, float]  # x0, y0, x1, y1
    width: int
    height: int

    def __post_init__(self):
        if len(self.bbox) != 4 or not all(map(math.isfinite, self.bbox)):
            raise ValueError("render bbox must be four finite numbers x0, y0, x1, y1")
        x0, y0, x1, y1 = self.bbox
        if not (x0 < x1 and y0 < y1 and math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
            raise ValueError("render bbox needs x0 < x1, y0 < y1 and finite extents")
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                   for n in (self.width, self.height)):
            raise ValueError("render width and height must be positive integers")
        needed = RASTER_BYTES_PER_CELL * self.width * self.height
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if needed > memory:
            raise MemoryError(f"a {self.width}x{self.height} raster needs {needed} bytes, "
                              f"more than the {memory} bytes of physical memory")


@dataclass(frozen=True, eq=False)
class GridFuzzySet:
    """Levels on a regular grid over an axis-aligned box (2-D)."""

    lo: Tuple[float, float]
    hi: Tuple[float, float]
    width: int
    height: int
    levels: np.ndarray  # shape (height, width), row 0 = top

    def __post_init__(self):
        RenderSpec((*self.lo, *self.hi), self.width, self.height)  # the box and size rules
        if self.levels.shape != (self.height, self.width):
            raise ValueError("levels array does not match the resolution")
        if np.any(self.levels < 0) or np.any(self.levels > 1):
            raise ValueError("levels outside [0, 1]")

    @classmethod
    def zeros(cls, lo, hi, width: int, height: int) -> "GridFuzzySet":
        return cls(lo=tuple(map(float, lo)), hi=tuple(map(float, hi)),
                   width=width, height=height,
                   levels=np.zeros((height, width)))

    @classmethod
    def from_fuzzy(cls, u: FuzzySet, lo, hi, width: int, height: int) -> "GridFuzzySet":
        """Rasterize: each support point lands in its containing cell,
        max-combined. Points outside the box or past float range are
        dropped; points on the top or right edge fall into the last cell.
        One array pass over the support: coordinates are the correctly
        rounded n / D of `as_float_array`, and cells come from the same
        float operations a point-by-point loop would do."""
        if u.dimension != 2:
            raise ValueError("grid rendering needs dimension 2")
        g = cls.zeros(lo, hi, width, height)
        x0, y0 = g.lo
        x1, y1 = g.hi
        den, (lden, table), points, ranks = u.scaled()
        if points.dtype == object:  # a point whose float is infinite is outside every box
            near = (np.abs(points) < den * (2 ** 1024 - 2 ** 970)).all(axis=1)
            points, ranks = points[near], ranks[near]
        xy = as_float_array(points, den)
        # Int true division rounds correctly, as float(Fraction(n, L)) does.
        level = np.array([n / lden for n in table])[ranks]
        x, y = xy[:, 0], xy[:, 1]
        inside = (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        x, y, level = x[inside], y[inside], level[inside]
        col = np.minimum(((x - x0) / (x1 - x0) * width).astype(np.intp), width - 1)
        row_up = np.minimum(((y - y0) / (y1 - y0) * height).astype(np.intp), height - 1)
        np.maximum.at(g.levels, (height - 1 - row_up, col), level)
        return g

    def to_pgm(self) -> bytes:
        """Binary PGM: pixel = round(maxval * level), row 0 first."""
        header = f"P5\n{self.width} {self.height}\n{PGM_MAXVAL}\n".encode("ascii")
        pixels = np.rint(self.levels * PGM_MAXVAL).astype(np.uint8)
        return header + pixels.tobytes()


def parse_pgm(data: bytes):
    """Parse a binary PGM produced by `to_pgm`; returns (w, h, maxval, levels)."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError("not a binary PGM")
    width, height = (int(tok) for tok in parts[1].split())
    maxval = int(parts[2])
    payload = parts[3]
    if len(payload) != width * height:
        raise ValueError("payload length does not match the header")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return width, height, maxval, pixels
