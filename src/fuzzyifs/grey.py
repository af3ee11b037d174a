"""Grey level maps: nondecreasing right-continuous maps of [0, 1] into
itself, which an orbital system pairs with its affine maps to reweight
levels (see `system`).

A map is held as its breakpoints, the graph being linear between them; an
exact map also holds them on integers, so that the step evaluates it on the
numerators of a level table with no `Fraction` (`GreyLevelMap._ratio_at`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence, Tuple

from .numeric import Scalar, is_exact


class GreyMapError(ValueError):
    """Invalid grey level map data or evaluation outside [0, 1]."""


@dataclass(frozen=True)
class GreyLevelMap:
    """Nondecreasing right-continuous map of [0, 1] into itself.

    Stored as its breakpoints ((t, v), ...), nondecreasing in t and in v,
    from t = 0 to t = 1. A jump is two breakpoints sharing the same t, and
    the value at the jump point is the second one's v. Between breakpoints
    the graph is linear. Build instances through `from_breakpoints`, which
    validates them and drops exact duplicates. An exact map also holds its
    positions as numerators over their lcm and its values as integer
    ratios, for `_ratio_at`.
    """

    breakpoints: Tuple[Tuple[Scalar, Scalar], ...]
    _table: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = self.breakpoints
        if not is_exact(pts[0][0]):
            return
        ts = [t.as_integer_ratio() for t, _ in pts]
        scale = math.lcm(*(d for _, d in ts))
        object.__setattr__(self, "_table", (scale, [n * (scale // d) for n, d in ts],
                                            [v.as_integer_ratio() for _, v in pts]))

    @classmethod
    def from_breakpoints(cls, breakpoints: Sequence[Sequence], exact: bool = True) -> "GreyLevelMap":
        pts = [(t if type(t) is Fraction else Fraction(t), v if type(v) is Fraction else Fraction(v))
               if exact else (float(t), float(v)) for t, v in breakpoints]
        if len(pts) < 2:
            raise GreyMapError("need at least breakpoints at t=0 and t=1")
        # An exact map's checks compare the ints of its table, and its values
        # over their lcm.
        rho = cls(breakpoints=tuple(pts))
        if exact:
            one, ts, values = rho._table
            top = math.lcm(*(d for _, d in values))
            vs = [n * (top // d) for n, d in values]
        else:
            ts, vs = [t for t, _ in pts], [v for _, v in pts]
            one = top = 1.0
        for (t, _), key in zip(pts, ts):
            if not (0 <= key <= one):
                raise GreyMapError(f"breakpoint position {t!r} outside [0, 1]")
        for (_, v), key in zip(pts, vs):
            if not (0 <= key <= top):
                raise GreyMapError(f"breakpoint value {v!r} outside [0, 1]")
        if ts[0] != 0 or ts[-1] != one:
            raise GreyMapError("breakpoints must start at t=0 and end at t=1")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise GreyMapError("breakpoint positions must be nondecreasing")
        if any(b < a for a, b in zip(vs, vs[1:])):
            raise GreyMapError("breakpoint values must be nondecreasing")
        for (t, _), a, c in zip(pts, ts, ts[2:]):
            if a == c:
                raise GreyMapError(f"more than two breakpoints share t={t}")
        # Both coordinates are nondecreasing, so equal breakpoints are
        # neighbours.
        keys = list(zip(ts, vs))
        kept = tuple(p for p, key, last in zip(pts, keys, [None, *keys]) if key != last)
        return rho if len(kept) == len(pts) else cls(breakpoints=kept)

    @classmethod
    def identity(cls, exact: bool = True) -> "GreyLevelMap":
        return cls.from_breakpoints([(0, 0), (1, 1)], exact=exact)

    @classmethod
    def linear_ramp(cls, top, exact: bool = True) -> "GreyLevelMap":
        """t -> top * t."""
        return cls.from_breakpoints([(0, 0), (1, top)], exact=exact)

    @property
    def exact(self) -> bool:
        return self._table is not None

    @property
    def value_at_zero(self) -> Scalar:
        return self(0)

    @property
    def value_at_one(self) -> Scalar:
        return self.breakpoints[-1][1]

    def to_float(self) -> "GreyLevelMap":
        return GreyLevelMap(breakpoints=tuple((float(t), float(v)) for t, v in self.breakpoints))

    def __call__(self, t: Scalar) -> Scalar:
        if self._table is not None and (type(t) is Fraction or type(t) is int):
            num, den = t.numerator, t.denominator
            if 0 <= num <= den:
                return Fraction(*self._ratio_at(num, den))
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

    def _ratio_at(self, num: int, den: int) -> Tuple[int, int]:
        """The value of an exact map at num / den in [0, 1] as a reduced
        integer ratio, found and interpolated on ints. The line stays between
        two values in [0, 1], so nothing is clamped."""
        scale, ts, values = self._table
        x = num * scale
        k = bisect.bisect_right(ts, x // den) - 1
        p, q = values[k]
        offset = x - ts[k] * den
        if not offset:
            return p, q
        # v_k + (v_k+1 - v_k) (t - t_k) / (t_k+1 - t_k), over q q' den width.
        (p2, q2), width = values[k + 1], ts[k + 1] - ts[k]
        top = p * q2 * den * width + (p2 * q - p * q2) * offset
        bottom = q * q2 * den * width
        g = math.gcd(top, bottom)
        return top // g, bottom // g

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
