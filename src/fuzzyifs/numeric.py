"""Scalar arithmetic shared by the two numeric modes.

Exact mode keeps every coordinate and grey level as a `fractions.Fraction`.
Float mode uses plain 64-bit floats with absolute tolerances.

Distances between exact points are square roots of rationals and are
irrational in general, so `sqrt_exact` returns a plain Fraction whenever the
root is rational and otherwise a `Radical`: an exact square root of a
rational that still compares exactly against rationals and other radicals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

# Float-mode points are snapped to a fixed 1e-12 grid (`geometry.grid_key`),
# which stays below every tolerance used in tests.
DEDUP_DECIMALS = 12

# Default absolute tolerance for float-mode assertions and comparisons.
DEFAULT_TOL = 1e-9

Scalar = Union[Fraction, float]


def is_exact(value) -> bool:
    """True for scalars belonging to the exact mode (ints count as exact)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def parse_scalar(value, exact: bool) -> Scalar:
    """Convert a scene-file number (int, float, "a/b" or decimal string).

    In exact mode strings parse as exact rationals, so "0.1" means 1/10;
    floats are converted through their exact binary expansion.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, (int, float, Fraction)):
        raise ValueError(f"cannot parse scalar {value!r}")
    if exact:
        return Fraction(value)
    return float(value)


def format_scalar(value) -> str:
    """Render a scalar for CSV output: rationals exactly, floats at 17 digits."""
    if isinstance(value, Fraction) or isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _exact_square(value) -> Fraction:
    """Square of a nonnegative exact value (Fraction, int or Radical)."""
    if isinstance(value, Radical):
        return value.square
    if is_exact(value):
        if value < 0:
            raise ValueError(f"negative distance value {value!r}")
        return Fraction(value) ** 2
    raise TypeError(f"not an exact value: {value!r}")


class Radical:
    """Exact square root of a nonnegative rational.

    Construct through `sqrt_exact` or `exact_root`, which return a plain
    Fraction when the root is rational, or directly; a Radical of a rational
    square equals its root and hashes like it. Comparisons against
    rationals and other radicals are exact (performed on squares, as
    ints). There is no arithmetic: sums leave the representation, and
    products and quotients are taken on `square` by the caller; `le_sum`
    covers the triangle-inequality checks the tests need.
    """

    __slots__ = ("square",)

    def __init__(self, square):
        square = Fraction(square)
        if square < 0:
            raise ValueError("negative radicand")
        self.square = square

    def __float__(self):
        # The root of square / 4^k, near 1, times 2^k, so that a square
        # above or below float range gives its root when the root is a
        # float. Scaling by 4^k is exact and int division rounds correctly,
        # so for a normal float(square) this is sqrt(float(square)).
        num, den = self.square.numerator, self.square.denominator
        k = (num.bit_length() - den.bit_length()) // 2
        near_one = num / (den << 2 * k) if k >= 0 else (num << -2 * k) / den
        return math.ldexp(math.sqrt(near_one), k)

    def __repr__(self):
        return f"sqrt({self.square})"

    def __hash__(self):
        # A Radical equal to a rational hashes like it, as Fraction does.
        root = sqrt_exact(self.square)
        return hash(root if type(root) is Fraction else ("Radical", self.square))

    def __bool__(self):
        return bool(self.square)

    def _compare(self, other):
        """Return (self_key, other_key) comparable exactly, or None: the
        squares as ints over one denominator, for square = n/d and a
        rational other = a/b >= 0 the ints n b^2 and a^2 d."""
        num, den = self.square.numerator, self.square.denominator
        if isinstance(other, Radical):
            return num * other.square.denominator, other.square.numerator * den
        if isinstance(other, float):
            if not math.isfinite(other):
                # Any finite value orders as self does against inf, -inf
                # and NaN.
                return 0.0, other
            other = Fraction(other)
        elif not is_exact(other):
            return None
        if other.numerator < 0:
            return 1, 0  # self >= 0 > other
        return num * other.denominator ** 2, other.numerator ** 2 * den

    def __eq__(self, other):
        keys = self._compare(other)
        if keys is None:
            return NotImplemented
        return keys[0] == keys[1]

    def __lt__(self, other):
        keys = self._compare(other)
        if keys is None:
            return NotImplemented
        return keys[0] < keys[1]

    def __le__(self, other):
        keys = self._compare(other)
        if keys is None:
            return NotImplemented
        return keys[0] <= keys[1]

    def __gt__(self, other):
        keys = self._compare(other)
        if keys is None:
            return NotImplemented
        return keys[0] > keys[1]

    def __ge__(self, other):
        keys = self._compare(other)
        if keys is None:
            return NotImplemented
        return keys[0] >= keys[1]


def sqrt_exact(value) -> Union[Fraction, Radical]:
    """Exact square root of a nonnegative rational n/d on least terms: that
    of n d over d (`exact_root`), a Fraction when n and d are squares."""
    q = Fraction(value)
    if q < 0:
        raise ValueError("negative radicand")
    return exact_root(q.numerator * q.denominator, q.denominator)


def exact_root(square: int, den: int) -> Union[Fraction, Radical]:
    """sqrt(square) / den for ints square >= 0 and den > 0: Fraction(r, den)
    when square is r^2, else the Radical of square / den^2 without the checks
    of `Radical.__init__`, since the root of a non-square int is irrational."""
    root = math.isqrt(square)
    if root * root == square:
        return Fraction(root, den)
    radical = object.__new__(Radical)
    radical.square = Fraction(square, den * den)
    return radical


def le_sum(a, b, c) -> bool:
    """Exact test of a <= b + c for nonnegative exact distance values.

    Works for any mix of Fraction and Radical by comparing on squares:
    sqrt(sa) <= sqrt(sb) + sqrt(sc) iff sa - sb - sc <= 2*sqrt(sb*sc).
    """
    sa, sb, sc = _exact_square(a), _exact_square(b), _exact_square(c)
    t = sa - sb - sc
    if t <= 0:
        return True
    return t * t <= 4 * sb * sc
