import math
from fractions import Fraction

import pytest

from fuzzyifs.numeric import Radical, exact_root, format_scalar, le_sum, parse_scalar, sqrt_exact


def test_sqrt_exact_rational_roots():
    assert sqrt_exact(Fraction(4)) == Fraction(2)
    assert sqrt_exact(Fraction(9, 16)) == Fraction(3, 4)
    assert sqrt_exact(0) == 0
    assert isinstance(sqrt_exact(Fraction(1, 4)), Fraction)


def test_sqrt_exact_irrational_roots():
    r = sqrt_exact(Fraction(2))
    assert isinstance(r, Radical)
    assert r.square == 2
    assert float(r) == pytest.approx(2 ** 0.5)


def test_radical_float_of_a_square_past_float_range():
    """The root of a square that no float holds, when the root fits."""
    assert float(Radical(Fraction(10 ** 320) + 1)) == 1e160
    assert float(Radical(Fraction(2 * 10 ** 320, 3))) == pytest.approx(1e160 * (2 / 3) ** 0.5,
                                                                rel=1e-15)
    with pytest.raises(OverflowError):
        float(Radical(Fraction(10 ** 800) + 1))


def test_radical_float_of_a_square_below_float_range():
    """The root of a square too small for a float, when the root is normal."""
    assert float(sqrt_exact(Fraction(2, 10 ** 400))) == pytest.approx(2 ** 0.5 * 1e-200, rel=1e-15,
                                                                      abs=0)


def test_radical_comparisons_are_exact():
    r2 = sqrt_exact(Fraction(2))
    r3 = sqrt_exact(Fraction(3))
    assert r2 < r3
    assert r3 > r2
    assert r2 != r3
    assert r2 < Fraction(3, 2)
    assert r2 > Fraction(7, 5)
    assert Fraction(7, 5) < r2  # reflected comparison
    assert max(Fraction(1), r2, Fraction(1, 2)) == r2
    assert r2 > -1  # nonnegative beats any negative rational


def test_radical_comparisons_with_floats_are_exact():
    """A finite float is a rational, so the comparison is exact: the float
    nearest a root lies on one side of it."""
    assert not Radical(3) <= 1.7320508075688772
    assert Radical(3) > 1.7320508075688772
    assert Radical(2) != math.sqrt(2.0)
    assert Radical(2) < math.sqrt(2.0)
    assert Radical(4) == 2.0 and Radical(Fraction(1, 4)) <= 0.5
    assert Radical(2) > -1.5
    assert Radical(10 ** 800) < math.inf and Radical(2) > -math.inf
    assert not (Radical(2) <= math.nan or Radical(2) >= math.nan or Radical(2) == math.nan)


def test_radical_of_a_rational_square_hashes_like_its_root():
    """Equal numbers hash alike: a Radical built from a rational square
    equals its root, so a set holds one of them."""
    assert len({Radical(4), Fraction(2), 2.0}) == 1
    assert hash(Radical(Fraction(9, 4))) == hash(Fraction(3, 2))
    assert hash(Radical(10 ** 800)) == hash(10 ** 400)
    assert Radical(2) in {sqrt_exact(Fraction(2))} and Radical(2) not in {Fraction(2)}


def test_exact_root_is_sqrt_exact_of_the_quotient():
    """sqrt(square) / den, in value and type: a Fraction for a perfect
    square, else the Radical of square / den^2 on least terms."""
    for square in (0, 1, 2, 4, 12, 36, 10 ** 40 + 1, (3 ** 50) ** 2):
        for den in (1, 2, 6, 3 ** 40):
            root, reference = exact_root(square, den), sqrt_exact(Fraction(square, den * den))
            assert type(root) is type(reference) and root == reference
            assert repr(root) == repr(reference) and hash(root) == hash(reference)


def test_radical_arithmetic():
    r2 = sqrt_exact(Fraction(2))
    with pytest.raises(TypeError):
        r2 + r2  # sums leave the representation on purpose


def test_le_sum_triangle_comparisons():
    r2 = sqrt_exact(Fraction(2))
    # sqrt(2) <= 1 + 1 but not <= 1/2 + 1/2
    assert le_sum(r2, Fraction(1), Fraction(1))
    assert not le_sum(r2, Fraction(1, 2), Fraction(1, 2))
    # 2 <= sqrt(2) + sqrt(2) (equality after squaring twice)
    assert le_sum(Fraction(2), r2, r2)
    assert le_sum(sqrt_exact(Fraction(5)), sqrt_exact(Fraction(2)), sqrt_exact(Fraction(3)))


def test_parse_scalar_modes():
    assert parse_scalar("3/4", True) == Fraction(3, 4)
    assert parse_scalar("0.1", True) == Fraction(1, 10)
    assert parse_scalar(3, True) == Fraction(3)
    assert parse_scalar("3/4", False) == 0.75
    assert parse_scalar(0.5, False) == 0.5
    with pytest.raises(ValueError):
        parse_scalar(True, True)
    with pytest.raises(ValueError):
        parse_scalar("not a number", True)


def test_format_scalar():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(2)) == "2"
    assert format_scalar(0.1) == "0.10000000000000001"
