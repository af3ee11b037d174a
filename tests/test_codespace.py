import random
from fractions import Fraction

import pytest

from fuzzyifs.codespace import CodeMetric, compose_word, words_up_to
from fuzzyifs.dyadic import reference_system


def test_code_metric_validation():
    with pytest.raises(ValueError):
        CodeMetric(c=Fraction(1), depth=4)
    with pytest.raises(ValueError):
        CodeMetric(c=Fraction(1, 2), depth=0)


def test_equal_words_give_tail_only_interval():
    metric = CodeMetric(c=Fraction(1, 2), depth=6)
    w = (1, 2, 1, 2, 1, 2)
    lower, upper = metric.bounds(w, w)
    assert lower == 0
    assert upper == metric.tail() == Fraction(1, 2) ** 7 * 2


def test_all_positions_differ_sums_to_one():
    depth = 30
    metric = CodeMetric(c=Fraction(1, 2), depth=depth)
    a = tuple([1] * depth)
    b = tuple([2] * depth)
    lower, upper = metric.bounds(a, b)
    assert lower == 1 - Fraction(1, 2) ** depth
    assert upper == 1  # lower + tail closes the geometric series exactly


def test_single_mismatch_at_position_two():
    depth = 8
    metric = CodeMetric(c=Fraction(1, 2), depth=depth)
    a = (1, 1) + (2,) * (depth - 2)
    b = (1, 2) + (2,) * (depth - 2)
    lower, upper = metric.bounds(a, b)
    assert lower == Fraction(1, 4)
    assert upper == Fraction(1, 4) + metric.tail()


def test_length_mismatch_counts_as_difference():
    metric = CodeMetric(c=Fraction(1, 2), depth=4)
    lower, upper = metric.bounds((1, 1), (1,))
    # position 2 one-sided: 1/4; positions 3, 4 unknown on both sides
    assert lower == Fraction(1, 4)
    assert upper == Fraction(1, 4) + Fraction(1, 8) + Fraction(1, 16) + metric.tail()


def test_zero_base_collapses():
    metric = CodeMetric(c=Fraction(0), depth=3)
    assert metric.bounds((1, 2), (2, 1)) == (0, 0)


def test_metric_properties_on_truncations():
    rng = random.Random(9)
    metric = CodeMetric(c=Fraction(1, 3), depth=10)
    for _ in range(300):
        n = rng.randrange(metric.depth, metric.depth + 3)
        a = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        b = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        c = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        la, ua = metric.bounds(a, b)
        lb, ub = metric.bounds(b, a)
        assert (la, ua) == (lb, ub)  # symmetry
        assert metric.bounds(a, a)[0] == 0
        # triangle inequality within the interval slack
        lac, _ = metric.bounds(a, c)
        assert lac <= ua + metric.bounds(b, c)[1]


def test_shared_prefix_bound():
    metric = CodeMetric(c=Fraction(1, 2), depth=12)
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(0, 8)
        shared = tuple(rng.choice((1, 2)) for _ in range(n))
        a = shared + tuple(rng.choice((1, 2)) for _ in range(metric.depth))
        b = shared + tuple(rng.choice((1, 2)) for _ in range(metric.depth))
        _, upper = metric.bounds(a, b)
        assert upper <= Fraction(1, 2) ** (n + 1) / (1 - Fraction(1, 2))


def test_compose_word_identity_and_reference_maps():
    maps = reference_system().ifs.maps
    ident = compose_word(maps, ())
    p = (Fraction(1, 3), Fraction(5, 7))
    assert ident(p) == p

    f2 = compose_word(maps, (2,))
    x, y = Fraction(2, 5), Fraction(1, 3)
    assert f2((x, y)) == (x, y / 2 + Fraction(1, 2))

    f21 = compose_word(maps, (2, 1))  # first letter applied last
    assert f21((x, Fraction(0))) == (x, Fraction(1, 2))


def test_compose_word_concatenation():
    maps = reference_system().ifs.maps
    rng = random.Random(11)
    p = (Fraction(3, 7), Fraction(1, 9))
    for _ in range(50):
        w1 = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(0, 5)))
        w2 = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(0, 5)))
        combined = compose_word(maps, w1 + w2)
        split = compose_word(maps, w1).compose(compose_word(maps, w2))
        assert combined(p) == split(p)
        assert combined.linear == split.linear and combined.offset == split.offset


def test_compose_word_rejects_bad_letters():
    maps = reference_system().ifs.maps
    with pytest.raises(ValueError):
        compose_word(maps, (3,))
    with pytest.raises(ValueError):
        compose_word(maps, (0,))


def test_words_up_to_counts():
    assert sum(1 for _ in words_up_to(2, 3)) == 1 + 2 + 4 + 8
