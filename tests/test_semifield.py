import random
from fractions import Fraction

import pytest

from tropspan import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    ZERO,
    InversionOfZero,
    ValidationError,
)


def test_max_plus_add():
    assert MAX_PLUS.add(3, 5) == 5
    assert MAX_PLUS.add(ZERO, 7) == 7
    assert MAX_PLUS.add(4, 4) == 4


def test_max_plus_mul():
    assert MAX_PLUS.mul(3, 5) == 8
    assert MAX_PLUS.mul(ZERO, 5) is ZERO
    assert MAX_PLUS.mul(2, MAX_PLUS.one) == 2


def test_max_plus_inv():
    assert MAX_PLUS.inv(5) == -5
    assert MAX_PLUS.inv(MAX_PLUS.one) == MAX_PLUS.one
    assert MAX_PLUS.inv(-2) == 2
    with pytest.raises(InversionOfZero):
        MAX_PLUS.inv(ZERO)


def test_max_times_arithmetic_is_exact():
    assert MAX_TIMES.mul(Fraction(1, 2), 2) == 1
    assert MAX_TIMES.inv(2) == Fraction(1, 2)
    assert MAX_TIMES.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert MAX_TIMES.add(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 2)


def test_mul_returns_integral_values_as_int():
    # kernels store products unchecked, so mul itself must return the
    # normalized scalar that check_value would
    for sf, a, b in ((MAX_PLUS, Fraction(1, 2), Fraction(1, 2)),
                     (MIN_PLUS, Fraction(1, 2), Fraction(1, 2)),
                     (MAX_TIMES, Fraction(2, 3), Fraction(3, 2)),
                     (MIN_TIMES, Fraction(2, 3), Fraction(3, 2))):
        product = sf.mul(a, b)
        assert type(product) is int and product == 1
    assert MAX_PLUS.mul(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_max_times_domain_is_positive():
    with pytest.raises(ValidationError):
        MAX_TIMES.check_value(-1)
    with pytest.raises(ValidationError):
        MIN_TIMES.check_value(0)
    assert MAX_TIMES.check_value(Fraction(2, 1)) == 2


def test_order_consistency():
    # a <= b iff a (+) b = b, and ZERO sits below everything
    assert MAX_PLUS.le(2, 5) and MAX_PLUS.add(2, 5) == 5
    assert not MAX_PLUS.le(5, 2)
    assert MAX_PLUS.le(ZERO, -100)
    # min-plus order is the numeric order reversed
    assert MIN_PLUS.le(5, 2) and MIN_PLUS.add(5, 2) == 2
    assert not MIN_PLUS.le(2, 5)
    assert MIN_PLUS.le(ZERO, 100)


def test_antitone_inversion():
    rng = random.Random(7)
    for _ in range(200):
        a, b = sorted(rng.randint(-50, 50) for _ in range(2))
        assert MAX_PLUS.le(a, b)
        assert MAX_PLUS.le(MAX_PLUS.inv(b), MAX_PLUS.inv(a))


def _random_scalar(rng, sf):
    if rng.random() < 0.15:
        return ZERO
    if sf in (MAX_TIMES, MIN_TIMES):
        return Fraction(rng.randint(1, 40), rng.randint(1, 40))
    if rng.random() < 0.3:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return rng.randint(-20, 20)


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda s: s.name)
def test_axioms_randomized(sf):
    rng = random.Random(hash(sf.name) & 0xFFFF)
    for _ in range(2000):
        a, b, c = (_random_scalar(rng, sf) for _ in range(3))
        assert sf.add(sf.add(a, b), c) == sf.add(a, sf.add(b, c))
        assert sf.mul(sf.mul(a, b), c) == sf.mul(a, sf.mul(b, c))
        assert sf.add(a, b) == sf.add(b, a)
        assert sf.mul(a, b) == sf.mul(b, a)
        assert sf.mul(a, sf.add(b, c)) == sf.add(sf.mul(a, b), sf.mul(a, c))
        assert sf.add(a, a) == a
        assert sf.add(ZERO, a) == a
        assert sf.mul(ZERO, a) is ZERO
        assert sf.mul(sf.one, a) == a
        if a is not ZERO:
            assert sf.mul(a, sf.inv(a)) == sf.one
        # order consistency against addition
        assert sf.le(a, b) == (sf.add(a, b) == b)


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda s: s.name)
def test_finite_kernels_agree_with_add_and_mul(sf):
    # linalg's product loops store times(a, b), normalized, where better
    # says so: mul is the normalized times, and add keeps its first operand
    # unless better prefers the second, so a tie keeps the earlier term even
    # between an int and an integral Fraction
    rng = random.Random(17)
    pairs = [(2, Fraction(2, 1)), (Fraction(2, 1), 2), (3, 3)]
    while len(pairs) < 500:
        a, b = (_random_scalar(rng, sf) for _ in range(2))
        if a is not ZERO and b is not ZERO:
            pairs.append((a, b))
    for a, b in pairs:
        c = sf.times(a, b)
        norm = c.numerator if type(c) is Fraction and c.denominator == 1 else c
        got = sf.mul(a, b)
        assert (type(got), got) == (type(norm), norm)
        assert sf.add(a, b) is (b if sf.better(b, a) else a)
        assert not sf.better(a, a)


def test_formatting_tokens():
    assert MAX_PLUS.format_scalar(ZERO) == "-inf"
    assert MIN_PLUS.format_scalar(ZERO) == "+inf"
    assert MAX_PLUS.format_scalar(Fraction(1, 2)) == "1/2"
    assert MAX_PLUS.format_scalar(-3) == "-3"
