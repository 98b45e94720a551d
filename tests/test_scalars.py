import random
from decimal import Decimal
from fractions import Fraction

import pytest

from leibcoh.scalars import ONE, ZERO, Scalar, format_scalar, parse_scalar, scalar
from tests.conftest import I


def random_scalar(rng, nonzero=False):
    while True:
        num_re = rng.randrange(-9, 10)
        num_im = rng.randrange(-9, 10)
        den_re = rng.randrange(1, 7)
        den_im = rng.randrange(1, 7)
        s = Scalar(f"{num_re}/{den_re}", f"{num_im}/{den_im}")
        if not nonzero or s:
            return s


def test_i_squared_is_minus_one():
    assert I * I == Scalar(-1)
    assert I * I * I * I == ONE


def test_hand_products():
    # (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
    assert Scalar(1, 2) * Scalar(3, -1) == Scalar(5, 5)
    # (2+i)/(1-i) = (2+i)(1+i)/2 = (1+3i)/2
    assert Scalar(2, 1) / Scalar(1, -1) == Scalar("1/2", "3/2")


def test_field_axioms_random():
    rng = random.Random(20260819)
    for _ in range(200):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        d = random_scalar(rng, nonzero=True)
        assert d * (ONE / d) == ONE
        assert (a / d) * d == a


def test_int_interop():
    s = Scalar(1, 1)
    assert 2 * s == Scalar(2, 2)
    assert s * 2 == Scalar(2, 2)
    assert s + 1 == Scalar(2, 1)
    assert 1 - s == Scalar(0, -1)
    assert s / 2 == Scalar("1/2", "1/2")
    assert 2 / Scalar(1, 1) == Scalar(1, -1)
    assert Scalar(3) == 3
    assert s != 1


def test_format_canonical():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(Scalar(-3)) == "-3"
    assert format_scalar(Scalar("1/2")) == "1/2"
    assert format_scalar(I) == "i"
    assert format_scalar(-I) == "-i"
    assert format_scalar(Scalar(0, "3/4")) == "3/4*i"
    assert format_scalar(Scalar(0, -2)) == "-2*i"
    assert format_scalar(Scalar(1, 1)) == "1+i"
    assert format_scalar(Scalar(1, -1)) == "1-i"
    assert format_scalar(Scalar("-1/2", "-3/5")) == "-1/2-3/5*i"


def test_parse_variants():
    assert parse_scalar("3") == Scalar(3)
    assert parse_scalar(" -1/2 ") == Scalar("-1/2")
    assert parse_scalar("i") == I
    assert parse_scalar("+i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("2i") == Scalar(0, 2)
    assert parse_scalar("2*i") == Scalar(0, 2)
    assert parse_scalar("1/2 - 3/4*i") == Scalar("1/2", "-3/4")
    assert parse_scalar("-3/4*i + 1/2") == Scalar("1/2", "-3/4")
    assert parse_scalar("1+1+i") == Scalar(2, 1)


def test_parse_format_roundtrip():
    rng = random.Random(99)
    for _ in range(200):
        s = random_scalar(rng)
        assert parse_scalar(format_scalar(s)) == s


def test_parse_errors():
    for bad in ["", "   ", "1/0", "i/0", "1//2", "abc", "1++2", "*i", "2**i", "1.5"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_scalar_coercion():
    assert scalar(3) == Scalar(3)
    assert scalar("1+i") == Scalar(1, 1)
    s = Scalar(2, 3)
    assert scalar(s) is s


def test_floats_are_refused():
    for make in (Scalar, scalar, lambda x: Scalar(1, x)):
        with pytest.raises(TypeError, match="0.1"):
            make(0.1)
    with pytest.raises(TypeError):
        Scalar(1) + 0.5
    with pytest.raises(TypeError):
        0.5 * Scalar(1)


def test_exact_inputs_are_accepted():
    tenth = Scalar("1/10")
    assert Scalar(Fraction(1, 10)) == tenth
    assert Scalar(Decimal("0.1")) == tenth
    assert Scalar("0.1") == tenth
    assert scalar(Fraction(1, 10)) == tenth


def test_hash_consistency():
    assert hash(Scalar(2, 0)) == hash(Scalar("4/2"))
    d = {Scalar(1, 1): "a"}
    assert d[Scalar("2/2", "3/3")] == "a"


@pytest.mark.parametrize("value", [0, 1, -3, 2 ** 70, Fraction(1, 2),
                                   Fraction(-7, 3), Fraction(6, 3)])
def test_real_scalars_hash_like_the_rationals_they_equal(value):
    s = Scalar(value)
    assert hash(s) == hash(value)
    if s == value:
        assert len({s, value}) == 1
    assert len({ONE, 1}) == 1


@pytest.mark.parametrize("n", [0, 1, -1, -2, 7, -(2 ** 61), 2 ** 61 - 1,
                               2 ** 80, -(2 ** 80)])
def test_integral_scalars_hash_as_the_int_and_the_fraction(n):
    # The integral fast path must agree with the Fraction path, -1
    # included, whose int hash is -2.
    s = Scalar(n)
    assert (s.b, s.d) == (0, 1)
    assert hash(s) == hash(n) == hash(Fraction(n))
    assert hash(-s) == hash(-n) == hash(Fraction(-n))


def test_non_real_scalars_keep_a_hash_of_both_parts():
    s = Scalar(1, 2)
    assert hash(s) == hash(parse_scalar("1+2*i"))
    assert len({s, parse_scalar("1+2i"), 1}) == 2
    assert s != 1 and hash(Scalar(0, 1)) == hash(I)
