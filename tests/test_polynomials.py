"""Exact multivariate polynomial arithmetic and parsing."""

import random

import pytest

from leibcoh.polynomials import Poly, format_poly, parse_poly
from leibcoh.scalars import ONE, Scalar, format_scalar, parse_scalar

PARAMS = ("t", "s", "u", "w")


def random_poly(rng, params=PARAMS, terms=5, degree=3):
    coeffs = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, degree) for _ in params)
        value = Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
        if value:
            coeffs[exps] = value
    return Poly(params, coeffs)


def random_point(rng, params=PARAMS):
    return {p: Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for p in params}


def test_ring_identities():
    rng = random.Random(4)
    for _ in range(25):
        f = random_poly(rng)
        g = random_poly(rng)
        h = random_poly(rng)
        assert (f + g) - g == f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + Poly(PARAMS) == f
        assert f * Poly.constant(PARAMS, 1) == f


def test_evaluation_is_a_ring_homomorphism():
    # Evaluation against plain Scalar arithmetic is the oracle for every
    # ring operation.
    rng = random.Random(5)
    for _ in range(25):
        f = random_poly(rng)
        g = random_poly(rng)
        point = random_point(rng)
        fv = f.evaluate(point)
        gv = g.evaluate(point)
        assert (f + g).evaluate(point) == fv + gv
        assert (f * g).evaluate(point) == fv * gv
        assert (-f).evaluate(point) == -fv
        assert (f ** 3).evaluate(point) == fv * fv * fv


def test_evaluated_powers_equal_repeated_products():
    # Evaluation raises each base by squaring; repeated products are the
    # oracle, at Gaussian points and for every exponent up to 6.
    rng = random.Random(6)
    t = Poly.variable(PARAMS, "t")
    s = Poly.variable(PARAMS, "s")
    for _ in range(10):
        point = random_point(rng)
        for n in range(7):
            for m in range(3):
                expected = ONE
                for _ in range(n):
                    expected = expected * point["t"]
                for _ in range(m):
                    expected = expected * point["s"]
                assert (t ** n * s ** m).evaluate(point) == expected


def test_hand_parsed_expressions():
    t = Poly.variable(PARAMS, "t")
    s = Poly.variable(PARAMS, "s")
    u = Poly.variable(PARAMS, "u")
    assert parse_poly("t+s", PARAMS) == t + s
    assert parse_poly("-t^2*s + 1/2*u", PARAMS) == -(t ** 2) * s + u * Scalar(1, 0) * Scalar("1/2")
    assert parse_poly("(t+s)*(t-s)", PARAMS) == t * t - s * s
    assert parse_poly("2", PARAMS) == Poly.constant(PARAMS, 2)
    assert parse_poly("i*t", PARAMS) == t * Scalar(0, 1)
    assert parse_poly("3/4", PARAMS) == Poly.constant(PARAMS, Scalar("3/4"))
    assert parse_poly("t*t*t", PARAMS) == t ** 3
    assert parse_poly("-(t+s)", PARAMS) == -(t + s)


def test_powers_equal_repeated_products():
    rng = random.Random(6)
    checked = 0
    for _ in range(12):
        f = random_poly(rng, terms=4, degree=2)
        if len(f.coeffs) < 2 or all(not v.im for v in f.coeffs.values()):
            continue
        checked += 1
        product = Poly.constant(PARAMS, 1)
        for n in range(7):
            assert f ** n == product, (format_poly(f), n)
            product = product * f
    assert checked >= 5


def test_a_huge_power_of_a_parameter_is_one_monomial():
    # By repeated squaring: 27 squarings of a monomial, not 99999999
    # products.
    params = ("lam", "mu")
    assert parse_poly("lam^99999999", params) == \
        Poly(params, {(99999999, 0): ONE})
    assert Poly.variable(params, "mu") ** (2 ** 70) == \
        Poly(params, {(0, 2 ** 70): ONE})


def test_scalar_literals_parse_as_in_concrete_documents():
    # A number immediately followed by i is one imaginary literal, as
    # parse_scalar reads it; "3/4-1/2i" is the README's example.
    rng = random.Random(7)
    texts = ["3/4-1/2i", "2i", "-1/2i", "i", "-i", "1+i"]
    for _ in range(20):
        text = format_scalar(Scalar(
            f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}",
            f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"))
        texts += [text, text.replace("*", "")]
    for text in texts:
        assert parse_poly(text, PARAMS) == \
            Poly.constant(PARAMS, parse_scalar(text)), text
    t = Poly.variable(PARAMS, "t")
    assert parse_poly("2i*t - 1/3i", PARAMS) == \
        t * Scalar(0, 2) - Poly.constant(PARAMS, Scalar(0, "1/3"))
    # The literal binds before ^, as a single number does.
    assert parse_poly("2i^2", PARAMS) == Poly.constant(PARAMS, -4)
    # Spaces around the / and before a trailing i, which parse_scalar
    # ignores, stay inside the one literal; a name before i does not.
    spaced = ["3 / 4", "2 i", "3/4 i", "1 /2 i", "3/ 4-1 / 2 i", "- 2 i"]
    for text in spaced:
        assert parse_poly(text, PARAMS) == \
            Poly.constant(PARAMS, parse_scalar(text)), text
    assert parse_poly("2 i*t - 1 / 3", PARAMS) == \
        t * Scalar(0, 2) - Poly.constant(PARAMS, Scalar("1/3"))
    for bad in ("t i", "t / 2", "2 i t", "2 it"):
        with pytest.raises(ValueError):
            parse_poly(bad, PARAMS)


def test_format_round_trip():
    rng = random.Random(6)
    for _ in range(30):
        f = random_poly(rng)
        assert parse_poly(format_poly(f), PARAMS) == f
    assert format_poly(Poly(PARAMS)) == "0"
    assert parse_poly("0", PARAMS) == Poly(PARAMS)


def test_format_examples():
    t = Poly.variable(PARAMS, "t")
    s = Poly.variable(PARAMS, "s")
    assert format_poly(t + s) == "s + t"
    assert format_poly(t * t - s) == "-s + t^2"
    assert format_poly(t * Scalar(0, 1)) == "i*t"
    assert format_poly(t * Scalar(1, 1)) == "(1+i)*t"
    assert format_poly(-t) == "-t"
    assert format_poly(t - ONE) == "-1 + t"


def test_evaluate_requires_all_parameters():
    f = parse_poly("t*s", PARAMS)
    with pytest.raises(ValueError):
        f.evaluate({"t": 1})
    assert f.evaluate({"t": 2, "s": 3, "u": 0, "w": 0}) == Scalar(6)


def test_parse_errors():
    for bad in ("t +", "(t", "t^-1", "t^s", "q", "t $ s", "", "t s", "2it",
                "t^2i"):
        with pytest.raises(ValueError):
            parse_poly(bad, PARAMS)
    with pytest.raises(ValueError):
        Poly.variable(PARAMS, "v")
    with pytest.raises(ValueError):
        Poly(("t", "t"), {})
    with pytest.raises(ValueError):
        Poly(("i",), {})
    with pytest.raises(ValueError):
        Poly(PARAMS, {(0, 1): ONE})
    p = Poly.variable(PARAMS, "t")
    with pytest.raises(ValueError):
        p + Poly.variable(("t", "s"), "s")
    with pytest.raises(ValueError):
        p ** -1
