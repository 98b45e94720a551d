"""Exact scalars: the Gaussian rationals Q(i).

Every rank decision in this library rides on these numbers, so they are
exact by construction.  A Scalar is three Python ints ``(a, b, d)``
meaning ``(a + b*i)/d``, always in canonical form: d > 0 and
gcd(a, b, d) = 1, so zero is (0, 0, 1) and two Scalars are equal exactly
when their triples are.  Each arithmetic operation works on the ints in
its own frame, with at most one ``math.gcd`` of the result and no
intermediate rational object.  The package needs nothing outside the
standard library.

The public ``Scalar(re, im)`` constructor coerces its arguments (and
refuses floats, which are not exact); ``re`` and ``im`` read the two
parts back as ``fractions.Fraction``.  Arithmetic results are canonical
by construction, so they are built with ``object.__new__`` and their
slots set directly, inline in each operation.  Equality, hashes and
``format_scalar`` therefore cannot tell the two constructions apart.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm


def _to_q(value) -> Fraction:
    """Coerce an int, Fraction, Decimal or numeric string to a Fraction.
    Floats are refused: they are not exact."""
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; pass an int, a "
                        f"rational, a Decimal or a string")
    return Fraction(value)


class Scalar:
    """An immutable Gaussian rational ``(a + b*i)/d``.

    ``a``, ``b`` and ``d`` are the canonical triple (see the module
    docstring); ``re`` and ``im`` are the parts as Fractions.  Supports
    mixed arithmetic with ints and Fractions, which keeps call sites like
    ``2 * s`` and ``s / 4`` readable.  Treat instances as frozen; they
    are hashed and used as dict values throughout the sparse linear
    algebra.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = _to_q(re)
        im = _to_q(im)
        # Both parts are in lowest terms, so no prime dividing the common
        # denominator divides both numerators: the triple is canonical.
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # A real Scalar equals its rational part, so it hashes like it
        # (and like an equal int or Fraction).
        if self.b:
            return hash((self.re, self.im))
        return hash(self.re)

    def __neg__(self):
        s = _new(Scalar)
        s.a = -self.a
        s.b = -self.b
        s.d = self.d
        return s

    def __pos__(self):
        return self

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d = self.d
        f = other.d
        if d == f:
            a = self.a + other.a
            b = self.b + other.b
        else:
            a = self.a * f + other.a * d
            b = self.b * f + other.b * d
            d *= f
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        s = _new(Scalar)
        s.a = a
        s.b = b
        s.d = d
        return s

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d = self.d
        f = other.d
        if d == f:
            a = self.a - other.a
            b = self.b - other.b
        else:
            a = self.a * f - other.a * d
            b = self.b * f - other.b * d
            d *= f
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        s = _new(Scalar)
        s.a = a
        s.b = b
        s.d = d
        return s

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a = self.a
        b = self.b
        c = other.a
        e = other.b
        # Structure constants are usually real, so the 2-multiply path is
        # worth having.
        if e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
            b *= c
        d = self.d * other.d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        s = _new(Scalar)
        s.a = a
        s.b = b
        s.d = d
        return s

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        c = other.a
        e = other.b
        # (a + b*i)/d divided by (c + e*i)/f is
        # (a + b*i)(c - e*i)*f / (d*(c*c + e*e)).
        if e:
            a = self.a
            b = self.b
            f = other.d
            a, b = (a * c + b * e) * f, (b * c - a * e) * f
            d = self.d * (c * c + e * e)
        elif c:
            f = other.d if c > 0 else -other.d
            a = self.a * f
            b = self.b * f
            d = self.d * (c if c > 0 else -c)
        else:
            raise ZeroDivisionError("Scalar division by zero")
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
        s = _new(Scalar)
        s.a = a
        s.b = b
        s.d = d
        return s

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


_new = object.__new__


def _make(a, b, d):
    """Trusted constructor: (a, b, d) must already be canonical."""
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _coerce(value):
    """value as a Scalar, or None when it is not a Scalar, int or Fraction."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)


def scalar(value) -> Scalar:
    """Coerce ints, rationals, strings, or Scalars to a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    return Scalar(value)


_TERM = _re.compile(r"^([0-9]+)(?:/([0-9]+))?$")
_ITERM = _re.compile(r"^(?:([0-9]+)(?:/([0-9]+))?\*?)?i$")


def parse_scalar(text: str) -> Scalar:
    """Parse a Gaussian rational from text.

    Accepted forms are sums of signed terms, each either rational
    (``3``, ``-1/2``) or imaginary (``i``, ``-i``, ``2*i``, ``1/2*i``;
    the ``*`` may be omitted).  Whitespace is ignored.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty scalar")
    # Split into signed terms: a sign at position 0 binds to the first
    # term, later signs separate terms.
    terms = []
    start = 0
    for pos in range(1, len(compact)):
        if compact[pos] in "+-":
            terms.append(compact[start:pos])
            start = pos
    terms.append(compact[start:])
    re_part = Fraction(0)
    im_part = Fraction(0)
    for term in terms:
        sign = 1
        body = term
        if body and body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _ITERM.match(body)
        if m is not None:
            num = int(m.group(1)) if m.group(1) is not None else 1
            den = int(m.group(2)) if m.group(2) is not None else 1
            if den == 0:
                raise ValueError(f"zero denominator in scalar: {text!r}")
            im_part += sign * Fraction(num, den)
            continue
        m = _TERM.match(body)
        if m is not None:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) is not None else 1
            if den == 0:
                raise ValueError(f"zero denominator in scalar: {text!r}")
            re_part += sign * Fraction(num, den)
            continue
        raise ValueError(f"cannot parse scalar term {term!r} in {text!r}")
    return Scalar(re_part, im_part)


def _qstr(n: int, d: int) -> str:
    """n/d in lowest terms; d > 0."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    if d == 1:
        return str(n)
    return f"{n}/{d}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form; parse_scalar round-trips it."""
    a = s.a
    b = s.b
    d = s.d
    if not b:
        return str(a) if d == 1 else _qstr(a, d)
    if b == d:
        itxt = "i"
    elif b == -d:
        itxt = "-i"
    elif b > 0:
        itxt = f"{_qstr(b, d)}*i"
    else:
        itxt = f"-{_qstr(-b, d)}*i"
    if not a:
        return itxt
    joiner = "" if b < 0 else "+"
    return f"{_qstr(a, d)}{joiner}{itxt}"
