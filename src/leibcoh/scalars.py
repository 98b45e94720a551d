"""Exact scalars: the Gaussian rationals Q(i).

Every rank decision in this library rides on these numbers, so they are
exact by construction.  The rational parts are gmpy2.mpq when gmpy2 is
importable (it is a dependency, and much faster) and fractions.Fraction
otherwise; both reduce to lowest terms automatically and hash identically,
so Scalar never normalizes anything itself.

Invariant: ``re`` and ``im`` are always instances of the backend rational
type.  The public ``Scalar(...)`` constructor coerces its arguments to
establish it (and refuses floats, which are not exact).  Arithmetic
results already are backend rationals, so they are built by the private
``_make``, which sets the slots without coercion; real results share the
one backend zero ``_QZERO`` as their imaginary part.  Equality, hashes
and ``format_scalar`` therefore cannot tell the two constructions apart.
"""

from __future__ import annotations

import re as _re

try:
    from gmpy2 import mpq as _Q
except ImportError:
    from fractions import Fraction as _Q

_QTYPE = type(_Q(0))
_QZERO = _Q(0)


def _to_q(value):
    """Coerce an int, rational, Decimal or numeric string to the backend
    rational.  Floats are refused: they are not exact."""
    if isinstance(value, (_QTYPE, int)):
        return _Q(value)
    if isinstance(value, str):
        return _Q(value.strip())
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; pass an int, a "
                        f"rational, a Decimal or a string")
    # Last resort: anything the backend itself accepts (e.g. Fraction
    # values when the backend is mpq, or Decimal values).
    return _Q(value)


class Scalar:
    """An immutable Gaussian rational ``re + im*i``.

    Supports mixed arithmetic with plain ints, which keeps call sites like
    ``2 * s`` and ``s / 4`` readable.  Treat instances as frozen; they are
    hashed and used as dict values throughout the sparse linear algebra.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _to_q(re)
        self.im = _to_q(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real Scalar equals its rational part, so it hashes like it
        # (and like an equal int, Fraction or mpq).
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return _make(-self.re, -self.im if self.im else _QZERO)

    def __pos__(self):
        return self

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return _make(self.re + other.re, _QZERO)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return _make(self.re - other.re, _QZERO)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # Structure constants are usually real, so the 1-multiply path
        # is worth having.
        if not self.im and not other.im:
            return _make(self.re * other.re, _QZERO)
        return _make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.im:
            im = self.im / other.re if self.im else _QZERO
            return _make(self.re / other.re, im)
        n = other.re * other.re + other.im * other.im
        return _make(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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


def _make(re, im):
    """Trusted constructor: re and im must already be backend rationals."""
    s = _new(Scalar)
    s.re = re
    s.im = im
    return s


def _coerce(value):
    if type(value) is Scalar or isinstance(value, Scalar):
        return value
    if isinstance(value, (int, _QTYPE)):
        return Scalar(value)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


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
    re_part = _Q(0)
    im_part = _Q(0)
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
            im_part += sign * _Q(num, den)
            continue
        m = _TERM.match(body)
        if m is not None:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) is not None else 1
            if den == 0:
                raise ValueError(f"zero denominator in scalar: {text!r}")
            re_part += sign * _Q(num, den)
            continue
        raise ValueError(f"cannot parse scalar term {term!r} in {text!r}")
    return Scalar(re_part, im_part)


def _qstr(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form; parse_scalar round-trips it."""
    if not s.im:
        return _qstr(s.re)
    if s.im == 1:
        itxt = "i"
    elif s.im == -1:
        itxt = "-i"
    elif s.im > 0:
        itxt = f"{_qstr(s.im)}*i"
    else:
        itxt = f"-{_qstr(-s.im)}*i"
    if not s.re:
        return itxt
    joiner = "" if itxt.startswith("-") else "+"
    return f"{_qstr(s.re)}{joiner}{itxt}"
