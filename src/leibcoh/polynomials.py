"""Sparse multivariate polynomials over the Gaussian rationals.

Just enough symbolic arithmetic to state structure constants that
depend on named parameters and to check identities between them
exactly: addition, multiplication, powers, evaluation, and a
canonical text form.  Monomials are exponent tuples over a fixed
parameter list; polynomials only combine when their parameter lists
agree, which keeps index meaning unambiguous.
"""

from __future__ import annotations

import re as _re

from .linalg import vec_add_at
from .scalars import ONE, Scalar, format_scalar, scalar

__all__ = ["Poly", "parse_poly", "format_poly"]


def _monomial_key(exps):
    return (sum(exps), exps)


def _power(base, e: int):
    """base ** e for e >= 1, a Scalar or a Poly, by squaring: at most
    2 log2(e) products."""
    if e == 1:
        return base
    half = _power(base, e >> 1)
    return half * half * base if e & 1 else half * half


class Poly:
    """A polynomial as a map from exponent tuples to nonzero Scalars."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params, coeffs=None):
        self.params = tuple(params)
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter names")
        if "i" in self.params:
            raise ValueError("'i' is the imaginary unit, not a parameter")
        self.coeffs = {}
        for exps, value in (coeffs or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.params) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            value = scalar(value)
            if value:
                self.coeffs[exps] = value

    @classmethod
    def constant(cls, params, value) -> "Poly":
        params = tuple(params)
        return cls(params, {(0,) * len(params): scalar(value)})

    @classmethod
    def variable(cls, params, name: str) -> "Poly":
        params = tuple(params)
        if name not in params:
            raise ValueError(f"unknown parameter {name!r}")
        exps = tuple(1 if p == name else 0 for p in params)
        return cls(params, {exps: ONE})

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.params != self.params:
                raise ValueError("parameter lists differ")
            return other
        return Poly.constant(self.params, other)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.params == other.params and self.coeffs == other.coeffs
        if isinstance(other, (int, Scalar)):
            return self == Poly.constant(self.params, other)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.coeffs)
        for exps, value in other.coeffs.items():
            vec_add_at(out, exps, value)
        return Poly(self.params, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.params, {e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        out = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                vec_add_at(out, exps, v1 * v2)
        return Poly(self.params, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be non-negative integers")
        return _power(self, n) if n else Poly.constant(self.params, 1)

    def evaluate(self, assignment) -> Scalar:
        """Exact value at a point; every parameter must be assigned."""
        missing = [p for p in self.params if p not in assignment]
        if missing:
            raise ValueError(f"missing parameters: {', '.join(missing)}")
        point = [scalar(assignment[p]) for p in self.params]
        total = Scalar(0)
        for exps, value in self.coeffs.items():
            term = value
            for base, e in zip(point, exps):
                if e:
                    term = term * _power(base, e)
            total = total + term
        return total

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.params!r}, {format_poly(self)!r})"


# A number written before a lone i is one literal: "1/2i" is i/2.  As in
# parse_scalar, spaces may stand around the / and before the i.
_NUMBER = _re.compile(r"[0-9]+(?:\s*/\s*[0-9]+)?(?:\s*i(?![A-Za-z_0-9]))?")
_NAME = _re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch))
            pos += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            tokens.append(("number", m.group()))
            pos = m.end()
            continue
        m = _NAME.match(text, pos)
        if m:
            tokens.append(("name", m.group()))
            pos = m.end()
            continue
        raise ValueError(f"bad character {ch!r} at position {pos} in {text!r}")
    return tokens


class _Parser:
    """Recursive descent over expr := term (+|- term)*,
    term := power (* power)*, power := atom [^ nat],
    atom := number | i | name | ( expr )."""

    def __init__(self, tokens, params):
        self.tokens = tokens
        self.pos = 0
        self.params = params

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        out = self.term() * Scalar(sign)
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            nxt = self.term()
            out = out + nxt if op == "+" else out - nxt
        return out

    def term(self) -> Poly:
        out = self.power()
        while self.peek() == "*":
            self.take()
            out = out * self.power()
        return out

    def power(self) -> Poly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, value = self.take() if self.pos < len(self.tokens) else (None, None)
        else:
            return base
        if kind != "number" or not value.isdigit():
            raise ValueError("exponent must be a plain non-negative integer")
        return base ** int(value)

    def atom(self) -> Poly:
        if self.peek() is None:
            raise ValueError("unexpected end of expression")
        kind, value = self.take()
        if kind == "number":
            return Poly.constant(self.params, scalar(value))
        if kind == "name":
            if value == "i":
                return Poly.constant(self.params, Scalar(0, 1))
            return Poly.variable(self.params, value)
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise ValueError("missing closing parenthesis")
            self.take()
            return inner
        raise ValueError(f"unexpected token {value!r}")


def parse_poly(text: str, params) -> Poly:
    """Parse an expression in +, -, *, ^, parentheses, rational and
    imaginary literals (``i``, ``2i``), and the declared parameters."""
    parser = _Parser(_tokenize(text), tuple(params))
    try:
        out = parser.expr()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if parser.pos != len(parser.tokens):
        leftover = parser.tokens[parser.pos][1]
        raise ValueError(f"unexpected token {leftover!r} after expression")
    return out


def format_poly(poly: Poly) -> str:
    """Canonical text form, monomials in degree-then-lexicographic
    order; parse_poly round-trips it."""
    if not poly.coeffs:
        return "0"
    parts = []
    for exps in sorted(poly.coeffs, key=_monomial_key):
        value = poly.coeffs[exps]
        factors = []
        for name, e in zip(poly.params, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        coeff = format_scalar(value)
        negated = format_scalar(-value)
        if not factors:
            body = f"({coeff})" if ("+" in coeff[1:] or "-" in coeff[1:]) else coeff
            parts.append(("+", body) if not body.startswith("-") else ("-", body[1:]))
            continue
        if value == ONE:
            parts.append(("+", "*".join(factors)))
        elif value == -ONE:
            parts.append(("-", "*".join(factors)))
        elif "+" in coeff[1:] or "-" in coeff[1:]:
            parts.append(("+", f"({coeff})*" + "*".join(factors)))
        elif coeff.startswith("-"):
            parts.append(("-", f"{negated}*" + "*".join(factors)))
        else:
            parts.append(("+", f"{coeff}*" + "*".join(factors)))
    sign, first = parts[0]
    text = first if sign == "+" else f"-{first}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
