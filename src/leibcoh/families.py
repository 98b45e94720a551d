"""Algebra families with structure constants polynomial in parameters.

A ParamAlgebra is the symbolic counterpart of AlgebraSpec: brackets
valued in sparse polynomials instead of scalars.  The point is to check
the Jacobi or right Leibniz identity as a polynomial identity, i.e. for
every parameter value at once, and to specialize exactly at chosen
points.  The built-in family catalog covers the deformation families of
the diamond algebra and of the five-dimensional quadratic nilpotent
algebra from the main catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebras import (AlgebraSpec, checked_basis_names, leibniz_defect,
                       skew_residue)
from .polynomials import Poly, parse_poly
from .scalars import format_scalar, scalar

__all__ = [
    "ParamAlgebra",
    "DefectTerm",
    "leibniz_defect_sym",
    "jacobi_defect",
    "specialize",
    "family_catalog",
    "family_names",
]


class ParamAlgebra:
    """Parameterized structure constants: table[(i, j)] = {k: Poly}."""

    __slots__ = ("dim", "params", "table", "kind", "name", "basis_names", "notes")

    def __init__(self, dim, params, brackets, kind="lie", name="",
                 basis_names=None, notes=()):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.basis_names = tuple(checked_basis_names(dim, kind, basis_names))
        self.dim = dim
        self.params = tuple(params)
        self.kind = kind
        self.name = name
        self.notes = tuple(notes)
        self.table = {}
        for (i, j), value in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i}, {j}) out of range")
            cell = {}
            for k, poly in value.items():
                if not 0 <= k < dim:
                    raise ValueError(f"component index {k} out of range")
                poly = self._as_poly(poly)
                if poly:
                    cell[k] = poly
            if cell:
                self.table[(i, j)] = cell

    def _as_poly(self, value) -> Poly:
        if isinstance(value, Poly):
            if value.params != self.params:
                raise ValueError("parameter lists differ")
            return value
        if isinstance(value, str):
            return parse_poly(value, self.params)
        return Poly.constant(self.params, value)

    def bracket(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})


@dataclass
class DefectTerm:
    """One nonzero component of a failed identity."""

    law: str          # "skew" or "identity"
    where: tuple      # (i, j) or (x, y, z)
    component: int
    poly: Poly


def leibniz_defect_sym(pa: ParamAlgebra) -> list:
    """Nonzero components of [[x,y],z] - [[x,z],y] - [x,[y,z]] over all
    basis triples, as polynomials; empty means the right Leibniz
    identity holds for every parameter value."""
    return [DefectTerm("identity", (x, y, z), k, poly)
            for x, y, z in product(range(pa.dim), repeat=3)
            for k, poly in sorted(leibniz_defect(pa.bracket, x, y, z).items())]


def jacobi_defect(pa: ParamAlgebra) -> list:
    """Antisymmetry residues plus identity defects; empty exactly when
    the table is a Lie algebra for every parameter value."""
    return [DefectTerm("skew", (i, j), k, poly)
            for i in range(pa.dim) for j in range(i, pa.dim)
            for k, poly in sorted(skew_residue(pa.bracket, i, j).items())
            ] + leibniz_defect_sym(pa)


def specialize(pa: ParamAlgebra, assignment) -> AlgebraSpec:
    """Exact evaluation of every structure constant at a point."""
    missing = [p for p in pa.params if p not in assignment]
    if missing:
        raise ValueError(f"missing parameters: {', '.join(missing)}")
    point = {p: scalar(assignment[p]) for p in pa.params}
    brackets = {}
    for (i, j), cell in pa.table.items():
        value = {}
        for k, poly in cell.items():
            v = poly.evaluate(point)
            if v:
                value[k] = v
        if value:
            brackets[(i, j)] = value
    where = ",".join(f"{p}={format_scalar(point[p])}" for p in pa.params)
    name = f"{pa.name}({where})" if pa.name else where
    return AlgebraSpec(pa.dim, brackets, kind=pa.kind, name=name,
                       basis_names=pa.basis_names)


def _skew(dim, params, pairs, **kwargs) -> ParamAlgebra:
    """Build with both orientations filled in from one-sided data."""
    pa = ParamAlgebra(dim, params, pairs, **kwargs)
    table = {}
    for (i, j), cell in pa.table.items():
        table[(i, j)] = cell
        table[(j, i)] = {k: -poly for k, poly in cell.items()}
    pa.table = table
    return pa


def _diamond_family() -> ParamAlgebra:
    return _skew(4, ("lam", "mu"), {
        (1, 2): {0: "1"},
        (1, 3): {1: "lam"},
        (2, 3): {1: "1", 2: "mu"},
        (0, 3): {0: "lam+mu"},
    }, name="diamond_family", basis_names=("e1", "e2", "e3", "e4"))


def _diamond_sl2_line() -> ParamAlgebra:
    return _skew(4, ("t",), {
        (1, 2): {0: "1", 3: "t"},
        (1, 3): {1: "1"},
        (2, 3): {1: "1", 2: "-1"},
    }, name="diamond_sl2_line", basis_names=("e1", "e2", "e3", "e4"))


def _diamond_leibniz_line() -> ParamAlgebra:
    pa = _skew(4, ("t",), {
        (1, 2): {0: "1"},
        (1, 3): {1: "1"},
        (2, 3): {1: "1", 2: "-1"},
    }, kind="leibniz", name="diamond_leibniz_line",
        basis_names=("e1", "e2", "e3", "e4"))
    pa.table[(3, 3)] = {0: parse_poly("t", pa.params)}
    return pa


def _g54_family1() -> ParamAlgebra:
    return _skew(5, ("p", "q", "r"), {
        (2, 3): {1: "1"},
        (0, 4): {0: "r"},
        (1, 4): {1: "p+q"},
        (2, 4): {2: "p", 0: "1"},
        (3, 4): {2: "1", 3: "q"},
    }, name="g54_family1", notes=(
        "specializing every parameter to zero gives a table isomorphic to "
        "g54 but written in another basis; the zero-parameter bracket "
        "[x3,x4] = x2 is kept as is rather than rewritten",
    ))


def _g54_family2() -> ParamAlgebra:
    return _skew(5, (), {
        (2, 3): {3: "2"},
        (2, 4): {4: "-2"},
        (3, 4): {2: "1"},
        (0, 1): {0: "1"},
    }, name="g54_family2")


def _g54_family3() -> ParamAlgebra:
    return _skew(5, (), {
        (2, 3): {3: "2"},
        (2, 4): {4: "-2"},
        (3, 4): {2: "1"},
        (0, 2): {0: "1"},
        (1, 4): {0: "1"},
        (1, 2): {1: "-1"},
        (0, 3): {1: "1"},
    }, name="g54_family3")


def _g54_family4() -> ParamAlgebra:
    # The (x2, x4) coefficient must be -q: with +q the Jacobi identity
    # fails identically, with defect -2q x1 at (x3, x4, x5) and
    # -2pq x1 at (x2, x4, x5), and no other single coefficient flip
    # repairs it.
    return _skew(5, ("p", "q"), {
        (1, 4): {0: "1", 1: "p"},
        (2, 4): {1: "1", 2: "q"},
        (3, 4): {2: "1", 3: "p+q"},
        (0, 4): {0: "p+q"},
        (1, 2): {0: "p*q"},
        (1, 3): {0: "-q"},
        (2, 3): {0: "1"},
    }, name="g54_family4")


def _g54_family5() -> ParamAlgebra:
    return _skew(5, ("p", "q"), {
        (2, 3): {1: "1"},
        (1, 4): {1: "p+q"},
        (2, 4): {0: "1", 2: "p"},
        (3, 4): {2: "1", 3: "q"},
        (0, 4): {0: "q+2*p"},
        (1, 2): {0: "p-q"},
        (1, 3): {0: "1"},
    }, name="g54_family5")


_FAMILIES = {
    "diamond_family": _diamond_family,
    "diamond_sl2_line": _diamond_sl2_line,
    "diamond_leibniz_line": _diamond_leibniz_line,
    "g54_family1": _g54_family1,
    "g54_family2": _g54_family2,
    "g54_family3": _g54_family3,
    "g54_family4": _g54_family4,
    "g54_family5": _g54_family5,
}


def family_names():
    return sorted(_FAMILIES)


def family_catalog(name: str) -> ParamAlgebra:
    """Construct a built-in parameterized family by name."""
    if name not in _FAMILIES:
        options = ", ".join(family_names())
        raise KeyError(f"unknown family {name!r}; options: {options}")
    return _FAMILIES[name]()
