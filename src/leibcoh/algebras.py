"""Algebra specifications, structural validation, and the built-in catalog.

An AlgebraSpec is a dimension plus the structure-constant tensor of a
bilinear bracket, [e_i, e_j] = sum_k c_ijk e_k, together with the kind it
claims to be (lie or leibniz).  Claims are validated, never assumed: the
same code path handles antisymmetric and genuinely one-sided brackets.
The convention throughout is the right Leibniz identity
[[x,y],z] = [[x,z],y] + [x,[y,z]], whose antisymmetric case is Jacobi.
It and antisymmetry are each written once, in `leibniz_defect` and
`skew_residue`, over a bracket accessor that serves the Scalar tables
here and the Poly tables of `families` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import (LinalgError, Matrix, Solver, Subspace, kernel,
                     vec_add_at, vec_add_scaled, vec_combine)
from .scalars import ONE, ZERO, Scalar, scalar

__all__ = [
    "AlgebraSpec",
    "StructureReport",
    "validate",
    "is_right_leibniz",
    "is_antisymmetric",
    "is_lie",
    "catalog",
    "catalog_names",
    "change_basis",
]


def checked_basis_names(dim: int, kind: str, basis_names) -> list:
    """The basis names of a table of the given kind, x1..x<dim> when
    None; raises ValueError on an unknown kind or on names that are not
    distinct, one per dimension."""
    if kind not in ("lie", "leibniz"):
        raise ValueError(f"unknown algebra kind {kind!r}")
    if basis_names is None:
        basis_names = [f"x{i+1}" for i in range(dim)]
    if len(basis_names) != dim or len(set(basis_names)) != dim:
        raise ValueError("basis names must be distinct, one per dimension")
    return list(basis_names)


class AlgebraSpec:
    """A finite-dimensional algebra given by structure constants.

    `table[i][j]` is the sparse vector of [e_i, e_j]; indices are
    0-based internally, while basis names carry the 1-based labels used
    in input files and reports.  The table is fixed at construction,
    which lets the identity checks and `validate` keep their verdicts
    on the spec.
    """

    __slots__ = ("dim", "name", "kind", "basis_names", "table", "_leibniz",
                 "_antisymmetric", "_report")

    def __init__(self, dim, brackets, kind="lie", name="", basis_names=None):
        self.basis_names = checked_basis_names(dim, kind, basis_names)
        self.dim = dim
        self.name = name
        self.kind = kind
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        for (i, j), value in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            cleaned = {}
            for k, coeff in value.items():
                if not 0 <= k < dim:
                    raise ValueError(f"bracket value index {k} out of range")
                coeff = scalar(coeff)
                if coeff:
                    cleaned[k] = coeff
            table[i][j] = cleaned
        self.table = table
        self._leibniz = None
        self._antisymmetric = None
        self._report = None

    def bracket(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse vector (do not mutate)."""
        return self.table[i][j]

    def bracket_vec(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the bracket to sparse vectors."""
        out = {}
        for i, a in x.items():
            if not a:
                continue
            row = self.table[i]
            for j, b in y.items():
                cell = row[j]
                if not cell or not b:
                    continue
                vec_add_scaled(out, cell, a * b)
        return out

    def nonzero_brackets(self):
        """Iterate (i, j, value) over nonzero structure entries."""
        for i in range(self.dim):
            for j in range(self.dim):
                if self.table[i][j]:
                    yield i, j, self.table[i][j]

    def __repr__(self):
        label = self.name or "algebra"
        return f"AlgebraSpec({label}, dim {self.dim}, {self.kind})"


@dataclass
class StructureReport:
    is_antisymmetric: bool
    is_jacobi: bool
    is_leibniz: bool
    center_basis: Subspace
    derived_basis: Subspace
    p: int
    c: int

    @property
    def kind_verdict(self) -> str:
        if self.is_antisymmetric and self.is_jacobi:
            return "lie"
        if self.is_leibniz:
            return "leibniz"
        return "invalid"


def is_right_leibniz(spec: AlgebraSpec) -> bool:
    """Whether [[x,y],z] = [[x,z],y] + [x,[y,z]] on every basis triple.

    Evaluated once per spec; later calls return the stored verdict.
    """
    if spec._leibniz is None:
        spec._leibniz = _right_leibniz_holds(spec)
    return spec._leibniz


def _right_leibniz_holds(spec: AlgebraSpec) -> bool:
    bracket = spec.bracket
    return not any(leibniz_defect(bracket, i, j, k)
                   for i, j, k in product(range(spec.dim), repeat=3))


def is_antisymmetric(spec: AlgebraSpec) -> bool:
    """Whether [e_j, e_i] = -[e_i, e_j] on every basis pair, evaluated
    once per spec like `is_right_leibniz`."""
    if spec._antisymmetric is None:
        d = spec.dim
        spec._antisymmetric = not any(skew_residue(spec.bracket, i, j)
                                      for i in range(d) for j in range(i, d))
    return spec._antisymmetric


def is_lie(spec: AlgebraSpec) -> bool:
    """Antisymmetric and right Leibniz, i.e. Jacobi for such a table."""
    return is_antisymmetric(spec) and is_right_leibniz(spec)


def skew_residue(bracket, i: int, j: int) -> dict:
    """[e_i,e_j] + [e_j,e_i] for i < j, and [e_i,e_i] itself for i = j:
    zero on every pair exactly when the table is antisymmetric.

    `bracket(a, b)` returns [e_a, e_b] as a sparse vector with Scalar or
    Poly coefficients; the result is a new sparse vector.
    """
    residue = dict(bracket(i, j))
    if i != j:
        for k, v in bracket(j, i).items():
            vec_add_at(residue, k, v)
    return residue


def leibniz_defect(bracket, i: int, j: int, k: int) -> dict:
    """[[x,y],z] - [[x,z],y] - [x,[y,z]] at x, y, z = e_i, e_j, e_k, as a
    sparse vector over the same `bracket` accessor as skew_residue."""
    bij, bik, bjk = bracket(i, j), bracket(i, k), bracket(j, k)
    if not (bij or bik or bjk):
        return {}
    defect = {}
    for m, c in bij.items():
        vec_add_scaled(defect, bracket(m, k), c)
    for m, c in bik.items():
        vec_add_scaled(defect, bracket(m, j), -c)
    for m, c in bjk.items():
        vec_add_scaled(defect, bracket(i, m), -c)
    return defect


def _jacobi_holds(table) -> bool:
    """Whether the cyclic sum [[x,y],z] + [[y,z],x] + [[z,x],y] vanishes
    on every basis triple.  On an antisymmetric table it is the Leibniz
    defect, since [[y,z],x] = -[x,[y,z]] and [[z,x],y] = -[[x,z],y]."""
    d = len(table)
    for i, j, k in product(range(d), repeat=3):
        bij, bjk, bki = table[i][j], table[j][k], table[k][i]
        if not (bij or bjk or bki):
            continue
        cyc = {}
        for cell, z in ((bij, k), (bjk, i), (bki, j)):
            for m, c in cell.items():
                vec_add_scaled(cyc, table[m][z], c)
        if cyc:
            return False
    return True


def validate(spec: AlgebraSpec) -> StructureReport:
    """Check antisymmetry, Jacobi, and the right Leibniz identity, and
    compute the center and derived subalgebra.

    Failed identities are reported in the result, not raised.  Computed
    once per spec, like `is_right_leibniz`; callers only read it.
    """
    if spec._report is not None:
        return spec._report
    d = spec.dim
    # Center: x with [x, e_j] = [e_j, x] = 0 for all j.  Columns of the
    # constraint matrix are indexed by basis vectors, rows by the pair
    # (side, j, output coordinate).
    cols = []
    for i in range(d):
        col = {}
        for j in range(d):
            for k, v in spec.table[i][j].items():
                col[j * d + k] = v
            for k, v in spec.table[j][i].items():
                col[d * d + j * d + k] = v
        cols.append(col)
    center = kernel(Matrix.from_columns(2 * d * d, cols))

    derived = Subspace(d)
    for _, _, value in spec.nonzero_brackets():
        derived.insert(value)

    # On an antisymmetric table the cyclic sum equals the Leibniz defect
    # triple by triple, so the stored verdict answers for Jacobi too.
    antisymmetric = is_antisymmetric(spec)
    leibniz = is_right_leibniz(spec)
    spec._report = StructureReport(
        is_antisymmetric=antisymmetric,
        is_jacobi=leibniz if antisymmetric else _jacobi_holds(spec.table),
        is_leibniz=leibniz,
        center_basis=center,
        derived_basis=derived,
        p=d - derived.dim,
        c=center.dim,
    )
    return spec._report


def change_basis(spec: AlgebraSpec, t: Matrix, name="", basis_names=None) -> AlgebraSpec:
    """Transport structure constants to the basis y_j = sum_i t[i][j] e_i.

    Columns of t are the new basis vectors in old coordinates; t must be
    invertible.
    """
    d = spec.dim
    if t.nrows != d or t.ncols != d:
        raise LinalgError("basis-change matrix has wrong shape")
    solver = Solver(t)
    inv_cols = []
    for j in range(d):
        col = solver.solve({j: ONE})
        if col is None:
            raise LinalgError("basis-change matrix is singular")
        inv_cols.append(col)
    if solver.rank < d:
        raise LinalgError("basis-change matrix is singular")
    cols = t.columns()
    brackets = {}
    for a in range(d):
        for b in range(d):
            val = vec_combine(inv_cols, spec.bracket_vec(cols[a], cols[b]))
            if val:
                brackets[(a, b)] = val
    return AlgebraSpec(d, brackets, kind=spec.kind, name=name or spec.name,
                       basis_names=basis_names)


def _anticommutative(pairs):
    """Expand one-sided relations [i,j] = value with [j,i] = -value."""
    brackets = {}
    for i, j, value in pairs:
        brackets[(i, j)] = dict(value)
        brackets[(j, i)] = {k: -scalar(v) for k, v in value.items()}
    return brackets


def _abelian(n: int) -> AlgebraSpec:
    if n < 1:
        raise ValueError("abelian dimension must be at least 1")
    return AlgebraSpec(n, {}, kind="lie", name=f"abelian({n})")


def _heisenberg(n: int) -> AlgebraSpec:
    """(2N+1)-dimensional two-step nilpotent algebra [x_i, x_{N+i}] = x_{2N+1}."""
    if n < 1:
        raise ValueError("heisenberg parameter must be at least 1")
    d = 2 * n + 1
    pairs = [(i, n + i, {d - 1: ONE}) for i in range(n)]
    return AlgebraSpec(d, _anticommutative(pairs), kind="lie", name=f"heisenberg({n})")


def _diamond_x() -> AlgebraSpec:
    pairs = [
        (0, 1, {2: ONE}),
        (0, 2, {1: -ONE}),
        (1, 2, {3: ONE}),
    ]
    return AlgebraSpec(4, _anticommutative(pairs), kind="lie", name="diamond_x")


def _diamond_e() -> AlgebraSpec:
    brackets = {
        (1, 2): {0: ONE},
        (2, 1): {0: -ONE},
        (1, 3): {1: ONE},
        (3, 1): {1: -ONE},
        (2, 3): {1: ONE, 2: -ONE},
        (3, 2): {2: ONE, 1: -ONE},
    }
    return AlgebraSpec(4, brackets, kind="lie", name="diamond_e",
                       basis_names=["e1", "e2", "e3", "e4"])


def _g54() -> AlgebraSpec:
    pairs = [
        (0, 1, {2: ONE}),
        (0, 2, {3: ONE}),
        (1, 2, {4: ONE}),
    ]
    return AlgebraSpec(5, _anticommutative(pairs), kind="lie", name="g54")


def _sl2_brackets(offset=0):
    # x1, x2 nilpotent raising/lowering, x3 the semisimple element:
    # [x1,x2] = x3, [x3,x1] = 2 x1, [x3,x2] = -2 x2.
    two = Scalar(2)
    return [
        (offset + 0, offset + 1, {offset + 2: ONE}),
        (offset + 2, offset + 0, {offset + 0: two}),
        (offset + 2, offset + 1, {offset + 1: -two}),
    ]


def _sl2() -> AlgebraSpec:
    return AlgebraSpec(3, _anticommutative(_sl2_brackets()), kind="lie", name="sl2")


def _sl2_plus_abelian(k: int) -> AlgebraSpec:
    if k < 0:
        raise ValueError("abelian summand dimension must be nonnegative")
    return AlgebraSpec(
        3 + k,
        _anticommutative(_sl2_brackets()),
        kind="lie",
        name=f"sl2_plus_abelian({k})",
    )


def _gl(n: int) -> AlgebraSpec:
    """gl(n) from matrix-unit commutators.

    Basis order: the off-diagonal units E_ij (row-major), the traceless
    differences E_ii - E_(i+1)(i+1), and the identity matrix last.
    """
    if n < 1:
        raise ValueError("gl parameter must be at least 1")
    units = [(i, j) for i in range(n) for j in range(n) if i != j]

    def unit_matrix(i, j):
        return {(i, j): ONE}

    basis = [unit_matrix(i, j) for (i, j) in units]
    for i in range(n - 1):
        basis.append({(i, i): ONE, (i + 1, i + 1): -ONE})
    basis.append({(i, i): ONE for i in range(n)})
    d = n * n

    def mat_mul(a, b):
        out = {}
        for (i, k), u in a.items():
            for (k2, j), v in b.items():
                if k == k2:
                    vec_add_at(out, (i, j), u * v)
        return out

    def to_coords(m):
        """Expand a matrix over the chosen basis."""
        m = dict(m)
        out = {}
        for idx, (i, j) in enumerate(units):
            v = m.pop((i, j), None)
            if v:
                out[idx] = v
        # Remaining part is diagonal: trace/n on the identity, the rest
        # on the traceless differences via partial sums.
        diag = [m.get((i, i), ZERO) for i in range(n)]
        trace = diag[0]
        for v in diag[1:]:
            trace = trace + v
        tpart = trace / n
        if tpart:
            out[d - 1] = tpart
        run = ZERO
        for i in range(n - 1):
            run = run + (diag[i] - tpart)
            if run:
                out[len(units) + i] = run
        return out

    brackets = {}
    for a in range(d):
        for b in range(d):
            comm = mat_mul(basis[a], basis[b])
            for ij, v in mat_mul(basis[b], basis[a]).items():
                vec_add_at(comm, ij, -v)
            val = to_coords(comm)
            if val:
                brackets[(a, b)] = val
    return AlgebraSpec(d, brackets, kind="lie", name=f"gl({n})")


_CATALOG = {
    "abelian": (_abelian, 1),
    "heisenberg": (_heisenberg, 1),
    "diamond_x": (_diamond_x, 0),
    "diamond_e": (_diamond_e, 0),
    "g54": (_g54, 0),
    "gl": (_gl, 1),
    "sl2": (_sl2, 0),
    "sl2_plus_abelian": (_sl2_plus_abelian, 1),
}


def catalog_names():
    return sorted(_CATALOG)


def catalog(name: str, *params: int) -> AlgebraSpec:
    """Construct a built-in algebra by name.

    Parameterized entries (abelian, heisenberg, gl, sl2_plus_abelian)
    take one integer.
    """
    if name not in _CATALOG:
        options = ", ".join(catalog_names())
        raise KeyError(f"unknown catalog algebra {name!r}; options: {options}")
    builder, arity = _CATALOG[name]
    if len(params) != arity:
        raise ValueError(
            f"catalog algebra {name!r} takes {arity} parameter(s), got {len(params)}"
        )
    return builder(*params)
