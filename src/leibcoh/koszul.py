"""Invariant symmetric forms and the degree-2 decomposition.

An invariant symmetric bilinear form B satisfies B([z,x],y) = -B(x,[z,y]).
Composing with the bracket gives the alternating 3-form
(x,y,z) -> B([x,y],z), a linear map from invariant forms into 3-forms
whose kernel and image control the symmetric and coupled blocks of
degree-2 Leibniz cohomology: for a Lie algebra the degree-2 classes
split into the antisymmetric classes, center (x) kernel forms, and a
coupled block of classes whose symmetric part maps to an exact 3-form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import AlgebraSpec, is_lie, validate
from .cochains import (
    CochainScheme,
    embed_zero_wedge,
    graded_cohomology,
    lie_delta_matrix,
    sym2_basis,
    sym2_inclusion,
    wedge_basis,
)
from .linalg import (Matrix, Solver, Subspace, image, kernel, quotient_reps,
                     vec_add_at, vec_add_scaled, vec_combine)
from .scalars import ONE

__all__ = [
    "KoszulData",
    "Degree2Decomposition",
    "UncouplingReport",
    "invariant_forms",
    "koszul_matrix",
    "koszul_data",
    "decompose_degree2",
    "uncoupling_report",
]


def invariant_forms(spec: AlgebraSpec) -> Subspace:
    """Invariant symmetric bilinear forms, in weakly-increasing-pair
    coordinates."""
    d = spec.dim
    pairs = sym2_basis(d)
    pos = {p: i for i, p in enumerate(pairs)}
    rows = []
    for z in range(d):
        for x in range(d):
            for y in range(x, d):
                row = {}
                for m, c in spec.table[z][x].items():
                    vec_add_at(row, pos[(m, y) if m <= y else (y, m)], c)
                for m, c in spec.table[z][y].items():
                    vec_add_at(row, pos[(x, m) if x <= m else (m, x)], c)
                if row:
                    rows.append(row)
    return kernel(Matrix(len(rows), len(pairs), rows))


def koszul_matrix(spec: AlgebraSpec) -> Matrix:
    """Matrix of B -> B([.,.],.) from pair coordinates to increasing-triple
    coordinates.  Rows are meaningful on invariant forms, where the
    resulting 3-form is alternating.
    """
    d = spec.dim
    pairs = sym2_basis(d)
    pos = {p: i for i, p in enumerate(pairs)}
    combs = wedge_basis(d, 3)
    rows = []
    for a, b, c in combs:
        row = {}
        for m, coeff in spec.table[a][b].items():
            vec_add_at(row, pos[(m, c) if m <= c else (c, m)], coeff)
        rows.append(row)
    return Matrix(len(combs), len(pairs), rows)


@dataclass
class KoszulData:
    """Invariant forms with the kernel and image of the cubic map."""

    forms: Subspace
    matrix: Matrix
    kernel: Subspace
    image: Subspace
    center: Subspace
    p: int

    @property
    def is_null(self) -> bool:
        return self.image.dim == 0


def koszul_data(spec: AlgebraSpec) -> KoszulData:
    report = validate(spec)
    forms = invariant_forms(spec)
    kmat = koszul_matrix(spec)
    basis = forms.basis()
    images = [kmat.matvec(b) for b in basis]
    ambient3 = len(wedge_basis(spec.dim, 3))
    im = Subspace(ambient3, images)
    combos = kernel(Matrix.from_columns(ambient3, images))
    kern = Subspace(len(sym2_basis(spec.dim)),
                    [vec_combine(basis, lam) for lam in combos.basis()])
    return KoszulData(
        forms=forms,
        matrix=kmat,
        kernel=kern,
        image=im,
        center=report.center_basis,
        p=report.p,
    )


def _tensor_head(z, data: dict, place) -> dict:
    """z (x) data, head k's entry at t placed at place(k, t); z=None is
    the one head None."""
    return {place(k, t): zv * v
            for k, zv in ({None: ONE} if z is None else z).items()
            for t, v in data.items()}


@dataclass
class Degree2Decomposition:
    """Degree-2 classes split into the three blocks.

    Representatives live in tensor coordinates: h2_reps are the
    antisymmetric classes, symmetric_basis spans the symmetric-cocycle
    block, coupled_reps are cocycles made of a kernel-complement
    symmetric part plus the antisymmetric corrector that closes it.
    """

    coefficients: str
    scheme: CochainScheme
    h2_reps: list
    symmetric_basis: list
    coupled_reps: list

    @property
    def hl2_dim(self):
        """dim HL2, by the degree-2 theorem for Lie algebras:
        HL2 = H2 + (center (x) ker I) + coupled, with the center factor
        dropped for trivial coefficients.  No full Leibniz complex is
        built; tests/test_koszul.py::test_hl2_dim_equals_the_full_complex
        checks the sum against it.
        """
        return self.h2_dim + self.symmetric_dim + self.coupled_dim

    @property
    def h2_dim(self):
        return len(self.h2_reps)

    @property
    def symmetric_dim(self):
        return len(self.symmetric_basis)

    @property
    def coupled_dim(self):
        return len(self.coupled_reps)


def _exact_combinations(scheme: CochainScheme, kos: KoszulData, heads):
    """Combinations of kernel-complement forms, one per head, whose image
    3-form is exact on the antisymmetric complex.

    Returns the complement forms, the candidate image columns (head-major)
    and the Subspace of candidate coefficient vectors with an exact image;
    its dimension is the coupled count.  The residue modulo B3 is linear
    and zero exactly on B3, so sum c_i g_i is exact when sum c_i r_i = 0
    for the residues r_i of the candidates.  Each z (x) I(w) has weight 0
    (z is central; an invariant form pairs weights summing to 0), so it
    is read on the weight-0 rows of `lie_delta_matrix(scheme, 2)`, where
    a missing row raises KeyError.
    """
    w_reps = quotient_reps(kos.forms, kos.kernel)
    images3 = [kos.matrix.matvec(w) for w in w_reps]
    if not heads or not images3:
        return w_reps, [], Subspace(0)
    combs3 = wedge_basis(scheme.dim, 3)
    rows = scheme.zero_wedges(3)
    g_cols = [_tensor_head(z, iw, lambda k, p: rows[k, combs3[p]])
              for z in heads for iw in images3]
    b3 = image(lie_delta_matrix(scheme, 2))
    residues = [b3.reduce(g) for g in g_cols]
    return w_reps, g_cols, kernel(Matrix.from_columns(b3.ambient_dim,
                                                      residues))


def decompose_degree2(spec: AlgebraSpec,
                      coefficients="adjoint") -> Degree2Decomposition:
    """Split degree-2 Leibniz cohomology of a Lie algebra into the
    antisymmetric, central-symmetric, and coupled blocks, built from the
    antisymmetric complex and the cubic map alone.  Any table but a Lie
    one is refused, by the verdict kept on the spec."""
    if not is_lie(spec):
        raise ValueError("the degree-2 decomposition requires a Lie algebra")
    scheme = CochainScheme(spec, coefficients)
    adjoint = scheme.adjoint
    triv = CochainScheme(spec, "trivial") if adjoint else scheme
    kos = koszul_data(spec)
    lie = graded_cohomology(scheme, 2, lie=True)

    sym_incl = sym2_inclusion(triv)
    heads = kos.center.basis() if adjoint else [None]

    def flat(k, t):  # the flat index of head k over the 2-cochain t
        return t if k is None else k * spec.dim ** 2 + t

    kernel_blocks = [vec_combine(sym_incl, q) for q in kos.kernel.basis()]
    symmetric_basis = [
        _tensor_head(z, blk, flat) for z in heads for blk in kernel_blocks
    ]

    # Coupled block: symmetric parts from a complement of the kernel
    # whose image 3-forms are exact, each closed up by an antisymmetric
    # corrector solved on the antisymmetric complex.
    w_reps, g_cols, coeff_space = _exact_combinations(scheme, kos, heads)
    s_cols = [
        _tensor_head(z, vec_combine(sym_incl, w), flat)
        for z in heads
        for w in w_reps
    ]
    coupled_reps = []
    if coeff_space.dim:
        solver = Solver(lie_delta_matrix(scheme, 2))
        for u in coeff_space.basis():
            omega = solver.solve(vec_combine(g_cols, u))
            if omega is None:
                raise AssertionError("exactness certificate failed to solve")
            rep = vec_combine(s_cols, u)
            vec_add_scaled(rep, embed_zero_wedge(scheme, 2, [omega])[0], ONE)
            if not scheme.is_cocycle(2, rep):
                raise AssertionError("coupled representative is not a cocycle")
            coupled_reps.append(rep)

    return Degree2Decomposition(
        coefficients=coefficients,
        scheme=scheme,
        h2_reps=[dict(r) for r in lie.reps],
        symmetric_basis=symmetric_basis,
        coupled_reps=coupled_reps,
    )


@dataclass
class UncouplingReport:
    center_dim: int
    adjoint_coupled_dim: int
    trivial_coupled_dim: int

    @property
    def adjoint_uncoupled(self) -> bool:
        return self.adjoint_coupled_dim == 0

    @property
    def trivial_uncoupled(self) -> bool:
        return self.trivial_coupled_dim == 0


def uncoupling_report(spec: AlgebraSpec,
                      kos: KoszulData | None = None) -> UncouplingReport:
    """Coupled-class counts for both coefficient choices, without building
    the degree-2 complexes or any representative.  Refuses what
    `decompose_degree2` refuses."""
    if not is_lie(spec):
        raise ValueError("the degree-2 decomposition requires a Lie algebra")
    kos = kos if kos is not None else koszul_data(spec)
    counts = {}
    for coefficients in ("adjoint", "trivial"):
        scheme = CochainScheme(spec, coefficients)
        heads = kos.center.basis() if scheme.adjoint else [None]
        counts[coefficients] = _exact_combinations(scheme, kos, heads)[2].dim
    return UncouplingReport(
        center_dim=validate(spec).c,
        adjoint_coupled_dim=counts["adjoint"],
        trivial_coupled_dim=counts["trivial"],
    )
