"""Invariant forms, the cubic map, and the degree-2 decomposition."""

import io
import json
import random
import sys

import pytest

from leibcoh import algebras, cli
from leibcoh.algebras import AlgebraSpec, catalog, change_basis, validate
from leibcoh.cochains import (
    CochainScheme,
    graded_cohomology,
    sym2_basis,
    sym2_inclusion,
    wedge_basis,
)
from leibcoh.koszul import (
    decompose_degree2,
    invariant_forms,
    koszul_data,
    koszul_matrix,
    uncoupling_report,
)
from leibcoh.families import family_catalog, family_names, specialize
from leibcoh.formats import algebra_to_document, dumps_canonical
from leibcoh.linalg import Matrix, Solver, Subspace, vec_combine
from leibcoh.scalars import ONE, Scalar
from tests.conftest import (I, degree2_reps, leibniz_cohomology, shear,
                            split_degree2, symmetric_cocycle_space,
                            wedge_inclusion)
from tests.test_algebras import CATALOG_CASES

LIE_CASES = [
    ("abelian", (3,)),
    ("heisenberg", (1,)),
    ("heisenberg", (2,)),
    ("diamond_x", ()),
    ("diamond_e", ()),
    ("g54", ()),
    ("gl", (2,)),
    ("sl2", ()),
    ("sl2_plus_abelian", (2,)),
]


def pair_coords(dim, entries):
    pairs = sym2_basis(dim)
    pos = {p: i for i, p in enumerate(pairs)}
    return {pos[p]: scalar for p, scalar in entries.items()}


def test_g54_invariant_form_and_dimensions():
    spec = catalog("g54")
    data = koszul_data(spec)
    b = pair_coords(5, {(0, 4): ONE, (1, 3): -ONE, (2, 2): ONE})
    assert data.forms.contains(b)
    assert data.forms.dim == 4
    assert data.kernel.dim == 3
    assert data.image.dim == 1
    for entries in ({(0, 0): ONE}, {(0, 1): ONE}, {(1, 1): ONE}):
        assert data.kernel.contains(pair_coords(5, entries))
    # The image is spanned by the increasing-triple form of b.
    assert data.image.contains(data.matrix.matvec(b))
    assert data.matrix.matvec(b) == {wedge_basis(5, 3).index((0, 1, 2)): ONE}


def test_diamond_invariant_form():
    spec = catalog("diamond_x")
    data = koszul_data(spec)
    c = pair_coords(4, {(0, 3): ONE, (1, 1): ONE, (2, 2): ONE})
    assert data.forms.contains(c)
    assert data.forms.dim == 2
    assert data.kernel.dim == 1
    # The quotient by the derived subalgebra is the x1 direction.
    assert data.kernel.contains(pair_coords(4, {(0, 0): ONE}))
    assert data.image.dim == 1


@pytest.mark.parametrize("name,params", LIE_CASES)
def test_trivial_coboundary_of_forms_is_minus_cubic_map(name, params):
    spec = catalog(name, *params)
    triv = CochainScheme(spec, "trivial")
    data = koszul_data(spec)
    incl2 = sym2_inclusion(triv)
    incl3 = wedge_inclusion(triv, 3)
    for b in data.forms.basis():
        lhs = triv.delta_apply(2, vec_combine(incl2, b))
        rhs = vec_combine(incl3, data.matrix.matvec(b))
        assert lhs == {k: -v for k, v in rhs.items()}


@pytest.mark.parametrize("name,params", LIE_CASES)
def test_kernel_and_form_dimensions(name, params):
    spec = catalog(name, *params)
    report = validate(spec)
    data = koszul_data(spec)
    assert data.kernel.dim == report.p * (report.p + 1) // 2
    assert data.forms.dim == data.kernel.dim + data.image.dim


def test_heisenberg_cubic_map_vanishes():
    for n in (1, 2, 3):
        data = koszul_data(catalog("heisenberg", n))
        assert data.is_null
        assert data.forms == data.kernel


def test_g54_decompositions():
    spec = catalog("g54")
    triv = decompose_degree2(spec, "trivial")
    assert (triv.h2_dim, triv.symmetric_dim, triv.coupled_dim) == (3, 3, 1)
    assert triv.hl2_dim == 7
    full = leibniz_cohomology(triv.scheme, 2)
    assert full.z_dim == 10
    assert full.h_dim == 7
    assert graded_cohomology(triv.scheme, 2, lie=True).z_dim == 6
    adj = decompose_degree2(spec, "adjoint")
    assert (adj.h2_dim, adj.symmetric_dim, adj.coupled_dim) == (9, 6, 2)
    assert adj.hl2_dim == 17
    full = leibniz_cohomology(adj.scheme, 2)
    assert full.z_dim == 32
    assert graded_cohomology(adj.scheme, 2, lie=True).z_dim == 24
    assert full.h_dim == 17


def test_diamond_adjoint_decomposition():
    dec = decompose_degree2(catalog("diamond_e"), "adjoint")
    assert (dec.h2_dim, dec.symmetric_dim, dec.coupled_dim) == (2, 1, 1)
    assert dec.hl2_dim == 4


def theorem_cases():
    """Catalog entries, two random Q(i) shears of each entry of dimension
    2 to 5, and the Lie families at random integer points; seeded."""
    rng = random.Random(2028)
    cases = [(" ".join([name, *map(str, params)]), catalog(name, *params))
             for name, params in CATALOG_CASES]
    for label, spec in list(cases):
        if 2 <= spec.dim <= 5:
            for _ in range(2):
                a, b = rng.sample(range(spec.dim), 2)
                c = Scalar(rng.randint(-2, 2), rng.choice((-1, 1)))
                cases.append((f"{label} y{a + 1}=e{a + 1}+({c})e{b + 1}",
                              shear(spec, a, b, c)))
    for name in family_names():
        pa = family_catalog(name)
        if pa.kind == "lie":
            point = {p: rng.randint(-3, 3) for p in pa.params}
            cases.append((f"family {name} {point}", specialize(pa, point)))
    return cases


THEOREM_CASES = theorem_cases()


@pytest.mark.parametrize("spec", [spec for _, spec in THEOREM_CASES],
                         ids=[label for label, _ in THEOREM_CASES])
def test_hl2_dim_equals_the_full_complex(spec):
    # hl2_dim is the theorem's sum of the three blocks; the full
    # Leibniz complex is the independent reference.
    for coeffs in ("adjoint", "trivial"):
        dec = decompose_degree2(spec, coeffs)
        full = leibniz_cohomology(CochainScheme(spec, coeffs), 2)
        assert dec.hl2_dim == full.h_dim, coeffs


@pytest.mark.parametrize("name,params,coeffs", [
    ("diamond_e", (), "adjoint"),
    ("g54", (), "trivial"),
    ("g54", (), "adjoint"),
    ("gl", (2,), "adjoint"),
    ("sl2", (), "adjoint"),
    ("sl2_plus_abelian", (2,), "adjoint"),
    ("heisenberg", (2,), "adjoint"),
])
def test_blocks_are_a_direct_sum_spanning_cocycles(name, params, coeffs):
    dec = decompose_degree2(catalog(name, *params), coeffs)
    full = leibniz_cohomology(dec.scheme, 2)
    span = Subspace(dec.scheme.cochain_dim(2), full.coboundaries.basis())
    count = full.b_dim
    for rep in degree2_reps(dec):
        assert dec.scheme.is_cocycle(2, rep)
        assert not span.contains(rep)
        span.insert(rep)
        count += 1
        assert span.dim == count
    assert span == full.cocycles


@pytest.mark.parametrize("name,params,coeffs", [
    ("diamond_e", (), "adjoint"),
    ("g54", (), "trivial"),
])
def test_symmetric_block_is_the_symmetric_cocycle_space(name, params, coeffs):
    dec = decompose_degree2(catalog(name, *params), coeffs)
    from_decomposition = Subspace(dec.scheme.cochain_dim(2), dec.symmetric_basis)
    assert from_decomposition == symmetric_cocycle_space(dec.scheme)


def test_coupled_reps_have_inseparable_parts():
    for spec, coeffs in [(catalog("diamond_e"), "adjoint"), (catalog("g54"), "trivial")]:
        dec = decompose_degree2(spec, coeffs)
        for rep in dec.coupled_reps:
            anti, sym = split_degree2(dec.scheme, rep)
            assert sym
            assert not dec.scheme.is_cocycle(2, anti)
            assert not dec.scheme.is_cocycle(2, sym)


def test_g54_trivial_coupled_line_matches_known_class():
    spec = catalog("g54")
    dec = decompose_degree2(spec, "trivial")
    scheme = dec.scheme
    b = pair_coords(5, {(0, 4): ONE, (1, 3): -ONE, (2, 2): ONE})
    omega15 = {wedge_basis(5, 2).index((0, 4)): ONE}
    g1 = vec_combine(sym2_inclusion(scheme), b)
    for k, v in vec_combine(wedge_inclusion(scheme, 2), omega15).items():
        w = g1.get(k)
        w = v if w is None else w + v
        if w:
            g1[k] = w
        else:
            del g1[k]
    assert scheme.is_cocycle(2, g1)
    lower = Subspace(scheme.cochain_dim(2),
                     leibniz_cohomology(scheme, 2).coboundaries.basis())
    for rep in dec.h2_reps + dec.symmetric_basis:
        lower.insert(rep)
    assert not lower.contains(g1)
    with_coupled = Subspace(scheme.cochain_dim(2), lower.basis() + dec.coupled_reps)
    assert with_coupled.contains(g1)


def test_gl2_reductive_shape():
    spec = catalog("gl", 2)
    dec = decompose_degree2(spec, "adjoint")
    assert (dec.h2_dim, dec.symmetric_dim, dec.coupled_dim) == (0, 1, 0)
    scheme = dec.scheme
    assert dec.symmetric_basis[0] == {scheme.flat_index(3, (3, 3)): ONE}


def test_sl2_plus_abelian_reductive_counts():
    dec = decompose_degree2(catalog("sl2_plus_abelian", 2), "adjoint")
    c = 2
    assert dec.h2_dim == c * c * (c - 1) // 2
    assert dec.symmetric_dim == c * (c * (c + 1) // 2)
    assert dec.coupled_dim == 0


def test_zero_center_collapses_to_antisymmetric_classes():
    dec = decompose_degree2(catalog("sl2"), "adjoint")
    assert dec.symmetric_dim == 0
    assert dec.coupled_dim == 0
    assert dec.hl2_dim == dec.h2_dim == 0


def test_uncoupling_reports():
    g54 = uncoupling_report(catalog("g54"))
    assert not g54.adjoint_uncoupled
    assert not g54.trivial_uncoupled
    heis = uncoupling_report(catalog("heisenberg", 2))
    assert heis.adjoint_uncoupled and heis.trivial_uncoupled
    gl2 = uncoupling_report(catalog("gl", 2))
    assert gl2.adjoint_uncoupled and gl2.trivial_uncoupled


def test_adjoint_uncoupling_implies_trivial_when_center_nonzero():
    for name, params in LIE_CASES:
        rep = uncoupling_report(catalog(name, *params))
        if rep.center_dim > 0 and rep.adjoint_uncoupled:
            assert rep.trivial_uncoupled, name


def test_decompose_rejects_non_lie():
    spec = AlgebraSpec(2, {(1, 1): {0: ONE}}, kind="leibniz")
    with pytest.raises(ValueError):
        decompose_degree2(spec, "adjoint")


def test_uncoupling_refuses_non_lie_without_candidate_columns():
    # [e2, e2] = e1: every invariant form lies in the kernel of the cubic
    # map, so neither coefficient choice has a candidate column and no
    # antisymmetric coboundary is built; the Lie verdict alone refuses.
    spec = AlgebraSpec(2, {(1, 1): {0: ONE}}, kind="leibniz")
    kos = koszul_data(spec)
    assert kos.forms.dim == kos.kernel.dim == 1
    with pytest.raises(ValueError, match="requires a Lie algebra"):
        uncoupling_report(spec, kos)


@pytest.mark.parametrize("argv", [
    ["koszul"],
    ["decompose", "--coeff", "trivial"],
    ["cohomology", "--deg", "2", "--lie"],
])
def test_lie_verdict_is_evaluated_once_per_spec(argv, monkeypatch, capsys):
    # validate, the Lie guard of koszul and the antisymmetric complex
    # all ask; only the first evaluates the table, in one pass over the
    # 15 pairs i <= j of g54.
    doc = dumps_canonical(algebra_to_document(catalog("g54")))
    pairs = []
    residue = algebras.skew_residue

    def counted_residue(bracket, i, j):
        pairs.append((i, j))
        return residue(bracket, i, j)

    monkeypatch.setattr(algebras, "skew_residue", counted_residue)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert pairs == [(i, j) for i in range(5) for j in range(i, 5)]


def sheared(name):
    """The catalog algebra in the basis y_j = e_j + (1 + i) e_(j+1)."""
    spec = catalog(name)
    d = spec.dim
    cols = [{j: ONE, j + 1: ONE + I} if j + 1 < d else {j: ONE}
            for j in range(d)]
    return change_basis(spec, Matrix.from_columns(d, cols))


@pytest.mark.parametrize("spec", [catalog(name, *params)
                                  for name, params in LIE_CASES]
                         + [sheared("diamond_e"), sheared("g54")],
                         ids=[" ".join([name, *map(str, params)])
                              for name, params in LIE_CASES]
                         + ["sheared diamond_e", "sheared g54"])
def test_uncoupling_counts_equal_decomposition_counts(spec):
    # The count path builds no representative, so the decomposition's
    # cocycle and solve checks vouch for it only through this equality.
    unc = uncoupling_report(spec)
    assert unc.center_dim == validate(spec).c
    assert unc.adjoint_coupled_dim == decompose_degree2(
        spec, "adjoint").coupled_dim
    assert unc.trivial_coupled_dim == decompose_degree2(
        spec, "trivial").coupled_dim
    assert uncoupling_report(spec, koszul_data(spec)) == unc


def test_uncoupling_rejects_non_lie():
    spec = AlgebraSpec(2, {(1, 1): {0: ONE}}, kind="leibniz")
    with pytest.raises(ValueError):
        uncoupling_report(spec)


def test_koszul_command_runs_only_the_count_path(monkeypatch, capsys):
    doc = dumps_canonical(algebra_to_document(catalog("g54")))

    def run():
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert cli.main(["koszul"]) == 0
        return capsys.readouterr().out

    expected = run()
    calls = []

    def counted(*args):
        calls.append(args)
        return koszul_data(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("not part of a koszul request")

    modules = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "leibcoh"]
    for original, replacement in [
        (koszul_data, counted),
        (decompose_degree2, forbidden),
        (graded_cohomology, forbidden),
        (leibniz_cohomology, forbidden),
        (Solver, forbidden),
    ]:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
    assert run() == expected
    assert len(calls) == 1
    section = json.loads(expected)["koszul"]
    assert (section["adjoint_coupled_dim"], section["trivial_coupled_dim"]) \
        == (2, 1)
