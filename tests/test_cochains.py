"""Coboundary correctness against a literal evaluator, and subcomplexes."""

import random
from itertools import product

import pytest

from leibcoh.algebras import AlgebraSpec, catalog, is_right_leibniz
from leibcoh.cochains import (
    CochainScheme,
    CohomologySpace,
    leibniz_cohomology,
    lie_cohomology,
    lie_delta_matrix,
    sym2_inclusion,
    wedge_basis,
    wedge_inclusion,
)
from leibcoh.families import family_catalog, family_names, specialize
from leibcoh.linalg import (Echelon, Matrix, Subspace, image, kernel,
                            vec_add_scaled, vec_combine)
from leibcoh.scalars import I, ONE, Scalar
from tests.conftest import (evaluate_cochain, oracle_delta_matrix, shear,
                            split_degree2, symmetric_cocycle_space)
from tests.test_algebras import CATALOG_CASES
from tests.test_koszul import sheared


def intersect(a, b):
    """a ∩ b: the a-parts of the kernel of the stacked-bases map [a | b]."""
    abasis = a.basis()
    stacked = Matrix.from_columns(a.ambient_dim, abasis + b.basis())
    ech = Echelon(a.ambient_dim)
    for lam in kernel(stacked).basis():
        v = {}
        for j, c in lam.items():
            if j < len(abasis):
                vec_add_scaled(v, abasis[j], c)
        ech.insert(v)
    return Subspace._from_echelon(a.ambient_dim, ech)


def wedge_projection(scheme, n):
    """Left inverse of wedge_inclusion: read the increasing-tuple coordinates."""
    heads = range(scheme.dim) if scheme.adjoint else (None,)
    rows = [{scheme.flat_index(k, comb): ONE}
            for k in heads for comb in wedge_basis(scheme.dim, n)]
    return Matrix(len(rows), scheme.cochain_dim(n), rows)


def literal_delta_at(scheme, data, args):
    """The coboundary formula evaluated term by term at basis arguments.

    Independent of the push-forward construction: hats and insertions
    are done on explicit argument lists.
    """
    spec = scheme.spec
    vecs = [{a: ONE} for a in args]
    n = len(args) - 1

    if scheme.adjoint:
        total = {}

        def acc(vec, sgn):
            for k, v in vec.items():
                w = total.get(k)
                w = sgn * v if w is None else w + sgn * v
                if w:
                    total[k] = w
                else:
                    del total[k]

        acc(spec.bracket_vec(vecs[0], evaluate_cochain(scheme, data, vecs[1:])), ONE)
        for i in range(2, n + 2):
            rest = vecs[: i - 1] + vecs[i:]
            sgn = ONE if i % 2 == 0 else -ONE
            acc(spec.bracket_vec(evaluate_cochain(scheme, data, rest), vecs[i - 1]), sgn)
    else:
        total = Scalar(0)

        def acc(value, sgn):
            nonlocal total
            total = total + sgn * value

    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            arg = (
                vecs[: i - 1]
                + [spec.bracket_vec(vecs[i - 1], vecs[j - 1])]
                + vecs[i : j - 1]
                + vecs[j:]
            )
            sgn = ONE if (j + 1) % 2 == 0 else -ONE
            acc(evaluate_cochain(scheme, data, arg), sgn)
    return total


def one_sided_square():
    return AlgebraSpec(2, {(1, 1): {0: ONE}}, kind="leibniz")


def random_cochain(rng, scheme, n, entries=6):
    size = scheme.cochain_dim(n)
    data = {}
    for _ in range(entries):
        v = Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
        if v:
            data[rng.randrange(size)] = v
    return data


def family_point(name):
    """The family at every parameter equal to 1 + i."""
    pa = family_catalog(name)
    return specialize(pa, {p: "1+i" for p in pa.params})


STENCIL_ALGEBRAS = (
    [(" ".join([name, *map(str, params)]), catalog(name, *params))
     for name, params in CATALOG_CASES]
    + [(name, family_point(name)) for name in family_names()]
    + [("one-sided square", one_sided_square()),
       ("sheared diamond_e", sheared("diamond_e")),
       ("sheared g54", sheared("g54"))])
STENCIL_CASES = [(label, spec, coeffs)
                 for label, spec in STENCIL_ALGEBRAS
                 for coeffs in ("adjoint", "trivial")]


ORACLE_CASES = [
    (catalog("diamond_e"), "adjoint", (0, 1, 2, 3)),
    (catalog("diamond_e"), "trivial", (0, 1, 2, 3)),
    (one_sided_square(), "adjoint", (0, 1, 2, 3)),
    (one_sided_square(), "trivial", (1, 2, 3)),
    (catalog("g54"), "adjoint", (0, 1, 2)),
    (catalog("g54"), "trivial", (1, 2)),
]


@pytest.mark.parametrize("spec,coeffs,degrees", ORACLE_CASES)
def test_delta_matches_literal_formula(spec, coeffs, degrees):
    rng = random.Random(f"{spec.name}:{coeffs}")
    scheme = CochainScheme(spec, coeffs)
    d = spec.dim
    for n in degrees:
        for _ in range(3):
            data = random_cochain(rng, scheme, n)
            dvec = scheme.delta_apply(n, data)
            points = list(product(range(d), repeat=n + 1))
            if len(points) > 120:
                points = [tuple(rng.randrange(d) for _ in range(n + 1))
                          for _ in range(120)]
            for args in points:
                expect = literal_delta_at(scheme, data, args)
                got = evaluate_cochain(scheme, dvec, [{a: ONE} for a in args])
                assert got == expect, (spec.name, coeffs, n, args)


def test_delta_matrix_agrees_with_apply(diamond_adj, diamond_triv, g54_triv):
    rng = random.Random(5)
    square_adj = CochainScheme(one_sided_square(), "adjoint")
    square_triv = CochainScheme(one_sided_square(), "trivial")
    cases = [(diamond_adj, 1), (diamond_adj, 2), (diamond_adj, 3),
             (diamond_triv, 3), (g54_triv, 2), (g54_triv, 3),
             (square_adj, 2), (square_adj, 3), (square_triv, 3)]
    for scheme, n in cases:
        mat = scheme.delta_matrix(n)
        for _ in range(5):
            data = random_cochain(rng, scheme, n)
            assert mat.matvec(data) == scheme.delta_apply(n, data)
    for label, spec, coeffs in STENCIL_CASES:
        scheme = CochainScheme(spec, coeffs)
        for n in range(4 if spec.dim <= 5 else 3):
            mat = scheme.delta_matrix(n)
            for _ in range(4):
                data = random_cochain(rng, scheme, n)
                assert mat.matvec(data) == scheme.delta_apply(n, data), (
                    label, coeffs, n)


def test_delta_squared_is_zero():
    # The certified cocycles take the coboundaries as known cocycles, so
    # this premise is checked on Q(i) structure constants too.
    rng = random.Random(9)
    cases = [
        (catalog("diamond_e"), "adjoint"),
        (catalog("diamond_e"), "trivial"),
        (one_sided_square(), "adjoint"),
        (catalog("heisenberg", 3), "adjoint"),
        (catalog("gl", 2), "adjoint"),
        (catalog("g54"), "adjoint"),
        (catalog("g54"), "trivial"),
        (catalog("sl2_plus_abelian", 3), "trivial"),
        (shear(catalog("diamond_e"), 1, 2, ONE + I), "adjoint"),
        (shear(catalog("g54"), 0, 3, Scalar(2, -1) / 3), "adjoint"),
        (shear(one_sided_square(), 1, 0, I), "trivial"),
    ]
    for spec, coeffs in cases:
        scheme = CochainScheme(spec, coeffs)
        for n in (0, 1, 2, 3):
            for _ in range(3):
                data = random_cochain(rng, scheme, n)
                once = scheme.delta_apply(n, data)
                assert scheme.delta_apply(n + 1, once) == {}


@pytest.mark.parametrize("label,spec,coeffs", STENCIL_CASES,
                         ids=[f"{label} {coeffs}"
                              for label, _, coeffs in STENCIL_CASES])
def test_delta_matrix_matches_the_tuple_oracle(label, spec, coeffs):
    # Rows equal as dicts and in key order: an elimination reads them in
    # that order.
    scheme = CochainScheme(spec, coeffs)
    top = 3 if spec.dim <= 5 else 2
    for n in range(top + 1):
        got = scheme.delta_matrix(n)
        want = oracle_delta_matrix(scheme, n)
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        assert got.rows == want.rows, (label, coeffs, n)
        assert [list(r) for r in got.rows] == [list(r) for r in want.rows]


LEIBNIZ_CASES = [case for case in STENCIL_CASES if case[1].kind == "leibniz"]


@pytest.mark.parametrize("label,spec,coeffs", LEIBNIZ_CASES,
                         ids=[f"{label} {coeffs}"
                              for label, _, coeffs in LEIBNIZ_CASES])
def test_delta_matrices_compose_to_zero(label, spec, coeffs):
    # Lie algebras are checked on random cochains in
    # test_delta_squared_is_zero; these are not Lie.
    assert is_right_leibniz(spec)
    scheme = CochainScheme(spec, coeffs)
    for n in range(3):
        first = scheme.delta_matrix(n)
        second = scheme.delta_matrix(n + 1)
        for row in second.rows:
            prod = {}
            for j, v in row.items():
                vec_add_scaled(prod, first.rows[j], v)
            assert prod == {}, (label, coeffs, n)


def test_flat_index_round_trip():
    scheme = CochainScheme(catalog("g54"), "adjoint")
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(40):
            idx = rng.randrange(scheme.cochain_dim(n))
            k, t = scheme.unflatten(n, idx)
            assert scheme.flat_index(k, t) == idx
    triv = CochainScheme(catalog("g54"), "trivial")
    for n in (1, 2, 3):
        for _ in range(40):
            idx = rng.randrange(triv.cochain_dim(n))
            k, t = triv.unflatten(n, idx)
            assert k is None
            assert triv.flat_index(None, t) == idx


def test_degree_zero_coboundaries(diamond_adj, diamond_triv):
    # Central element: zero coboundary.
    assert diamond_adj.delta_apply(0, {0: ONE}) == {}
    # (delta e2)(Y) = [Y, e2] picks up [e3,e2] = -e1 and [e4,e2] = -e2.
    fi = diamond_adj.flat_index
    assert diamond_adj.delta_apply(0, {1: ONE}) == {
        fi(0, (2,)): -ONE,
        fi(1, (3,)): -ONE,
    }
    assert diamond_triv.delta_apply(0, {0: ONE}) == {}


def test_identity_cochain_bounds_the_bracket(diamond_adj):
    ident = {diamond_adj.flat_index(k, (k,)): ONE for k in range(4)}
    expect = {}
    for i, j, value in diamond_adj.spec.nonzero_brackets():
        for m, c in value.items():
            expect[diamond_adj.flat_index(m, (i, j))] = c
    assert diamond_adj.delta_apply(1, ident) == expect


def test_wedge_projection_inverts_inclusion(diamond_adj, g54_triv):
    for scheme, n in [(diamond_adj, 2), (g54_triv, 3)]:
        incl = wedge_inclusion(scheme, n)
        proj = wedge_projection(scheme, n)
        for i, vec in enumerate(incl):
            assert proj.matvec(vec) == {i: ONE}


def test_wedge_inclusion_example():
    scheme = CochainScheme(catalog("abelian", 3), "trivial")
    incl = wedge_inclusion(scheme, 2)
    assert wedge_basis(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert incl[0] == {1: ONE, 3: -ONE}


def test_wedge_inclusion_is_cached_per_degree():
    scheme = CochainScheme(catalog("g54"), "adjoint")
    assert wedge_inclusion(scheme, 2) is wedge_inclusion(scheme, 2)
    assert wedge_inclusion(scheme, 1) is not wedge_inclusion(scheme, 2)
    other = CochainScheme(catalog("g54"), "trivial")
    assert wedge_inclusion(other, 2) is not wedge_inclusion(scheme, 2)


def test_coboundary_preserves_antisymmetry_on_lie(diamond_adj, g54_triv):
    for scheme, n in [(diamond_adj, 1), (diamond_adj, 2), (g54_triv, 2)]:
        incl = wedge_inclusion(scheme, n + 1)
        proj = wedge_projection(scheme, n + 1)
        for vec in wedge_inclusion(scheme, n):
            dv = scheme.delta_apply(n, vec)
            assert vec_combine(incl, proj.matvec(dv)) == dv


def test_lie_delta_known_columns(g54_triv):
    # In the degree-1 trivial complex the duals of the three bracket
    # targets map to minus the corresponding increasing pair.
    mat = lie_delta_matrix(g54_triv, 1)
    pairs = wedge_basis(5, 2)
    cols = mat.columns()
    assert cols[2] == {pairs.index((0, 1)): -ONE}
    assert cols[3] == {pairs.index((0, 2)): -ONE}
    assert cols[4] == {pairs.index((1, 2)): -ONE}
    assert cols[0] == {}
    assert cols[1] == {}


def test_lie_cohomology_matches_the_full_complex_route():
    # Reference: Z is the full complex's cocycles inside the span of the
    # antisymmetric basis cochains, B the full coboundaries of the
    # antisymmetric (n-1)-cochains.
    cases = [("diamond_e", ()), ("g54", ()), ("heisenberg", (2,)),
             ("sl2", ()), ("gl", (2,))]
    for name, params in cases:
        for coeffs in ("adjoint", "trivial"):
            scheme = CochainScheme(catalog(name, *params), coeffs)
            for n in (1, 2, 3):
                ambient = scheme.cochain_dim(n)
                incl = wedge_inclusion(scheme, n)
                z = intersect(scheme.cocycles(n), Subspace(ambient, incl))
                b = Subspace(ambient, [
                    scheme.delta_apply(n - 1, vec)
                    for vec in wedge_inclusion(scheme, n - 1)])
                lie = lie_cohomology(scheme, n)
                label = (name, coeffs, n)
                assert lie.cocycles == z, label
                assert lie.coboundaries == b, label
                assert lie.reps == CohomologySpace(n, z, b).reps, label
                # Embedding keeps the antisymmetric complex's RREF rows
                # as they stand.
                zw = kernel(lie_delta_matrix(scheme, n))
                bw = image(lie_delta_matrix(scheme, n - 1))
                assert [vec_combine(incl, w) for w in zw.basis()] \
                    == lie.cocycles.basis(), label
                assert [vec_combine(incl, w) for w in bw.basis()] \
                    == lie.coboundaries.basis(), label


def test_degree_one_complexes_coincide(diamond_adj):
    lie = lie_cohomology(diamond_adj, 1)
    lei = leibniz_cohomology(diamond_adj, 1)
    assert lie.cocycles == lei.cocycles
    assert lie.coboundaries == lei.coboundaries
    # Inner derivations: image of ad has dimension dim - dim center.
    assert lie.b_dim == 3


def test_degree_one_trivial_cohomology_counts_generators(g54_triv):
    lie = lie_cohomology(g54_triv, 1)
    assert lie.b_dim == 0
    assert lie.h_dim == 2


def test_g54_trivial_degree_two_dimensions(g54_triv):
    lie = lie_cohomology(g54_triv, 2)
    assert lie.z_dim == 6
    assert lie.b_dim == 3
    assert lie.h_dim == 3
    full = leibniz_cohomology(g54_triv, 2)
    assert full.z_dim == 10
    assert full.b_dim == 3
    assert full.h_dim == 7
    assert symmetric_cocycle_space(g54_triv).dim == 3


def test_diamond_adjoint_degree_two_dimensions(diamond_adj):
    lie = lie_cohomology(diamond_adj, 2)
    full = leibniz_cohomology(diamond_adj, 2)
    assert lie.h_dim == 2
    assert full.h_dim == 4
    assert symmetric_cocycle_space(diamond_adj).dim == 1
    assert full.coboundaries == lie.coboundaries


def test_diamond_phis_are_independent_cocycles(diamond_adj, diamond_phis):
    full = leibniz_cohomology(diamond_adj, 2)
    span = Subspace(diamond_adj.cochain_dim(2), full.coboundaries.basis())
    for key in (3, 7, 11, 14):
        phi = diamond_phis[key]
        assert diamond_adj.is_cocycle(2, phi)
        assert not span.contains(phi)
        span.insert(phi)
    assert span.dim == full.b_dim + 4
    assert full.cocycles.contains_subspace(span)


def test_symmetric_cocycles_agree_with_intersection(diamond_adj):
    via_kernel = symmetric_cocycle_space(diamond_adj)
    sym_image = Subspace(diamond_adj.cochain_dim(2),
                         sym2_inclusion(diamond_adj))
    full = leibniz_cohomology(diamond_adj, 2)
    assert via_kernel == intersect(full.cocycles, sym_image)


def test_split_degree2_parts(diamond_adj, diamond_phis):
    rng = random.Random(11)
    psi = random_cochain(rng, diamond_adj, 2, entries=10)
    anti, sym = split_degree2(diamond_adj, psi)
    total = dict(anti)
    for k, v in sym.items():
        w = total.get(k)
        w = v if w is None else w + v
        if w:
            total[k] = w
        else:
            del total[k]
    assert total == psi
    for idx, v in anti.items():
        k, (i, j) = diamond_adj.unflatten(2, idx)
        assert anti.get(diamond_adj.flat_index(k, (j, i))) == -v
    for idx, v in sym.items():
        k, (i, j) = diamond_adj.unflatten(2, idx)
        assert sym.get(diamond_adj.flat_index(k, (j, i))) == v
    # Antisymmetric inputs split trivially.
    phi = diamond_phis[3]
    anti, sym = split_degree2(diamond_adj, phi)
    assert anti == phi and sym == {}


def test_bad_arguments():
    with pytest.raises(ValueError):
        CochainScheme(catalog("sl2"), "weird")
    scheme = CochainScheme(catalog("sl2"), "adjoint")
    with pytest.raises(ValueError):
        leibniz_cohomology(scheme, 0)
