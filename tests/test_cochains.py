"""Coboundary correctness against a literal evaluator, subcomplexes, and
the torus-weight route with the Cartan homotopy behind it, for the
cohomology and for the obstruction context."""

import random
import sys
from fractions import Fraction
from itertools import product
from math import comb
from types import SimpleNamespace

import pytest

from leibcoh import cochains
from leibcoh.algebras import (AlgebraSpec, catalog, change_basis,
                              is_right_leibniz)
from leibcoh import deformations
from leibcoh.cochains import (
    ClassCoordinates,
    CochainScheme,
    CohomologySpace,
    graded_cohomology,
    lie_delta_matrix,
    sym2_inclusion,
    wedge_basis,
)
from leibcoh.cochains import cocycle_basis
from leibcoh.deformations import (ObstructionContext, classify3,
                                  massey_products)
from leibcoh.families import family_catalog, family_names, specialize
from leibcoh.koszul import decompose_degree2, uncoupling_report
from leibcoh.linalg import (Echelon, Matrix, Solver, Subspace,
                            certified_kernel, image, kernel, quotient_reps,
                            vec_add_at, vec_add_scaled, vec_combine)
from leibcoh.scalars import ONE, Scalar
from tests.conftest import (I, embed_wedge, evaluate_cochain,
                            leibniz_cohomology, lift_zero_wedge,
                            oracle_delta_matrix, oracle_weight_block,
                            scatter_block, shear, split_degree2,
                            symmetric_cocycle_space, tensor_lie_cohomology,
                            tensor_lie_delta_matrix, tensor_lie_weight_block,
                            wedge_inclusion, weight_zero_part,
                            zero_wedge_positions)
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


LIE_ORACLE_CASES = [
    (" ".join([name, *map(str, params)]), catalog(name, *params))
    for name, params in [("diamond_e", ()), ("g54", ()), ("heisenberg", (2,)),
                         ("heisenberg", (3,)), ("gl", (2,)), ("gl", (3,)),
                         ("sl2_plus_abelian", (3,)), ("sl2", ())]
] + [(f"sheared {name}", sheared(name)) for name in ("diamond_e", "g54")]


@pytest.mark.parametrize("coefficients", ["adjoint", "trivial"])
@pytest.mark.parametrize("spec", [spec for _, spec in LIE_ORACLE_CASES],
                         ids=[label for label, _ in LIE_ORACLE_CASES])
def test_lie_delta_matrix_equals_the_tensor_route(spec, coefficients):
    # The Chevalley-Eilenberg columns against the tensor coboundary of
    # every arrangement read back at the increasing tuples, restricted to
    # weight 0, with each row's entries in the same order.
    scheme = CochainScheme(spec, coefficients)
    for n in range(4):
        mat = lie_delta_matrix(scheme, n)
        oracle = tensor_lie_weight_block(scheme, n)
        assert mat == oracle, n
        assert [list(r) for r in mat.rows] == [list(r) for r in oracle.rows]
        # The weight-0 tuples, numbered in order, at their positions
        # among all of them.
        wedges = scheme.zero_wedges(n)
        assert list(wedges.values()) == list(range(len(wedges))), n
        pos = {t: i for i, t in enumerate(wedge_basis(spec.dim, n))}
        assert [(k or 0) * len(pos) + pos[t] for k, t in wedges] \
            == zero_wedge_positions(scheme, n), n


def assert_lie_route_matches_the_whole_complex(scheme, n, where):
    """`graded_cohomology(scheme, n, lie=True)` against the antisymmetric
    complex eliminated in every weight (`tensor_lie_cohomology`): the
    same z, b and h, the nonzero weights counted in `acyclic_dim`, Z and
    B the whole RREF rows that lie in weight 0, and the same
    representatives."""
    lie = graded_cohomology(scheme, n, lie=True)
    whole = tensor_lie_cohomology(scheme, n)
    assert (lie.z_dim, lie.b_dim, lie.h_dim) \
        == (whole.cocycles.dim, whole.coboundaries.dim, whole.h_dim), where
    assert lie.acyclic_dim == whole.cocycles.dim - lie.cocycles.dim, where
    zero = set(zero_wedge_positions(scheme, n))
    for got, want in ((lie.cocycles, kernel(tensor_lie_delta_matrix(
                           scheme, n))),
                      (lie.coboundaries, image(tensor_lie_delta_matrix(
                          scheme, n - 1)))):
        assert lift_zero_wedge(scheme, n, got.basis()) \
            == [r for r in want.basis() if zero.issuperset(r)], where
    assert lie.reps == whole.reps, where
    return lie


def test_lie_cohomology_matches_the_full_complex_route():
    # Reference: Z is the full complex's cocycles inside the span of the
    # antisymmetric basis cochains, B the full coboundaries of the
    # antisymmetric (n-1)-cochains.  The sheared algebras carry Q(i)
    # coefficients into the embedded representatives.
    cases = [(" ".join([name, *map(str, params)]), catalog(name, *params))
             for name, params in [("diamond_e", ()), ("g54", ()),
                                  ("heisenberg", (2,)), ("sl2", ()),
                                  ("gl", (2,))]]
    cases += [(f"sheared {name}", sheared(name))
              for name in ("diamond_e", "g54")]
    for (label, spec), coeffs in product(cases, ("adjoint", "trivial")):
        scheme = CochainScheme(spec, coeffs)
        for n in (1, 2, 3):
            ambient = scheme.cochain_dim(n)
            incl = wedge_inclusion(scheme, n)
            z = intersect(leibniz_cohomology(scheme, n).cocycles,
                          Subspace(ambient, incl))
            b = Subspace(ambient, [
                scheme.delta_apply(n - 1, vec)
                for vec in wedge_inclusion(scheme, n - 1)])
            where = (label, coeffs, n)
            lie = assert_lie_route_matches_the_whole_complex(scheme, n, where)
            # Z and B stay in weight-0 increasing-tuple coordinates, as
            # the antisymmetric complex's own weight-0 echelons give them.
            assert lie.cocycles == kernel(lie_delta_matrix(scheme, n)), where
            assert lie.coboundaries \
                == image(lie_delta_matrix(scheme, n - 1)), where
            z0, b0 = weight_zero_part(scheme, n, z), weight_zero_part(
                scheme, n, b)
            assert embed_wedge(scheme, n, lie.cocycles) == z0, where
            assert embed_wedge(scheme, n, lie.coboundaries) == b0, where
            assert (lie.z_dim, lie.b_dim) == (z.dim, b.dim), where
            assert lie.acyclic_dim == z.dim - z0.dim == b.dim - b0.dim, where
            assert lie.reps == quotient_reps(z, b), where
            # Embedding keeps the antisymmetric complex's RREF rows as
            # they stand.
            for space, part in ((lie.cocycles, z0), (lie.coboundaries, b0)):
                assert [vec_combine(incl, w)
                        for w in lift_zero_wedge(scheme, n, space.basis())] \
                    == part.basis(), where


@pytest.mark.parametrize("spec,coeffs,n",
                         [(catalog("diamond_e"), "adjoint", 2),
                          (catalog("g54"), "trivial", 2),
                          (catalog("gl", 2), "adjoint", 3)],
                         ids=["diamond_e adjoint 2", "g54 trivial 2",
                              "gl 2 adjoint 3"])
def test_lie_cohomology_builds_no_echelon_as_wide_as_the_tensor_complex(
        monkeypatch, spec, coeffs, n):
    # Only the representatives are embedded in tensor coordinates; Z and
    # B are eliminated on the increasing tuples alone.
    scheme = CochainScheme(spec, coeffs)
    widths = []
    init = Echelon.__init__

    def recording(self, ncols, pivot_limit=None):
        widths.append(ncols)
        init(self, ncols, pivot_limit)

    with monkeypatch.context() as patch:
        patch.setattr(Echelon, "__init__", recording)
        space = graded_cohomology(scheme, n, lie=True)
    assert widths
    assert scheme.cochain_dim(n) not in widths
    assert space.reps == tensor_lie_cohomology(scheme, n).reps
    assert all(scheme.is_cocycle(n, r) for r in space.reps)


def test_degree_one_complexes_coincide(diamond_adj):
    lie = graded_cohomology(diamond_adj, 1, lie=True)
    lei = leibniz_cohomology(diamond_adj, 1)
    assert embed_wedge(diamond_adj, 1, lie.cocycles) == lei.cocycles
    assert embed_wedge(diamond_adj, 1, lie.coboundaries) == lei.coboundaries
    assert lie.reps == lei.reps
    # Inner derivations: image of ad has dimension dim - dim center.
    assert lie.b_dim == 3


def test_degree_one_trivial_cohomology_counts_generators(g54_triv):
    lie = graded_cohomology(g54_triv, 1, lie=True)
    assert lie.b_dim == 0
    assert lie.h_dim == 2


def test_g54_trivial_degree_two_dimensions(g54_triv):
    lie = graded_cohomology(g54_triv, 2, lie=True)
    assert lie.z_dim == 6
    assert lie.b_dim == 3
    assert lie.h_dim == 3
    full = leibniz_cohomology(g54_triv, 2)
    assert full.z_dim == 10
    assert full.b_dim == 3
    assert full.h_dim == 7
    assert symmetric_cocycle_space(g54_triv).dim == 3


def test_diamond_adjoint_degree_two_dimensions(diamond_adj):
    lie = graded_cohomology(diamond_adj, 2, lie=True)
    full = leibniz_cohomology(diamond_adj, 2)
    assert lie.h_dim == 2
    assert full.h_dim == 4
    assert symmetric_cocycle_space(diamond_adj).dim == 1
    assert full.coboundaries == embed_wedge(diamond_adj, 2, lie.coboundaries)


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


# --- Torus weights -------------------------------------------------------

def toral_elements(spec):
    """{h: [lambda_j]} for every basis element h with [e_j, h] =
    lambda_j e_j for every j, read off the brackets one pair at a time
    (central elements included)."""
    out = {}
    for h in range(spec.dim):
        lam = []
        for j in range(spec.dim):
            right = spec.bracket(j, h)
            if set(right) - {j}:
                break
            lam.append(right.get(j, Scalar(0)))
        else:
            out[h] = lam
    return out


def insertion(scheme, n, idx, h, slot, sign):
    """s on the degree-n basis cochain at idx: h put into the last (or
    first) argument, times (-1)^n * sign; (index, factor) or None."""
    d = scheme.dim
    k, tail = divmod(idx, d ** n) if scheme.adjoint else (0, idx)
    if slot == "last":
        rest, arg = divmod(tail, d)
    else:
        arg, rest = divmod(tail, d ** (n - 1))
    if arg != h:
        return None
    return k * d ** (n - 1) + rest, (-1) ** n * sign


def homotopy_mismatches(scheme, n, slot="last", sign=1):
    """(h, index) of every toral h and degree-n basis cochain where
    delta s + s delta differs from theta_h, checked matrix-free."""
    bad = []
    toral = toral_elements(scheme.spec)
    for idx in range(scheme.cochain_dim(n)):
        k, t = scheme.unflatten(n, idx)
        column = scheme._delta_column(n, idx)
        for h, lam in toral.items():
            out = {}
            for key, v in column.items():
                hit = insertion(scheme, n + 1, key, h, slot, sign)
                if hit:
                    vec_add_at(out, hit[0], hit[1] * v)
            hit = insertion(scheme, n, idx, h, slot, sign)
            if hit:
                for key, v in scheme._delta_column(n - 1, hit[0]).items():
                    vec_add_at(out, key, hit[1] * v)
            weight = lam[k] if scheme.adjoint else Scalar(0)
            for a in t:
                weight = weight - lam[a]
            if out != ({idx: weight} if weight else {}):
                bad.append((h, idx))
    return bad


def one_sided_torus():
    """Right Leibniz, not Lie: basis (h, x) with [x, h] = x."""
    return AlgebraSpec(2, {(1, 0): {1: ONE}}, kind="leibniz")


def one_sided_torus2():
    """Right Leibniz, not Lie: basis (h, x, y) with [x, h] = x,
    [y, h] = 2y and [h, x] = -x."""
    return AlgebraSpec(3, {(1, 0): {1: ONE}, (2, 0): {2: Scalar(2)},
                           (0, 1): {1: -ONE}}, kind="leibniz")


def left_skewed_torus():
    """Right Leibniz, not Lie: basis (h, x, y) with [x, h] = -x,
    [y, h] = -y, [h, x] = x and [h, y] = 2x, so [h, .] is not
    diagonal while [., h] is."""
    return AlgebraSpec(3, {(1, 0): {1: -ONE}, (2, 0): {2: -ONE},
                           (0, 1): {1: ONE}, (0, 2): {1: Scalar(2)}},
                       kind="leibniz")


HOMOTOPY_ALGEBRAS = [("sl2", catalog("sl2")), ("gl 2", catalog("gl", 2)),
                     ("gl 3", catalog("gl", 3)),
                     ("sl2_plus_abelian 2", catalog("sl2_plus_abelian", 2)),
                     ("one-sided torus", one_sided_torus()),
                     ("one-sided torus 2", one_sided_torus2()),
                     ("left-skewed torus", left_skewed_torus())]


@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
@pytest.mark.parametrize("label,spec", HOMOTOPY_ALGEBRAS,
                         ids=[label for label, _ in HOMOTOPY_ALGEBRAS])
def test_last_slot_insertion_is_a_cartan_homotopy(label, spec, coeffs):
    assert is_right_leibniz(spec)
    toral = toral_elements(spec)
    assert any(any(lam) for lam in toral.values()), label
    scheme = CochainScheme(spec, coeffs)
    for n in (1, 2, 3):
        assert homotopy_mismatches(scheme, n) == [], (label, n)


@pytest.mark.parametrize("slot,sign", [("last", -1), ("first", 1),
                                       ("first", -1)])
def test_a_wrong_homotopy_fails_the_identity(slot, sign):
    for coeffs in ("adjoint", "trivial"):
        scheme = CochainScheme(catalog("sl2"), coeffs)
        for n in (1, 2, 3):
            if slot == "first" and n == 1:
                continue  # one argument: the first slot is the last
            assert homotopy_mismatches(scheme, n, slot, sign), (coeffs, n)


def test_the_one_sided_torus_is_not_exact_in_degree_zero():
    # delta x = 0 although x has weight 1, so the nonzero weights are
    # acyclic only from degree 1 on, and B^1 counts the rank of delta
    # on the nonzero-weight 0-cochains, not their number.
    scheme = CochainScheme(one_sided_torus(), "adjoint")
    assert scheme.weights == [(Scalar(0),), (ONE,)]
    assert scheme.delta_apply(0, {1: ONE}) == {}
    assert scheme.acyclic_dim(1) == 0
    assert scheme.acyclic_dim(2) == scheme.cochain_dim(1) \
        - scheme.zero_dim(1)


def brute_weight(scheme, weights, n, idx):
    k, t = scheme.unflatten(n, idx)
    total = weights[k] if scheme.adjoint else (Scalar(0),) * len(weights[0])
    for a in t:
        total = tuple(x - y for x, y in zip(total, weights[a]))
    return total


def rescaled(spec, j, factor):
    """spec in the basis with e_j replaced by factor * e_j."""
    cols = [{i: factor if i == j else ONE} for i in range(spec.dim)]
    return change_basis(spec, Matrix.from_columns(spec.dim, cols))


def permuted(spec, seed):
    perm = random.Random(seed).sample(range(spec.dim), spec.dim)
    cols = [{perm[k]: ONE} for k in range(spec.dim)]
    return change_basis(spec, Matrix.from_columns(spec.dim, cols))


HALF = Scalar(Fraction(1, 2))
ONE_PLUS_I_THIRD = Scalar(Fraction(1, 3), Fraction(1, 3))
SMALL_TORI = [("sl2", catalog("sl2")), ("gl 2", catalog("gl", 2)),
              ("sl2_plus_abelian 2", catalog("sl2_plus_abelian", 2)),
              ("one-sided torus", one_sided_torus()),
              ("one-sided torus 2", one_sided_torus2()),
              ("left-skewed torus", left_skewed_torus()),
              ("gl 2, h times i", rescaled(catalog("gl", 2), 2, I)),
              ("gl 2, h times 1/2", rescaled(catalog("gl", 2), 2, HALF)),
              ("gl 2, h times (1+i)/3",
               rescaled(catalog("gl", 2), 2, ONE_PLUS_I_THIRD)),
              ("sl2_plus_abelian 2, permuted",
               permuted(catalog("sl2_plus_abelian", 2), 3))]


@pytest.mark.parametrize("label,spec", SMALL_TORI,
                         ids=[label for label, _ in SMALL_TORI])
def test_weight_zero_indices_and_counts_match_a_filter(label, spec):
    assert spec.dim <= 5
    for coeffs in ("adjoint", "trivial"):
        scheme = CochainScheme(spec, coeffs)
        weights = scheme.weights
        zero = (Scalar(0),) * len(weights[0])
        for n in range(5):
            every = [brute_weight(scheme, weights, n, idx)
                     for idx in range(scheme.cochain_dim(n))]
            assert [scheme.weight(n, idx)
                    for idx in range(scheme.cochain_dim(n))] == every
            expected = [idx for idx, w in enumerate(every) if w == zero]
            assert scheme.zero_indices(n) == expected, (label, coeffs, n)
            assert scheme.zero_dim(n) == len(expected)
            nonzero = sum(1 for w in every if w != zero)
            assert scheme.cochain_dim(n) - scheme.zero_dim(n) == nonzero
            sums = {}
            for t in product(range(spec.dim), repeat=n):
                key = tuple(sum((weights[a][i] for a in t), Scalar(0))
                            for i in range(len(zero)))
                sums[key] = sums.get(key, 0) + 1
            assert scheme._sum_counts(n) == sums, (label, n)


def test_the_weights_are_read_off_the_toral_elements():
    gl3 = CochainScheme(catalog("gl", 3))
    # The two traceless diagonal differences grade; the identity, a
    # central toral element, has every weight 0 and is left out.
    assert len(gl3.weights[0]) == 2
    assert all(w == (Scalar(0),) * 2 for w in gl3.weights[6:])
    # Read as ints: times the lcm of the denominators, with a real and
    # an imaginary entry, each left out when it is 0 for every element.
    specs = [catalog(name, *params) for name, params in CATALOG_CASES]
    for spec in specs + [spec for _, spec in SMALL_TORI + TORAL_LADDER]:
        weights = CochainScheme(spec).weights
        assert all(type(x) is int for w in weights for x in w), spec.name
    imaginary = CochainScheme(rescaled(catalog("gl", 2), 2, I))
    assert imaginary.weights[0] == (-2,)
    halved = CochainScheme(rescaled(catalog("gl", 2), 2, HALF))
    assert halved.weights[0] == (-1,)
    non_real = CochainScheme(rescaled(catalog("gl", 2), 2, ONE_PLUS_I_THIRD))
    assert non_real.weights[0] == (-2, -2)
    # With no toral element every weight is that of the empty torus.
    for spec in (catalog("heisenberg", 2), catalog("diamond_e"),
                 catalog("g54"), catalog("abelian", 3), sheared("g54")):
        assert CochainScheme(spec).weights == [()] * spec.dim


def graded_route_agrees(spec, coeffs, n):
    graded = graded_cohomology(CochainScheme(spec, coeffs), n)
    full = leibniz_cohomology(CochainScheme(spec, coeffs), n)
    return ((graded.z_dim, graded.b_dim, graded.h_dim, graded.reps)
            == (full.z_dim, full.b_dim, full.h_dim, full.reps))


TORAL_LADDER = [("gl 2", catalog("gl", 2)), ("gl 3", catalog("gl", 3)),
                ("sl2_plus_abelian 3", catalog("sl2_plus_abelian", 3)),
                ("sl2_plus_abelian 6", catalog("sl2_plus_abelian", 6)),
                ("gl 2, permuted", permuted(catalog("gl", 2), 1)),
                ("gl 3, permuted", permuted(catalog("gl", 3), 2)),
                ("sl2_plus_abelian 3, permuted",
                 permuted(catalog("sl2_plus_abelian", 3), 5)),
                ("gl 2, h times i", rescaled(catalog("gl", 2), 2, I)),
                ("gl 3, h times i", rescaled(catalog("gl", 3), 7, I)),
                ("one-sided torus 2", one_sided_torus2()),
                ("left-skewed torus", left_skewed_torus())]


@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
@pytest.mark.parametrize("label,spec", TORAL_LADDER,
                         ids=[label for label, _ in TORAL_LADDER])
def test_graded_route_equals_the_full_complex(label, spec, coeffs):
    assert CochainScheme(spec, coeffs).weights[0] != ()
    for n in (1, 2, 3):
        assert graded_route_agrees(spec, coeffs, n), (label, coeffs, n)


TORUS_FREE = [("diamond_e", catalog("diamond_e")), ("g54", catalog("g54")),
              ("heisenberg 2", catalog("heisenberg", 2)),
              ("sheared g54", sheared("g54"))]


@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
@pytest.mark.parametrize("label,spec", TORUS_FREE,
                         ids=[label for label, _ in TORUS_FREE])
def test_the_empty_torus_route_equals_the_full_complex(label, spec, coeffs):
    assert CochainScheme(spec, coeffs).weights == [()] * spec.dim
    for n in (1, 2, 3):
        assert graded_route_agrees(spec, coeffs, n), (label, coeffs, n)


# The benchmark ladder, heisenberg 3 torus-free, and a Q(i) shear.
ZERO_DIM_CASES = [("diamond_e", catalog("diamond_e")), ("g54", catalog("g54")),
                  ("heisenberg 2", catalog("heisenberg", 2)),
                  ("heisenberg 3", catalog("heisenberg", 3)),
                  ("gl 2", catalog("gl", 2)), ("gl 3", catalog("gl", 3)),
                  ("sl2_plus_abelian 3", catalog("sl2_plus_abelian", 3)),
                  ("sheared diamond_e", sheared("diamond_e"))]


@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
@pytest.mark.parametrize("label,spec", ZERO_DIM_CASES,
                         ids=[label for label, _ in ZERO_DIM_CASES])
def test_zero_dim_counts_the_blocks_both_routes_build(label, spec, coeffs):
    # The counts the degree-3 guard prints are the shapes of the
    # weight-0 blocks `graded_cohomology` builds for degrees 1-3, of
    # the full complex and of the antisymmetric one.
    scheme = CochainScheme(spec, coeffs)
    for lie, block in ((False, scheme.weight_block),
                       (True, lambda n: lie_delta_matrix(scheme, n))):
        for n in (1, 2, 3):
            size = scheme.zero_dim(n, lie)
            assert block(n - 1).nrows == size == block(n).ncols, (lie, n)


def test_one_scheme_caches_both_complexes_of_a_degree_apart():
    scheme = CochainScheme(catalog("diamond_e"))
    lie = graded_cohomology(scheme, 2, lie=True)
    full = graded_cohomology(scheme, 2)
    assert (full.z_dim, full.b_dim, full.h_dim) == (15, 11, 4)
    assert (lie.z_dim, lie.b_dim, lie.h_dim) == (13, 11, 2)
    assert graded_cohomology(scheme, 2) is full
    assert graded_cohomology(scheme, 2, lie=True) is lie


WRONG_WEIGHTS = [
    # e_0 of gl 2 (weight -2) given weight -1: delta leaves weight 0.
    lambda w: [(Scalar(-1),)] + w[1:],
    # e_0 given weight 0, so its cochains are counted as weight 0.
    lambda w: [(Scalar(0),)] + w[1:],
    # the identity given a weight of its own.
    lambda w: w[:3] + [(ONE,)],
]


@pytest.mark.parametrize("wrong", range(len(WRONG_WEIGHTS)))
def test_a_wrong_weight_fails_the_equivalence_gate(monkeypatch, wrong):
    spec = catalog("gl", 2)
    right = cochains._toral_weights

    def mistaken(s):
        return WRONG_WEIGHTS[wrong](right(s))

    monkeypatch.setattr(cochains, "_toral_weights", mistaken)
    if wrong == 0:
        # A weight the coboundary does not keep is refused, not dropped.
        with pytest.raises(ValueError, match="leaves weight 0"):
            graded_cohomology(CochainScheme(spec), 2)
    caught = []
    for coeffs in ("adjoint", "trivial"):
        for n in (1, 2, 3):
            try:
                caught.append(not graded_route_agrees(spec, coeffs, n))
            except ValueError:
                caught.append(True)
    assert any(caught)


def test_torus_free_inputs_take_the_full_complex_and_bad_input_is_refused():
    # The empty torus: weight 0 is every cochain, and nothing is acyclic.
    scheme = CochainScheme(catalog("heisenberg", 2), "adjoint")
    space = graded_cohomology(scheme, 2)
    assert scheme.zero_indices(2) == list(range(scheme.cochain_dim(2)))
    assert space.acyclic_dim == 0
    full = leibniz_cohomology(scheme, 2)
    assert space.cocycles == full.cocycles
    assert space.coboundaries == full.coboundaries
    assert space.reps == full.reps
    with pytest.raises(ValueError):
        graded_cohomology(CochainScheme(catalog("gl", 2)), 0)
    # Toral (e_0 acts on e_1 by 1) but not right Leibniz: refused before
    # the weight-0 block is built.
    not_leibniz = CochainScheme(AlgebraSpec(
        2, {(1, 0): {1: ONE}, (0, 1): {0: ONE}}, kind="leibniz"))
    assert not_leibniz.weights[0] != ()
    with pytest.raises(ValueError, match="not right Leibniz"):
        graded_cohomology(not_leibniz, 2)


def test_massey_context_reads_the_weight_zero_block(monkeypatch):
    scheme = CochainScheme(catalog("sl2_plus_abelian", 3), "adjoint")

    def forbidden(*args):
        raise AssertionError("the context built the full complex")

    with monkeypatch.context() as patch:
        patch.setattr(CochainScheme, "delta_matrix", forbidden)
        context = ObstructionContext(scheme)
    assert isinstance(context.space3, CohomologySpace)
    full = leibniz_cohomology(CochainScheme(scheme.spec, "adjoint"), 3)
    space = context.space3
    assert (space.z_dim, space.b_dim, space.h_dim, space.reps) \
        == (full.z_dim, full.b_dim, full.h_dim, full.reps)
    assert space.z_dim == 246


def full_context(spec):
    """The obstruction context of the whole complex, built here from
    `leibniz_cohomology` on a scheme graded by the empty torus whatever
    its toral elements (weight 0 is every index, nothing is acyclic),
    `ClassCoordinates` and one `Solver` of the whole δ2: the reference
    for the weight-graded one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cochains, "_toral_weights", lambda s: [()] * s.dim)
        scheme = CochainScheme(spec, "adjoint")
    space3 = leibniz_cohomology(scheme, 3)
    return SimpleNamespace(space3=space3,
                           classes=ClassCoordinates(scheme, space3),
                           witness=Solver(scheme.delta_matrix(2)).solve)


def random_combination(rng, vectors, count=3):
    out = {}
    for vec in rng.sample(vectors, min(count, len(vectors))):
        vec_add_scaled(out, vec, Scalar(rng.randint(-3, 3), rng.randint(-1, 1)))
    return out


def obstruction_inputs(scheme, full, seed):
    """3-cochains for classify3: cocycle and coboundary combinations
    (several weights at once), coboundaries of 2-cochains of one
    nonzero weight, cocycles spoiled only in a nonzero weight (anywhere
    on the empty torus, which has no other), and {}."""
    rng = random.Random(seed)
    zero = (Scalar(0),) * len(scheme.weights[0])
    full3 = full.space3
    z3, b3 = full3.cocycles.basis(), full3.coboundaries.basis()
    out = [{}]
    out += [random_combination(rng, z3) for _ in range(4)]
    out += [random_combination(rng, b3, 5) for _ in range(4)]
    by_weight = {}
    for idx in range(scheme.cochain_dim(2)):
        by_weight.setdefault(scheme.weight(2, idx), []).append(idx)
    nonzero = [w for w in by_weight if w != zero]
    for w in rng.sample(nonzero, min(3, len(nonzero))):
        x = {idx: Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
             for idx in rng.sample(by_weight[w], min(4, len(by_weight[w])))}
        out.append(scheme.delta_apply(2, x))
    spoilers = [idx for idx in range(scheme.cochain_dim(3))
                if (zero == () or scheme.weight(3, idx) != zero)
                and scheme.delta_apply(3, {idx: ONE})]
    for idx in rng.sample(spoilers, min(3, len(spoilers))):
        chi = random_combination(rng, z3)
        vec_add_at(chi, idx, ONE)
        out.append(chi)
    return out


OBSTRUCTION_TORI = SMALL_TORI + [("sl2_plus_abelian 3",
                                  catalog("sl2_plus_abelian", 3)),
                                 ("diamond_e", catalog("diamond_e")),
                                 ("g54", catalog("g54"))]


@pytest.mark.parametrize("label,spec", OBSTRUCTION_TORI,
                         ids=[label for label, _ in OBSTRUCTION_TORI])
def test_graded_obstruction_context_equals_the_full_complex(
        monkeypatch, label, spec):
    scheme = CochainScheme(spec, "adjoint")
    context = ObstructionContext(scheme)
    assert isinstance(context.space3, CohomologySpace)
    full = full_context(spec)
    verdicts = set()
    for chi in obstruction_inputs(scheme, full, seed=label):
        got = classify3(context, chi)
        assert got == classify3(full, chi), label
        if got.witness:
            assert list(got.witness) == sorted(got.witness)
            assert scheme.delta_apply(2, got.witness) == got.cochain
        verdicts.add(got.verdict)
    assert {None, "zero", "coboundary"} <= verdicts, label

    generators = leibniz_cohomology(scheme, 2).cocycles.basis()
    graded = [massey_products(scheme, [g], 3) for g in generators]
    monkeypatch.setattr(deformations, "ObstructionContext",
                        lambda scheme: full)
    assert graded == [massey_products(scheme, [g], 3) for g in generators]


@pytest.mark.parametrize("name,params", [("diamond_e", ()),
                                         ("sl2_plus_abelian", (3,))],
                         ids=["diamond_e", "sl2_plus_abelian 3"])
def test_a_second_obstruction_context_eliminates_nothing(
        monkeypatch, name, params):
    # `graded_cohomology` is cached per degree on the scheme,
    # so the context `massey_products` builds on every call eliminates
    # δ3's weight-0 block once per scheme, with a torus or without.
    scheme = CochainScheme(catalog(name, *params), "adjoint")
    first = ObstructionContext(scheme)

    def forbidden(*args, **kwargs):
        raise AssertionError("the degree-3 cohomology is already built")

    modules = [module for module_name, module in list(sys.modules.items())
               if module_name.split(".")[0] == "leibcoh"]
    with monkeypatch.context() as patch:
        for original in (kernel, image, certified_kernel):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch.setattr(module, attr, forbidden)
        second = ObstructionContext(scheme)
        assert graded_cohomology(scheme, 3) is first.space3
    assert second.space3 is first.space3
    assert graded_cohomology(scheme, 2) is not first.space3
    assert graded_cohomology(scheme, 2) is graded_cohomology(scheme, 2)


def assert_same_rows(got, want, label):
    # Equal as dicts and in key order: an elimination reads them in
    # that order.
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols), label
    assert got.rows == want.rows, label
    assert [list(r) for r in got.rows] == [list(r) for r in want.rows], label


def some_weights(scheme, n, count=3):
    """None and up to `count` nonzero weights of the degree-n cochains,
    in a fixed order."""
    zero = scheme._zero
    seen = {}
    for idx in range(min(scheme.cochain_dim(n), 4000)):
        w = scheme.weight(n, idx)
        if w != zero:
            seen.setdefault(w)
    return [None] + list(seen)[:count]


BLOCK_CASES = [("diamond_e", catalog("diamond_e")), ("g54", catalog("g54")),
               ("heisenberg 2", catalog("heisenberg", 2)),
               ("heisenberg 3", catalog("heisenberg", 3)),
               ("gl 2", catalog("gl", 2)), ("gl 3", catalog("gl", 3)),
               ("sl2_plus_abelian 3", catalog("sl2_plus_abelian", 3)),
               ("sheared diamond_e", sheared("diamond_e")),
               ("sheared g54", sheared("g54"))]


@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
@pytest.mark.parametrize("label,spec", BLOCK_CASES,
                         ids=[label for label, _ in BLOCK_CASES])
def test_weight_blocks_equal_the_oracle_restricted(label, spec, coeffs):
    # Degree 3 of the 9-dimensional gl 3 only at weight 0: its nonzero
    # weights are checked in degrees 0-2 and by the massey test below.
    scheme = CochainScheme(spec, coeffs)
    for n in range(4):
        weights = [None] if n == 3 and spec.dim > 7 else \
            some_weights(scheme, n)
        for weight in weights:
            got = scheme.weight_block(n, weight)
            want = oracle_weight_block(scheme, n, weight)
            assert_same_rows(got, want, (label, coeffs, n, weight))


@pytest.mark.parametrize("name,params", [("sl2_plus_abelian", (6,)),
                                         ("gl", (3,))],
                         ids=["sl2_plus_abelian 6", "gl 3"])
def test_degree_three_blocks_equal_the_column_scatter(name, params):
    # The pushed-forward columns scattered one by one, as the build did
    # before tails were shared: sl2_plus_abelian 6 has seven weight-0
    # heads, gl 3 three.
    scheme = CochainScheme(catalog(name, *params), "adjoint")
    got = scheme.weight_block(3)
    want = scatter_block(scheme, 3, scheme.zero_indices(3),
                         scheme.zero_indices(4))
    assert_same_rows(got, want, name)


def test_the_obstruction_context_blocks_equal_the_oracle(monkeypatch):
    # The nonzero weights `witness` solves in on gl 3's generator 1.
    scheme = CochainScheme(catalog("gl", 3), "adjoint")
    built = []
    block = CochainScheme.weight_block

    def recorded(self, n, weight=None):
        built.append((n, weight))
        return block(self, n, weight)

    monkeypatch.setattr(CochainScheme, "weight_block", recorded)
    massey_products(scheme, [cocycle_basis(scheme, 2)[0]], 2)
    nonzero = [(n, w) for n, w in built if w is not None]
    assert nonzero and all(n == 2 for n, _ in nonzero)
    assert len({w for _, w in nonzero}) == len(nonzero)
    for n, weight in nonzero:
        assert_same_rows(block(scheme, n, weight),
                         oracle_weight_block(scheme, n, weight), weight)


def test_delta_matrix_and_every_weight_block_share_one_builder(monkeypatch):
    scheme = CochainScheme(catalog("gl", 2), "adjoint")
    weight = scheme.weight(1, 1)
    assert weight != scheme._zero

    def forbidden(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(CochainScheme, "_block", forbidden)
    for build in (lambda: scheme.delta_matrix(1),
                  lambda: scheme.weight_block(1),
                  lambda: scheme.weight_block(1, weight)):
        with pytest.raises(AssertionError, match="built"):
            build()


def test_a_perturbed_weight_is_refused_in_every_weight(monkeypatch):
    # e_0 of gl 2 given weight -1 instead of -2, as in WRONG_WEIGHTS[0].
    right = cochains._toral_weights
    monkeypatch.setattr(cochains, "_toral_weights",
                        lambda s: WRONG_WEIGHTS[0](right(s)))
    adjoint = CochainScheme(catalog("gl", 2), "adjoint")
    trivial = CochainScheme(catalog("gl", 2), "trivial")
    with pytest.raises(ValueError, match="the coboundary leaves weight 0"):
        adjoint.weight_block(1)
    for scheme, n, weight in ((adjoint, 0, (Scalar(-1),)),
                              (adjoint, 1, (Scalar(2),)),
                              (trivial, 2, (Scalar(1),))):
        with pytest.raises(ValueError,
                           match="the coboundary leaves its weight"):
            scheme.weight_block(n, weight)


@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
def test_a_perturbed_weight_is_refused_by_the_antisymmetric_block(
        monkeypatch, coeffs):
    # As in WRONG_WEIGHTS[0]: a Chevalley-Eilenberg term that leaves
    # weight 0 is refused, not dropped, and so is a candidate 3-form of
    # the uncoupling count with no weight-0 row.
    right = cochains._toral_weights
    monkeypatch.setattr(cochains, "_toral_weights",
                        lambda s: WRONG_WEIGHTS[0](right(s)))
    spec = catalog("gl", 2)
    degrees = (1, 2, 3) if coeffs == "adjoint" else (1, 2)
    for n in degrees:
        with pytest.raises(ValueError,
                           match="the coboundary leaves weight 0"):
            lie_delta_matrix(CochainScheme(spec, coeffs), n)
    with pytest.raises(KeyError):
        uncoupling_report(spec)


def test_the_antisymmetric_routes_build_only_weight_zero_blocks(
        monkeypatch):
    # gl 3's whole antisymmetric coboundaries have d C(d, m) rows for
    # adjoint coefficients; its weight-0 blocks have 3, 15, 42, 84, 120.
    spec = catalog("gl", 3)
    d = spec.dim
    whole = {d * comb(d, m) for m in range(1, 5)}
    shapes = []
    build = Matrix.from_columns

    def recorded(nrows, columns):
        shapes.append(nrows)
        return build(nrows, columns)

    monkeypatch.setattr(Matrix, "from_columns", recorded)
    for request in (lambda: graded_cohomology(CochainScheme(spec), 3,
                                              lie=True),
                    lambda: decompose_degree2(spec),
                    lambda: uncoupling_report(spec)):
        shapes.clear()
        request()
        assert shapes and not whole.intersection(shapes), shapes


GAUSSIAN_LIE_CASES = [("sheared diamond_e", sheared("diamond_e")),
                      ("sheared g54", sheared("g54")),
                      ("gl 2, h times i", rescaled(catalog("gl", 2), 2, I))]


@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
@pytest.mark.parametrize("label,spec", GAUSSIAN_LIE_CASES,
                         ids=[label for label, _ in GAUSSIAN_LIE_CASES])
def test_lie_cohomology_equals_the_whole_complex_over_q_i(label, spec,
                                                          coeffs):
    # The shears are graded by the empty torus, so nothing is acyclic;
    # gl 2 with its basis element h scaled by i has the non-real
    # weights +-2i, and its nonzero weights are counted.
    scheme = CochainScheme(spec, coeffs)
    torus_free = label.startswith("sheared")
    assert torus_free == (scheme.weights[0] == ())
    for n in (1, 2, 3):
        lie = assert_lie_route_matches_the_whole_complex(
            scheme, n, (label, coeffs, n))
        if torus_free:
            assert lie.acyclic_dim == 0
        elif n > 1:
            assert lie.acyclic_dim > 0
