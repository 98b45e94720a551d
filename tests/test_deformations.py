"""Composition products, defect series, obstruction ledgers, versal checks."""

import io
import random
import sys
from itertools import product
from math import comb

import pytest

from leibcoh import cli, deformations
from leibcoh.algebras import AlgebraSpec, catalog
from leibcoh.cochains import (
    ClassCoordinates,
    CochainScheme,
    cocycle_basis,
    graded_cohomology,
)
from leibcoh.deformations import (
    Deformation,
    ObstructionContext,
    _monomials,
    bracket2,
    classify3,
    comp2,
    massey_products,
    mu0_cochain,
    verify_versal,
)
from leibcoh.formats import algebra_to_document, dumps_canonical
from leibcoh.linalg import Solver, Subspace, image, kernel, vec_add_scaled
from leibcoh.scalars import ONE, Scalar
from tests.conftest import (diamond_phi_basis, evaluate_cochain,
                            filtered_monomials)


def literal_comp_at(scheme, phi, psi, args):
    """phi(psi(x,y),z) - phi(psi(x,z),y) - phi(x,psi(y,z)) at basis args."""
    x, y, z = ({a: ONE} for a in args)
    out = {}
    first = evaluate_cochain(scheme, phi, [evaluate_cochain(scheme, psi, [x, y]), z])
    vec_add_scaled(out, first, ONE)
    second = evaluate_cochain(scheme, phi, [evaluate_cochain(scheme, psi, [x, z]), y])
    vec_add_scaled(out, second, -ONE)
    third = evaluate_cochain(scheme, phi, [x, evaluate_cochain(scheme, psi, [y, z])])
    vec_add_scaled(out, third, -ONE)
    return out


def random_cochain(rng, scheme, n, entries=6):
    size = scheme.cochain_dim(n)
    data = {}
    for _ in range(entries):
        v = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
        if v:
            data[rng.randrange(size)] = v
    return data


def test_comp2_matches_literal_evaluation():
    rng = random.Random(31)
    for spec in (catalog("diamond_e"), catalog("sl2")):
        scheme = CochainScheme(spec, "adjoint")
        for _ in range(4):
            phi = random_cochain(rng, scheme, 2)
            psi = random_cochain(rng, scheme, 2)
            composed = comp2(scheme, phi, psi)
            for args in product(range(spec.dim), repeat=3):
                got = evaluate_cochain(scheme, composed, [{a: ONE} for a in args])
                assert got == literal_comp_at(scheme, phi, psi, args)


def test_base_defect_is_comp_with_itself():
    # Leibniz base brackets have vanishing defect.
    for name in ("diamond_e", "g54", "sl2"):
        scheme = CochainScheme(catalog(name), "adjoint")
        mu0 = mu0_cochain(scheme)
        assert comp2(scheme, mu0, mu0) == {}
    # A bracket violating the identity shows its literal defect.
    broken = AlgebraSpec(3, {
        (0, 1): {2: ONE}, (1, 0): {2: -ONE},
        (1, 2): {0: ONE}, (2, 1): {0: -ONE},
        (2, 0): {0: ONE}, (0, 2): {0: -ONE},
    })
    scheme = CochainScheme(broken, "adjoint")
    mu0 = mu0_cochain(scheme)
    defect = comp2(scheme, mu0, mu0)
    assert defect
    for args in product(range(3), repeat=3):
        x, y, z = ({a: ONE} for a in args)
        expect = {}
        vec_add_scaled(expect, broken.bracket_vec(broken.bracket_vec(x, y), z), ONE)
        vec_add_scaled(expect, broken.bracket_vec(broken.bracket_vec(x, z), y), -ONE)
        vec_add_scaled(expect, broken.bracket_vec(x, broken.bracket_vec(y, z)), -ONE)
        assert evaluate_cochain(scheme, defect, [x, y, z]) == expect


def test_comp2_tolerates_explicit_zero_entries():
    # Sparse cochains should never store zeros, but a denormalized input
    # must not crash the accumulator.
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phi = {scheme.flat_index(0, (1, 2)): ONE,
           scheme.flat_index(1, (0, 3)): Scalar(0)}
    clean = {scheme.flat_index(0, (1, 2)): ONE}
    assert comp2(scheme, phi, phi) == comp2(scheme, clean, clean)
    assert bracket2(scheme, phi, clean) == bracket2(scheme, clean, clean)


def test_bracket_with_mu0_is_minus_coboundary():
    rng = random.Random(17)
    for name in ("diamond_e", "g54"):
        scheme = CochainScheme(catalog(name), "adjoint")
        mu0 = mu0_cochain(scheme)
        for _ in range(5):
            phi = random_cochain(rng, scheme, 2)
            lhs = bracket2(scheme, mu0, phi)
            rhs = {k: -v for k, v in scheme.delta_apply(2, phi).items()}
            assert lhs == rhs


def test_defect_series_of_linear_term():
    rng = random.Random(23)
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phi = random_cochain(rng, scheme, 2, entries=8)
    deform = Deformation(scheme, ("t",), {(1,): phi})
    series = deform.defect_series()
    assert (0,) not in series
    linear = series.get((1,), {})
    assert linear == {k: -v for k, v in scheme.delta_apply(2, phi).items()}
    assert series.get((2,), {}) == comp2(scheme, phi, phi)


def test_defect_series_matches_recursion():
    rng = random.Random(29)
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    terms = {
        (1, 0): random_cochain(rng, scheme, 2),
        (0, 1): random_cochain(rng, scheme, 2),
        (1, 1): random_cochain(rng, scheme, 2),
        (2, 0): random_cochain(rng, scheme, 2),
    }
    deform = Deformation(scheme, ("t", "s"), terms)
    series = deform.defect_series()
    degrees = {m for m in series}
    for m in degrees:
        if sum(m) == 0:
            continue
        expect = {}
        vec_add_scaled(expect, scheme.delta_apply(2, terms.get(m, {})), -ONE)
        for e1 in product(range(m[0] + 1), range(m[1] + 1)):
            if sum(e1) == 0 or e1 == m:
                continue
            e2 = (m[0] - e1[0], m[1] - e1[1])
            t1, t2 = terms.get(e1), terms.get(e2)
            if t1 and t2:
                vec_add_scaled(expect, comp2(scheme, t1, t2), ONE)
        assert series.get(m, {}) == expect, m


def diamond_massey(order):
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    return massey_products(
        scheme,
        [phis[3], phis[7], phis[11], phis[14]],
        order,
        params=("t", "s", "u", "w"),
    )


def test_order_two_verdicts():
    # The mixed product of the first two generators is a nonzero class:
    # the combined two-parameter bracket has Jacobi defect -ts e4 at
    # (e2, e3, e4) and no 2-cochain bounds it, so (1,1,0,0) blocks.
    report = diamond_massey(2)
    expected = {
        (2, 0, 0, 0): "zero",
        (0, 2, 0, 0): "zero",
        (0, 0, 0, 2): "zero",
        (0, 0, 2, 0): "nontrivial",
        (1, 1, 0, 0): "nontrivial",
        (1, 0, 1, 0): "nontrivial",
        (1, 0, 0, 1): "nontrivial",
        (0, 1, 1, 0): "coboundary",
        (0, 1, 0, 1): "coboundary",
        (0, 0, 1, 1): "nontrivial",
    }
    for monomial, verdict in expected.items():
        rec = report.record(monomial)
        assert rec.status == "defined", monomial
        assert rec.verdict == verdict, monomial
    assert len([r for r in report.records if r.degree == 2]) == 10


def test_coboundary_witnesses_solve_their_equations():
    report = diamond_massey(3)
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    t_su = report.witnesses[(0, 1, 1, 0)]
    assert scheme.delta_apply(2, t_su) == bracket2(scheme, phis[7], phis[11])
    t_sw = report.witnesses[(0, 1, 0, 1)]
    assert scheme.delta_apply(2, t_sw) == bracket2(scheme, phis[7], phis[14])
    # Zero-verdict monomials carry the zero witness.
    assert report.witnesses[(2, 0, 0, 0)] == {}
    # Blocked monomials carry none.
    assert (1, 1, 0, 0) not in report.witnesses


def test_order_three_defined_set_and_verdicts():
    report = diamond_massey(3)
    defined = {r.monomial: r.verdict for r in report.records
               if r.status == "defined" and r.degree == 3}
    assert defined == {
        (3, 0, 0, 0): "zero",
        (0, 3, 0, 0): "zero",
        (0, 0, 0, 3): "zero",
        (0, 2, 1, 0): "nontrivial",
        (0, 2, 0, 1): "coboundary",
        (0, 1, 0, 2): "zero",
    }
    # The one nontrivial triple product stays nontrivial after quotienting
    # by every witness choice available to it.
    rec = report.record((0, 2, 1, 0))
    assert rec.nontrivial_mod_indeterminacy is True
    assert 0 < rec.indeterminacy_dim < report.hl3_dim
    # Everything else in degree 3 is undefined, each with a recorded
    # blocking partition.
    for r in report.records:
        if r.degree == 3 and r.monomial not in defined:
            assert r.status == "undefined"
            assert r.blocking


def test_triple_product_verdict_survives_other_witnesses():
    # Changing the second-order witnesses by arbitrary 2-cocycles moves
    # the third-order obstruction exactly inside the recorded
    # indeterminacy span, so the nontrivial verdict for (0,2,1,0) is not
    # an artifact of the deterministic witness.
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    report = diamond_massey(3)
    rec = report.record((0, 2, 1, 0))
    space3 = graded_cohomology(scheme, 3)
    classes = ClassCoordinates(scheme, space3)
    zl2 = kernel(scheme.delta_matrix(2)).basis()
    rng = random.Random(11)
    base = report.witnesses[(0, 1, 1, 0)]
    for _ in range(4):
        shift = {}
        for eta in rng.sample(zl2, 3):
            vec_add_scaled(shift, eta, Scalar(rng.randint(-2, 2)))
        t_su = dict(base)
        vec_add_scaled(t_su, shift, ONE)
        t_s2 = {}
        vec_add_scaled(t_s2, zl2[rng.randrange(len(zl2))],
                       Scalar(rng.randint(-2, 2)))
        obstruction = bracket2(scheme, phis[7], t_su)
        vec_add_scaled(obstruction, bracket2(scheme, phis[11], t_s2), ONE)
        coords = classes.coords(obstruction)
        assert any(coords), "class must stay nonzero"
        delta = {i: a - b for i, (a, b) in enumerate(zip(coords, rec.class_coords))
                 if a != b}
        span = Subspace(len(coords))
        for eta in zl2:
            for gen in (phis[7], phis[11]):
                row = classes.coords(bracket2(scheme, gen, eta))
                span.insert({i: v for i, v in enumerate(row) if v})
        assert span.contains(delta)
        assert not span.contains({i: v for i, v in enumerate(coords) if v})


def test_order_four_outcomes():
    report = diamond_massey(4)
    s2w2 = report.record((0, 2, 0, 2))
    assert s2w2.status == "defined"
    assert s2w2.verdict == "nontrivial"
    assert s2w2.nontrivial_mod_indeterminacy is True
    for monomial in [(1, 2, 1, 0), (1, 2, 0, 1), (0, 2, 1, 1)]:
        assert report.record(monomial).status == "undefined"


def test_order_five_has_no_essential_obstructions():
    report = diamond_massey(5)
    for rec in report.records:
        if rec.degree == 5 and rec.status == "defined":
            if rec.verdict == "nontrivial":
                assert rec.nontrivial_mod_indeterminacy is False, rec.monomial


def test_classify3_verdicts_and_witness():
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    context = ObstructionContext(scheme)
    zero = classify3(context, {})
    assert zero.closed and zero.verdict == "zero" and zero.witness == {}
    cob = classify3(context, bracket2(scheme, phis[7], phis[11]))
    assert cob.verdict == "coboundary"
    assert scheme.delta_apply(2, cob.witness) == cob.cochain
    hard = classify3(context, bracket2(scheme, phis[11], phis[11]))
    assert hard.verdict == "nontrivial"
    assert hard.witness is None
    assert any(hard.class_coords)
    # A non-cocycle is flagged rather than classified.
    stray = {scheme.flat_index(0, (1, 2, 3)): ONE, scheme.flat_index(2, (0, 0, 1)): ONE}
    assert not scheme.is_cocycle(3, stray)
    open_case = classify3(context, stray)
    assert not open_case.closed and open_case.verdict is None


def test_classify3_reads_the_built_context_without_eliminating(monkeypatch):
    # The context eliminates once per matrix it needs: kernel(δ3) and
    # image(δ2) for the cohomology when it is built, and one Solver of
    # δ2 (the diamond has one weight) at the first witness.  Classifying
    # afterwards needs no elimination and no coboundary.
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    solver_init = Solver.__init__
    built = []

    def counted(self, m):
        built.append(m)
        solver_init(self, m)

    monkeypatch.setattr(Solver, "__init__", counted)
    context = ObstructionContext(scheme)
    assert built == []
    cochains = [bracket2(scheme, phis[a], phis[b])
                for a in phis for b in phis if a <= b]
    cochains += [{}, scheme.delta_apply(2, {scheme.flat_index(0, (1, 2)): ONE}),
                 {scheme.flat_index(0, (1, 2, 3)): ONE}]
    expected = [classify3(context, chi) for chi in cochains]
    assert {oc.verdict for oc in expected} == \
        {"zero", "coboundary", "nontrivial", None}
    assert built == [scheme.delta_matrix(2)]

    def forbidden(*args, **kwargs):
        raise AssertionError("classify3 must not eliminate or apply δ")

    monkeypatch.setattr(Solver, "__init__", forbidden)
    monkeypatch.setattr(CochainScheme, "delta_apply", forbidden)
    modules = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "leibcoh"]
    for original in (kernel, image):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    assert [classify3(context, chi) for chi in cochains] == expected


@pytest.mark.parametrize("order", [2, 3])
def test_massey_builds_the_zl2_basis_once_per_request(order, monkeypatch,
                                                      capsys):
    # The CLI reads the basis to index the generators, massey_products
    # to span the indeterminacy; the second read takes the first build.
    doc = dumps_canonical(algebra_to_document(catalog("diamond_e")))
    calls, builds = [], []

    def counted_read(scheme, n):
        if graded_cohomology(scheme, n)._cocycle_basis is None:
            builds.append(scheme)
        basis = cocycle_basis(scheme, n)
        calls.append(basis)
        return basis

    for module in (cli, deformations):
        monkeypatch.setattr(module, "cocycle_basis", counted_read)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    argv = ["massey", "--generators", "1,2", "--order", str(order)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 2
    assert len(builds) == 1
    assert calls[0] is calls[1]


def test_classify3_verdict_stable_under_representative_shift():
    # Shifting a cocycle by a 1-cochain coboundary never changes the
    # verdict of its square bracket.
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    context = ObstructionContext(scheme)
    rng = random.Random(23)
    for idx, expected in ((11, "nontrivial"), (14, "zero")):
        base = classify3(context, bracket2(scheme, phis[idx], phis[idx]))
        assert base.verdict == expected
        for _ in range(3):
            g = random_cochain(rng, scheme, 1, entries=4)
            shifted = dict(phis[idx])
            vec_add_scaled(shifted, scheme.delta_apply(1, g), ONE)
            assert scheme.is_cocycle(2, shifted)
            oc = classify3(context, bracket2(scheme, shifted, shifted))
            if expected == "zero":
                assert oc.verdict in ("zero", "coboundary")
                assert not any(oc.class_coords)
            else:
                assert oc.verdict == expected
                assert oc.class_coords == base.class_coords


def test_defect_wrapper():
    for spec in (catalog("diamond_e"), catalog("sl2"), catalog("heisenberg", 1)):
        scheme = CochainScheme(spec, "adjoint")
        mu = mu0_cochain(scheme)
        assert comp2(scheme, mu, mu) == {}
    broken = AlgebraSpec(3, {(0, 1): {2: ONE}, (0, 2): {1: ONE}})
    scheme = CochainScheme(broken, "adjoint")
    mu = mu0_cochain(scheme)
    assert comp2(scheme, mu, mu)


def test_extend_order_flat_direction_closes_with_zero_corrections():
    # mu_0 + t phi_3 satisfies the identity for every t: no higher-order
    # correction is needed at any order.
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    deform = Deformation(scheme, ("t",), {(1,): phis[3]})
    assert deform.max_order == 1
    assert deform.defect_series() == {}


def test_extend_order_leibniz_direction_is_flat():
    # The deformation in the (e4, e4) |-> e1 direction is already flat:
    # mu_0 + t phi_14 satisfies the identity with no corrections.
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    deform = Deformation(scheme, ("t",), {(1,): phis[14]})
    assert deform.terms[(1,)] == {scheme.flat_index(0, (3, 3)): ONE}
    assert deform.max_order == 1
    assert deform.defect_series() == {}


def test_versal_defect_against_candidate_ideal():
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    deform = Deformation(scheme, ("t", "s", "u", "w"), {
        (1, 0, 0, 0): phis[3],
        (0, 1, 0, 0): phis[7],
        (0, 0, 1, 0): phis[11],
        (0, 0, 0, 1): phis[14],
    })
    ideal = [
        (1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1),
        (2, 1, 0, 0),
        (1, 2, 1, 0), (1, 2, 0, 1), (0, 2, 1, 1), (0, 2, 0, 2),
    ]
    report = verify_versal(deform, ideal)
    assert set(report.defect) == {
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 2, 0),
    }
    assert [m for m, _ in report.violations] == sorted(
        [(1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0)]
    )
    assert not report.ok
    # Without any ideal the whole defect is in violation.
    bare = verify_versal(deform, [])
    assert not bare.ok
    assert len(bare.violations) == len(bare.defect) == 7


def test_massey_input_validation():
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    not_cocycle = {scheme.flat_index(1, (0, 1)): ONE, scheme.flat_index(2, (1, 1)): ONE}
    assert not scheme.is_cocycle(2, not_cocycle)
    with pytest.raises(ValueError):
        massey_products(scheme, [not_cocycle], 2)
    with pytest.raises(ValueError):
        massey_products(scheme, [phis[3]], 1)
    with pytest.raises(ValueError):
        massey_products(scheme, [phis[3]], 2, params=("t", "s"))
    with pytest.raises(ValueError):
        Deformation(CochainScheme(catalog("diamond_e"), "trivial"), ("t",))


def test_monomials_are_the_filtered_compositions():
    for nparams in range(6):
        for degree in range(5):
            assert _monomials(nparams, degree) \
                == filtered_monomials(nparams, degree), (nparams, degree)
    # All 17 HL2 classes of g54 at order 2: C(18, 2) monomials, listed
    # without walking the 3^17 tuples the filter would.
    assert len(_monomials(17, 2)) == comb(18, 2) == 153
