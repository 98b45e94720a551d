"""Acceptance suite: one test per numbered criterion, one verdict line each.

Every test asserts its criterion's target values exactly as stated.  The
paper's tables are not in this repository, so the `diamond_e` targets of
criteria 1, 2 and 4 rest on exact values that an independent oracle
recomputes (tests/test_diamond_oracle.py: literal formulas and sympy
ranks over QQ, no leibcoh linear algebra), and each such test states
the facts its targets follow from.  Criterion 3 is a soft comparison:
it reports mismatches but only fails if the computation itself breaks.
"""

import random

from leibcoh.algebras import catalog, validate
from leibcoh.cochains import (
    CochainScheme,
    graded_cohomology,
    sym2_basis,
    sym2_inclusion,
    wedge_basis,
)
from leibcoh.deformations import (
    Deformation,
    comp2,
    massey_products,
    mu0_cochain,
    verify_versal,
)
from leibcoh.families import family_catalog, jacobi_defect, specialize
from leibcoh.koszul import decompose_degree2, koszul_data, uncoupling_report
from leibcoh.linalg import Subspace, vec_add_scaled, vec_combine
from leibcoh.polynomials import parse_poly
from leibcoh.scalars import ONE, Scalar
from tests.conftest import (diamond_phi_basis, embed_wedge,
                            leibniz_cohomology, symmetric_cocycle_space,
                            wedge_inclusion, weight_zero_part)
from tests.test_algebras import CATALOG_CASES

_CACHE = {}


def _conclude(number, clauses):
    failed = [label for label, ok in clauses if not ok]
    if failed:
        print(f"criterion {number}: FAIL "
              f"({len(failed)} of {len(clauses)} clauses): "
              + "; ".join(failed))
    else:
        print(f"criterion {number}: PASS ({len(clauses)} clauses)")
    assert not failed, f"criterion {number} failed clauses: {failed}"


def _diamond_scheme():
    if "scheme" not in _CACHE:
        _CACHE["scheme"] = CochainScheme(catalog("diamond_e"), "adjoint")
    return _CACHE["scheme"]


def _diamond_ledger():
    if "ledger" not in _CACHE:
        scheme = _diamond_scheme()
        phis = diamond_phi_basis(scheme)
        _CACHE["ledger"] = massey_products(
            scheme,
            [phis[3], phis[7], phis[11], phis[14]],
            5,
            params=("t", "s", "u", "w"),
        )
    return _CACHE["ledger"]


def _display(monomial, params=("t", "s", "u", "w")):
    """t*s^2*u style name of an exponent tuple."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(params, monomial) if e)


def _pair_coords(dim, entries):
    pairs = sym2_basis(dim)
    pos = {p: i for i, p in enumerate(pairs)}
    return {pos[p]: scalar for p, scalar in entries.items()}


# Der(diamond_e) entered by hand as maps e_i -> sum c e_k (0-based, e1 is
# index 0): the inner derivations [e2,.], [e3,.] and [e4,.] (e1 spans the
# center), and two outer ones.
_DIAMOND_DERIVATIONS = {
    "ad e2": {2: {0: ONE}, 3: {1: ONE}},
    "ad e3": {1: {0: -ONE}, 3: {1: ONE, 2: -ONE}},
    "ad e4": {1: {1: -ONE}, 2: {1: -ONE, 2: ONE}},
    "D(e1,e2,e3) = (2e1,e2,e3)": {0: {0: Scalar(2)}, 1: {1: ONE}, 2: {2: ONE}},
    "D(e4) = e1": {3: {0: ONE}},
}


def _is_derivation(spec, images):
    """D[x,y] = [Dx,y] + [x,Dy] on every pair of basis vectors."""
    def apply(vec):
        out = {}
        for i, c in vec.items():
            vec_add_scaled(out, images.get(i, {}), c)
        return out
    for a in range(spec.dim):
        for b in range(spec.dim):
            lhs = apply(spec.bracket(a, b))
            rhs = spec.bracket_vec(images.get(a, {}), {b: ONE})
            vec_add_scaled(rhs, spec.bracket_vec({a: ONE}, images.get(b, {})),
                           ONE)
            if lhs != rhs:
                return False
    return True


def test_criterion_1_diamond_degree_two_dimensions_and_classes():
    scheme = _diamond_scheme()
    phis = diamond_phi_basis(scheme)
    space = leibniz_cohomology(scheme, 2)
    # BL2 = dim C1 - dim ZL1 = 16 - dim Der(g); Der has the basis below.
    derivations = Subspace(scheme.cochain_dim(1))
    literal = True
    for images in _DIAMOND_DERIVATIONS.values():
        literal = literal and _is_derivation(scheme.spec, images)
        derivations.insert({scheme.flat_index(k, (i,)): c
                            for i, vec in images.items()
                            for k, c in vec.items()})
    zl1 = leibniz_cohomology(scheme, 1).z_dim
    clauses = [
        ("the five hand-entered maps are derivations", literal),
        (f"they are linearly independent (rank {derivations.dim})",
         derivations.dim == 5),
        (f"dim Der = dim ZL1 = 5 (computed {zl1})", zl1 == 5),
        (f"dim ZL2 = 15 (computed {space.z_dim})", space.z_dim == 15),
        (f"dim BL2 = 16 - dim Der = 11 (computed {space.b_dim})",
         space.b_dim == 11),
        (f"dim HL2 = 4 (computed {space.h_dim})", space.h_dim == 4),
    ]
    span = Subspace(scheme.cochain_dim(2), space.coboundaries.basis())
    count = span.dim
    for key in (3, 7, 11, 14):
        clauses.append((f"phi{key} is a cocycle",
                        scheme.is_cocycle(2, phis[key])))
        span.insert(phis[key])
        count += 1
        clauses.append((f"class of phi{key} independent of the previous ones",
                        span.dim == count))
    _conclude(1, clauses)


def test_criterion_2_diamond_bracket_ledger_orders_two_and_three():
    ledger = _diamond_ledger()
    expected_pairs = [
        ("[phi3,phi3] = 0", (2, 0, 0, 0), "zero"),
        ("[phi7,phi7] = 0", (0, 2, 0, 0), "zero"),
        ("[phi14,phi14] = 0", (0, 0, 0, 2), "zero"),
        ("[phi11,phi11] nontrivial", (0, 0, 2, 0), "nontrivial"),
        ("[phi3,phi11] nontrivial", (1, 0, 1, 0), "nontrivial"),
        ("[phi3,phi14] nontrivial", (1, 0, 0, 1), "nontrivial"),
        ("[phi11,phi14] nontrivial", (0, 0, 1, 1), "nontrivial"),
        # mu0 + t phi3 + s phi7 fails the identity at (e2,e3,e4) by -ts e4,
        # and that defect lies outside BL3: the classes of phi3 and phi7
        # bracket to a nonzero class, whatever the representatives.
        ("[phi3,phi7] nontrivial", (1, 1, 0, 0), "nontrivial"),
        ("[phi7,phi11] coboundary", (0, 1, 1, 0), "coboundary"),
        ("[phi7,phi14] coboundary", (0, 1, 0, 1), "coboundary"),
    ]
    clauses = []
    for label, monomial, verdict in expected_pairs:
        rec = ledger.record(monomial)
        got = rec.verdict if rec.status == "defined" else rec.status
        clauses.append((f"{label} (computed {got})",
                        rec.status == "defined" and rec.verdict == verdict))
    defined3 = {r.monomial: r.verdict for r in ledger.records
                if r.degree == 3 and r.status == "defined"}
    # The cubes are defined zeros: their squares vanish on the nose, so
    # the witnesses at t^2, s^2 and w^2 are zero.
    expected3 = {
        (3, 0, 0, 0): "zero", (0, 3, 0, 0): "zero", (0, 0, 0, 3): "zero",
        (0, 2, 1, 0): "nontrivial", (0, 2, 0, 1): "coboundary",
        (0, 1, 0, 2): "zero",
    }
    clauses.append((f"defined 3-brackets: t^3, s^3, w^3 zero (cubes),"
                    f" s^2u nontrivial, s^2w coboundary, sw^2 zero"
                    f" (computed {sorted(defined3.items())})",
                    defined3 == expected3))
    s2u = ledger.record((0, 2, 1, 0))
    nontriv3 = sorted(m for m, v in defined3.items() if v == "nontrivial")
    clauses.append((f"<phi7,phi7,phi11> the only nontrivial 3-bracket, and"
                    f" nontrivial modulo its indeterminacy (computed"
                    f" {nontriv3}, {s2u.nontrivial_mod_indeterminacy})",
                    nontriv3 == [(0, 2, 1, 0)]
                    and s2u.nontrivial_mod_indeterminacy is True))
    t2s = ledger.record((2, 1, 0, 0))
    clauses.append((f"t^2s undefined, blocked by (t, ts) (computed"
                    f" {t2s.status}, {t2s.blocking})",
                    t2s.status == "undefined"
                    and sorted(t2s.blocking) == [((1, 0, 0, 0), (1, 1, 0, 0)),
                                                 ((1, 1, 0, 0), (1, 0, 0, 0))]))
    _conclude(2, clauses)


def test_criterion_3_soft_higher_order_ledger():
    ledger = _diamond_ledger()
    # Integrity of the ledger itself is a hard requirement.
    for rec in ledger.records:
        if rec.status == "defined":
            assert rec.verdict in ("zero", "coboundary", "nontrivial")
        else:
            assert rec.status == "undefined" and rec.blocking
    lines = []
    four_brackets = [
        ("t*s^2*u", (1, 2, 1, 0)),
        ("t*s^2*w", (1, 2, 0, 1)),
        ("s^2*u*w", (0, 2, 1, 1)),
        ("s^2*w^2", (0, 2, 0, 2)),
    ]
    mismatches = 0
    for display, monomial in four_brackets:
        rec = ledger.record(monomial)
        got = rec.verdict if rec.status == "defined" else rec.status
        match = rec.status == "defined" and rec.verdict == "nontrivial"
        if not match:
            mismatches += 1
        note = ""
        if rec.status == "undefined":
            pairs = sorted({tuple(sorted(pair)) for pair in rec.blocking})
            note = " (mismatch: blocked by " + ", ".join(
                f"({_display(a)}, {_display(b)})" for a, b in pairs) + ")"
        elif not match:
            note = " (mismatch)"
        lines.append(f"  4-bracket {display}: expected nontrivial, "
                     f"computed {got}{note}")
    defined5 = [r for r in ledger.records
                if r.degree == 5 and r.status == "defined"]
    bad5 = [r for r in defined5 if r.verdict == "nontrivial"]
    if bad5:
        mismatches += len(bad5)
        for r in bad5:
            lines.append(f"  order-5 {r.monomial}: expected trivial or"
                         f" undefined, computed nontrivial (essential:"
                         f" {r.nontrivial_mod_indeterminacy})")
    else:
        lines.append(f"  order-5: {len(defined5)} defined products, none"
                     " nontrivial (matches: trivial or undefined)")
    print(f"criterion 3: PASS (soft comparison, {mismatches} mismatches"
          " noted)")
    for line in lines:
        print(line)


def test_criterion_4_versal_defect_ideal():
    scheme = _diamond_scheme()
    phis = diamond_phi_basis(scheme)
    linear = {
        (1, 0, 0, 0): phis[3],
        (0, 1, 0, 0): phis[7],
        (0, 0, 1, 0): phis[11],
        (0, 0, 0, 1): phis[14],
    }
    # The candidate: the four generators plus the correction terms that
    # the order-5 ledger solves for (zero and coboundary witnesses).
    witnesses = _diamond_ledger().witnesses
    deform = Deformation(scheme, ("t", "s", "u", "w"), witnesses)
    # The obstructed monomials tu, tw, uw, u^2, ts, s^2u, s^2w^2, s^3w.
    # The true order-2 relations are u(t+u), w(t+u) and ts: u^2 and tu
    # have one HL3 class, and so do tw and uw.  They are not monomials;
    # this monomial ideal contains them, and verify_versal takes
    # monomial ideals only.
    ideal = [
        (1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1), (0, 0, 2, 0),
        (1, 1, 0, 0),
        (0, 2, 1, 0), (0, 2, 0, 2), (0, 3, 0, 1),
    ]
    checked = verify_versal(deform, ideal)
    bare = verify_versal(deform, [])
    plain = verify_versal(Deformation(scheme, deform.params, linear), ideal)
    leftover = sorted(m for m, _ in checked.violations)
    unfixed = sorted(m for m, _ in plain.violations)
    clauses = [
        ("the candidate's linear part is t phi3 + s phi7 + u phi11 + w phi14",
         all(witnesses[m] == phi for m, phi in linear.items())),
        (f"defect contained in the listed ideal (violations: {leftover})",
         checked.ok),
        (f"defect nonzero for the empty ideal "
         f"(computed {len(bare.defect)} monomials)",
         bool(bare.defect) and not bare.ok),
        (f"without the correction terms the defect leaves the ideal at"
         f" su and sw (computed {unfixed})",
         unfixed == [(0, 1, 0, 1), (0, 1, 1, 0)]),
    ]
    _conclude(4, clauses)


def test_criterion_5_heisenberg_dimensions():
    clauses = []
    targets = [(1, 3, 8, 5), (2, 10, 30, 20), (3, 21, 91, 70)]
    for n, zl0, hl2, h2 in targets:
        spec = catalog("heisenberg", n)
        scheme = CochainScheme(spec, "adjoint")
        sym = symmetric_cocycle_space(scheme).dim
        lie = graded_cohomology(scheme, 2, lie=True)
        full = leibniz_cohomology(scheme, 2)
        clauses.append((f"H_{n}: dim ZL2_0 = dim B2 = {zl0}",
                        sym == lie.b_dim == zl0 == n * (2 * n + 1)))
        clauses.append((f"H_{n}: dim HL2 = {hl2}", full.h_dim == hl2))
        clauses.append((f"H_{n}: dim H2 = HL2 - ZL2_0 = {h2}",
                        lie.h_dim == h2 == full.h_dim - sym))
        clauses.append((f"H_{n}: is_I_null", koszul_data(spec).is_null))
    _conclude(5, clauses)


def test_criterion_6_g54_dimensions_and_coupled_class():
    spec = catalog("g54")
    triv = decompose_degree2(spec, "trivial")
    adj = decompose_degree2(spec, "adjoint")
    triv_full = leibniz_cohomology(triv.scheme, 2)
    adj_full = leibniz_cohomology(adj.scheme, 2)
    clauses = [
        ("trivial: dim Z2 = 6",
         graded_cohomology(triv.scheme, 2, lie=True).z_dim == 6),
        ("trivial: dim H2 = 3", triv.h2_dim == 3),
        ("trivial: dim ZL2_0 = 3", triv.symmetric_dim == 3),
        ("trivial: dim ZL2 = 10", triv_full.z_dim == 10),
        ("trivial: dim HL2 = 7", triv.hl2_dim == 7),
        ("adjoint: dim Z2 = 24",
         graded_cohomology(adj.scheme, 2, lie=True).z_dim == 24),
        ("adjoint: dim ZL2_0 = 6", adj.symmetric_dim == 6),
        ("adjoint: dim ZL2 = 32", adj_full.z_dim == 32),
        ("adjoint: dim H2 = 9", adj.h2_dim == 9),
        ("adjoint: dim HL2 = 17", adj.hl2_dim == 17),
        ("adjoint: exactly 2 coupled generators", adj.coupled_dim == 2),
    ]
    report = uncoupling_report(spec)
    clauses.append(("uncoupling = (false, false)",
                    (report.adjoint_uncoupled, report.trivial_uncoupled)
                    == (False, False)))
    clauses.append(("dim Im I = 1", koszul_data(spec).image.dim == 1))
    # The trivial coupled line is the class of B + omega^{1,5} with B the
    # invariant form pairing x1 with x5, x2 with -x4, x3 with x3.
    scheme = triv.scheme
    b = _pair_coords(5, {(0, 4): ONE, (1, 3): -ONE, (2, 2): ONE})
    candidate = vec_combine(sym2_inclusion(scheme), b)
    omega15 = {wedge_basis(5, 2).index((0, 4)): ONE}
    vec_add_scaled(candidate, vec_combine(wedge_inclusion(scheme, 2), omega15),
                   ONE)
    lower = Subspace(scheme.cochain_dim(2), triv_full.coboundaries.basis())
    for rep in triv.h2_reps + triv.symmetric_basis:
        lower.insert(rep)
    full_span = Subspace(scheme.cochain_dim(2),
                         lower.basis() + triv.coupled_reps)
    clauses.append(("B + omega^{1,5} is a cocycle",
                    scheme.is_cocycle(2, candidate)))
    clauses.append(("its class lies outside H2 + ZL2_0",
                    not lower.contains(candidate)))
    clauses.append(("its class spans the coupled line",
                    full_span.contains(candidate)))
    _conclude(6, clauses)


def test_criterion_7_reductive_examples():
    clauses = []
    gl2 = decompose_degree2(catalog("gl", 2), "adjoint")
    clauses.append(("gl(2): dim HL2 = 1", gl2.hl2_dim == 1))
    clauses.append(("gl(2): HL2 = ZL2_0",
                    (gl2.h2_dim, gl2.symmetric_dim, gl2.coupled_dim)
                    == (0, 1, 0)))
    clauses.append(("gl(2): spanned by x4 (x) (w4 . w4)",
                    gl2.symmetric_basis[0]
                    == {gl2.scheme.flat_index(3, (3, 3)): ONE}))
    mixed = decompose_degree2(catalog("sl2_plus_abelian", 2), "adjoint")
    clauses.append(("sl2 + abelian(2): dim H2 = 2", mixed.h2_dim == 2))
    clauses.append(("sl2 + abelian(2): dim HL2 = 8", mixed.hl2_dim == 8))
    simple = decompose_degree2(catalog("sl2"), "adjoint")
    clauses.append(("sl2: HL2 = H2 = 0",
                    simple.hl2_dim == 0 and simple.h2_dim == 0))
    _conclude(7, clauses)


def test_criterion_8_structural_properties():
    clauses = []
    rng = random.Random(2026)
    for name, params in CATALOG_CASES:
        spec = catalog(name, *params)
        label = spec.name or name
        report = validate(spec)
        hl2 = {}
        for coeffs in ("adjoint", "trivial"):
            scheme = CochainScheme(spec, coeffs)
            d1 = scheme.delta_matrix(1)
            ok = all(not scheme.delta_apply(2, col) for col in d1.columns())
            clauses.append((f"{label}/{coeffs}: delta o delta = 0", ok))
            full = leibniz_cohomology(scheme, 2)
            lie = graded_cohomology(scheme, 2, lie=True)
            # B2 and BL2 agree in every weight: the weight-0 parts are
            # compared, and the nonzero weights through the dimensions.
            clauses.append((f"{label}/{coeffs}: BL2 = B2",
                            full.b_dim == lie.b_dim
                            and weight_zero_part(scheme, 2, full.coboundaries)
                            == embed_wedge(scheme, 2, lie.coboundaries)))
            hl2[coeffs] = full.h_dim
        data = koszul_data(spec)
        triv = CochainScheme(spec, "trivial")
        incl2 = sym2_inclusion(triv)
        incl3 = wedge_inclusion(triv, 3)
        ok = True
        for b in data.forms.basis():
            lhs = triv.delta_apply(2, vec_combine(incl2, b))
            rhs = vec_combine(incl3, data.matrix.matvec(b))
            ok = ok and lhs == {k: -v for k, v in rhs.items()}
        clauses.append((f"{label}: delta_C on invariant forms = -I", ok))
        p = report.p
        clauses.append(
            (f"{label}: dim (S2 g*)^g = p(p+1)/2 + dim Im I",
             data.forms.dim == p * (p + 1) // 2 + data.image.dim))
        for coeffs in ("adjoint", "trivial"):
            # HL2 from the full complex, so the clause is not the sum
            # that defines dec.hl2_dim.
            dec = decompose_degree2(spec, coeffs)
            clauses.append(
                (f"{label}/{coeffs}: HL2 = H2 + ZL2_0 + coupled",
                 hl2[coeffs]
                 == dec.h2_dim + dec.symmetric_dim + dec.coupled_dim))
        scheme = CochainScheme(spec, "adjoint")
        mu0 = mu0_cochain(scheme)
        size = scheme.cochain_dim(2)
        ok = True
        for _ in range(100):
            phi = {}
            for _ in range(6):
                v = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
                if v:
                    phi[rng.randrange(size)] = v
            mu = dict(mu0)
            vec_add_scaled(mu, phi, ONE)
            rhs = {k: -v for k, v in scheme.delta_apply(2, phi).items()}
            vec_add_scaled(rhs, comp2(scheme, phi, phi), ONE)
            ok = ok and comp2(scheme, mu, mu) == rhs
        clauses.append(
            (f"{label}: defect(mu0 + phi) = -delta(phi) + phi o phi"
             " on 100 random 2-cochains", ok))
    _conclude(8, clauses)


def test_criterion_9_symbolic_families():
    clauses = []
    for name in ("diamond_family", "g54_family2", "g54_family3",
                 "g54_family4", "g54_family5"):
        clauses.append((f"{name}: empty Jacobi defect",
                        jacobi_defect(family_catalog(name)) == []))
    family1 = family_catalog("g54_family1")
    clauses.append(("g54_family1: empty Jacobi defect",
                    jacobi_defect(family1) == []))
    at_zero = specialize(family1, {"p": 0, "q": 0, "r": 0})
    clauses.append(
        ("g54_family1: specialization discrepancy reported",
         bool(family1.notes) and at_zero.table != catalog("g54").table))
    diamond = family_catalog("diamond_family")
    coeff = diamond.bracket(0, 3)[0]
    clauses.append(("d(lam,mu): [e1,e4] coefficient is lam + mu",
                    coeff == parse_poly("lam+mu", diamond.params)))
    clauses.append(("d(lam,mu) at (1,-1): coefficient vanishes",
                    coeff.evaluate({"lam": 1, "mu": -1}) == Scalar(0)))
    clauses.append(
        ("d(lam,mu) at (1,-1) is the diamond algebra",
         specialize(diamond, {"lam": 1, "mu": -1}).table
         == catalog("diamond_e").table))
    _conclude(9, clauses)
