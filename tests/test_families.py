"""Parameterized families: symbolic identity checks and specialization."""

import random
import subprocess
import sys
from itertools import product

import pytest

from leibcoh.algebras import (AlgebraSpec, catalog, change_basis,
                              leibniz_defect, skew_residue, validate)
from leibcoh.families import (
    ParamAlgebra,
    family_catalog,
    family_names,
    jacobi_defect,
    leibniz_defect_sym,
    specialize,
)
from leibcoh.linalg import Matrix, vec_add_scaled
from leibcoh.polynomials import parse_poly
from leibcoh.scalars import ONE, ZERO, Scalar

LIE_FAMILIES = [
    "diamond_family",
    "diamond_sl2_line",
    "g54_family1",
    "g54_family2",
    "g54_family3",
    "g54_family4",
    "g54_family5",
]


def random_point(rng, params):
    return {p: Scalar(rng.randint(-4, 4), rng.randint(-1, 1)) for p in params}


def test_lie_families_have_empty_jacobi_defect():
    for name in LIE_FAMILIES:
        assert jacobi_defect(family_catalog(name)) == [], name


def test_leibniz_line_is_leibniz_but_not_lie():
    pa = family_catalog("diamond_leibniz_line")
    assert leibniz_defect_sym(pa) == []
    skew = [d for d in jacobi_defect(pa) if d.law == "skew"]
    assert [(d.where, d.component) for d in skew] == [((3, 3), 0)]
    assert skew[0].poly == parse_poly("t", ("t",))


def test_empty_defect_means_every_specialization_validates():
    # Cross-module oracle: polynomial identity versus pointwise checks.
    rng = random.Random(9)
    for name in LIE_FAMILIES:
        pa = family_catalog(name)
        for _ in range(3):
            spec = specialize(pa, random_point(rng, pa.params))
            report = validate(spec)
            assert report.is_antisymmetric and report.is_jacobi, name
    pa = family_catalog("diamond_leibniz_line")
    for _ in range(3):
        report = validate(specialize(pa, random_point(rng, pa.params)))
        assert report.is_leibniz


def perturbed_family1():
    """g54_family1 with the (x3, x5) coefficient on x3 moved from p to
    p + 1 on both orientations: antisymmetric, but not Lie."""
    base = family_catalog("g54_family1")
    brackets = {key: dict(cell) for key, cell in base.table.items()}
    brackets[(2, 4)] = {2: parse_poly("p+1", base.params), 0: ONE}
    brackets[(4, 2)] = {2: parse_poly("-p-1", base.params), 0: -ONE}
    return ParamAlgebra(5, base.params, brackets)


def test_perturbed_family_fails_symbolically_and_pointwise():
    broken = perturbed_family1()
    defects = jacobi_defect(broken)
    assert defects
    # Find a point where some defect polynomial is nonzero and confirm
    # the specialized algebra really fails there.
    rng = random.Random(10)
    while True:
        point = random_point(rng, broken.params)
        if any(d.poly.evaluate(point) for d in defects):
            break
    report = validate(specialize(broken, point))
    assert not (report.is_antisymmetric and report.is_jacobi)


@pytest.mark.parametrize("pa", [family_catalog(name) for name in family_names()]
                         + [perturbed_family1()],
                         ids=family_names() + ["perturbed_g54_family1"])
def test_symbolic_defects_evaluate_to_the_pointwise_ones(pa):
    # Each DefectTerm polynomial, evaluated at a Q(i) point, is the same
    # component of the evaluator run on the specialized Scalar table,
    # which in turn matches the identity spelled out with bracket_vec
    # (and the residue spelled out from both orientations).
    terms = {(t.law, t.where, t.component): t.poly for t in jacobi_defect(pa)}
    r = range(pa.dim)
    rng = random.Random(11)
    for _ in range(2):
        point = random_point(rng, pa.params)
        spec = specialize(pa, point)
        bracket, vec = spec.bracket, spec.bracket_vec

        def symbolic(key):
            poly = terms.get(key)
            return ZERO if poly is None else poly.evaluate(point)

        for i in r:
            for j in range(i, pa.dim):
                residue = skew_residue(bracket, i, j)
                spelled = dict(bracket(i, j))
                if i != j:
                    vec_add_scaled(spelled, bracket(j, i), ONE)
                assert residue == spelled
                for k in r:
                    assert symbolic(("skew", (i, j), k)) == residue.get(k, ZERO)
        for x, y, z in product(r, repeat=3):
            defect = leibniz_defect(bracket, x, y, z)
            ex, ey, ez = {x: ONE}, {y: ONE}, {z: ONE}
            spelled = vec(vec(ex, ey), ez)
            vec_add_scaled(spelled, vec(vec(ex, ez), ey), -ONE)
            vec_add_scaled(spelled, vec(ex, vec(ey, ez)), -ONE)
            assert defect == spelled
            for k in r:
                assert (symbolic(("identity", (x, y, z), k))
                        == defect.get(k, ZERO)), (x, y, z, k)


def test_param_algebra_checks_kind_and_basis_names_like_algebra_spec():
    for kwargs, message in (
            ({"kind": "bogus"}, "unknown algebra kind 'bogus'"),
            ({"basis_names": ("a", "a")},
             "basis names must be distinct, one per dimension"),
            ({"basis_names": ("a",)},
             "basis names must be distinct, one per dimension")):
        with pytest.raises(ValueError, match=message):
            AlgebraSpec(2, {}, **kwargs)
        with pytest.raises(ValueError, match=message):
            ParamAlgebra(2, ("t",), {}, **kwargs)
    with pytest.raises(ValueError, match="unknown algebra kind"):
        ParamAlgebra(2, ("t",), {}, kind="bogus", basis_names=("a", "a"))


def test_diamond_family_specializes_to_diamond():
    pa = family_catalog("diamond_family")
    coeff = pa.bracket(0, 3)[0]
    assert coeff == parse_poly("lam+mu", pa.params)
    assert coeff.evaluate({"lam": 1, "mu": -1}) == Scalar(0)
    spec = specialize(pa, {"lam": 1, "mu": -1})
    assert spec.table == catalog("diamond_e").table
    assert (0, 3) not in spec.table


# diamond_family with [e2, e4] = lam^99999999 e2, specialized at the
# diamond's own point; run in a subprocess so that a hang times out.
_HUGE_POWER = """
from leibcoh.families import family_catalog, specialize
from leibcoh.polynomials import parse_poly
pa = family_catalog("diamond_family")
power = parse_poly("lam^99999999", pa.params)
pa.table[(1, 3)] = {1: power}
pa.table[(3, 1)] = {1: -power}
point = {"lam": 1, "mu": 0}
plain = specialize(family_catalog("diamond_family"), point)
assert specialize(pa, point).table == plain.table
"""


def test_specialize_takes_a_huge_power_of_a_parameter():
    # Powers are taken by squaring; by repeated products this would not
    # finish.
    result = subprocess.run([sys.executable, "-c", _HUGE_POWER],
                            capture_output=True, text=True, timeout=10)
    assert result.returncode == 0, result.stderr


def test_sl2_line_passes_through_diamond():
    pa = family_catalog("diamond_sl2_line")
    assert specialize(pa, {"t": 0}).table == catalog("diamond_e").table
    away = specialize(pa, {"t": 1})
    report = validate(away)
    assert report.kind_verdict == "lie"
    # Off zero the line leaves the nilpotent world: the bracket gains a
    # nonzero component on e4.
    assert away.bracket(1, 2) == {0: ONE, 3: ONE}


def test_leibniz_line_specializations():
    pa = family_catalog("diamond_leibniz_line")
    assert specialize(pa, {"t": 0}).table == catalog("diamond_e").table
    away = specialize(pa, {"t": Scalar(3)})
    assert away.bracket(3, 3) == {0: Scalar(3)}
    report = validate(away)
    assert report.kind_verdict == "leibniz"


def test_family1_zero_point_is_g54_in_another_basis():
    pa = family_catalog("g54_family1")
    assert pa.notes
    at_zero = specialize(pa, {"p": 0, "q": 0, "r": 0})
    # The family's own zero point, which is not the catalog table.
    assert at_zero.bracket(2, 3) == {1: ONE}
    assert at_zero.table != catalog("g54").table
    # An explicit change of basis exhibits the isomorphism: the new
    # basis is (x4, x5, x3, -x2, -x1).
    transport = Matrix(5, 5, [
        {4: -ONE}, {3: -ONE}, {2: ONE}, {0: ONE}, {1: ONE},
    ])
    assert change_basis(at_zero, transport).table == catalog("g54").table


def test_family_catalog_arguments():
    assert set(LIE_FAMILIES) < set(family_names()) | set(LIE_FAMILIES)
    assert "diamond_leibniz_line" in family_names()
    with pytest.raises(KeyError):
        family_catalog("nope")
    with pytest.raises(ValueError):
        specialize(family_catalog("diamond_family"), {"lam": 1})
    with pytest.raises(ValueError):
        ParamAlgebra(3, ("p",), {(0, 5): {0: ONE}})
    with pytest.raises(ValueError):
        ParamAlgebra(3, ("p",), {(0, 1): {0: parse_poly("q", ("q",))}})
