"""Structural validation and catalog checks."""

import random

import pytest

from leibcoh.algebras import AlgebraSpec, catalog, catalog_names, change_basis, validate
from leibcoh.linalg import LinalgError, Matrix
from leibcoh.scalars import ONE, Scalar
from tests.conftest import I


def random_invertible(rng, n):
    """Product of random elementary row operations applied to the identity."""
    rows = [{i: ONE} for i in range(n)]
    for _ in range(4 * n):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            factor = Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
            if not factor:
                continue
            for c, v in list(rows[j].items()):
                w = rows[i].get(c)
                w = factor * v if w is None else w + factor * v
                if w:
                    rows[i][c] = w
                else:
                    del rows[i][c]
        elif kind == 1:
            unit = rng.choice([ONE, -ONE, I, -I])
            rows[i] = {c: unit * v for c, v in rows[i].items()}
        elif kind == 2:
            rows[i], rows[j] = rows[j], rows[i]
    m = Matrix(n, n)
    m.rows = rows
    return m


CATALOG_CASES = [
    ("abelian", (3,)),
    ("heisenberg", (1,)),
    ("heisenberg", (2,)),
    ("heisenberg", (3,)),
    ("diamond_x", ()),
    ("diamond_e", ()),
    ("g54", ()),
    ("gl", (2,)),
    ("sl2", ()),
    ("sl2_plus_abelian", (2,)),
]


@pytest.mark.parametrize("name,params", CATALOG_CASES)
def test_catalog_entries_are_lie(name, params):
    spec = catalog(name, *params)
    report = validate(spec)
    assert report.is_antisymmetric
    assert report.is_jacobi
    assert report.is_leibniz
    assert report.kind_verdict == "lie"


def test_catalog_invariant_dimensions():
    expected = {
        ("abelian", (3,)): (3, 3),
        ("heisenberg", (1,)): (1, 2),
        ("heisenberg", (2,)): (1, 4),
        ("heisenberg", (3,)): (1, 6),
        ("diamond_x", ()): (1, 1),
        ("diamond_e", ()): (1, 1),
        ("g54", ()): (2, 2),
        ("gl", (2,)): (1, 1),
        ("sl2", ()): (0, 0),
        ("sl2_plus_abelian", (2,)): (2, 2),
    }
    for (name, params), (c, p) in expected.items():
        report = validate(catalog(name, *params))
        assert report.c == c, name
        assert report.p == p, name


def test_centers_are_the_expected_lines():
    diamond = validate(catalog("diamond_x"))
    assert diamond.center_basis.contains({3: ONE})
    gl2 = validate(catalog("gl", 2))
    assert gl2.center_basis.contains({3: ONE})
    g54 = validate(catalog("g54"))
    assert g54.center_basis.contains({3: ONE})
    assert g54.center_basis.contains({4: ONE})
    assert g54.derived_basis.dim == 3
    for k in (2, 3, 4):
        assert g54.derived_basis.contains({k: ONE})


def test_gl2_bracket_values():
    # Basis: x1 = E12, x2 = E21, x3 = E11 - E22, x4 = identity.
    gl2 = catalog("gl", 2)
    assert gl2.bracket(0, 1) == {2: ONE}
    assert gl2.bracket(2, 0) == {0: Scalar(2)}
    assert gl2.bracket(2, 1) == {1: Scalar(-2)}
    for j in range(4):
        assert gl2.bracket(3, j) == {}
        assert gl2.bracket(j, 3) == {}


def test_one_sided_square_is_leibniz_not_lie():
    spec = AlgebraSpec(2, {(1, 1): {0: ONE}}, kind="leibniz")
    report = validate(spec)
    assert report.is_leibniz
    assert not report.is_antisymmetric
    assert report.kind_verdict == "leibniz"
    assert report.c == 1 and report.p == 1


def test_broken_jacobi_is_reported_not_raised():
    pairs = {
        (0, 1): {2: ONE},
        (1, 0): {2: -ONE},
        (1, 2): {0: ONE},
        (2, 1): {0: -ONE},
        (2, 0): {0: ONE},
        (0, 2): {0: -ONE},
    }
    report = validate(AlgebraSpec(3, pairs))
    assert report.is_antisymmetric
    assert not report.is_jacobi
    assert not report.is_leibniz
    assert report.kind_verdict == "invalid"


def test_validate_is_kept_on_the_spec():
    # One report per spec, so no caller can pass another algebra's.
    spec = catalog("g54")
    report = validate(spec)
    assert validate(spec) is report
    assert validate(catalog("g54")) is not report
    assert (report.c, report.p) == (2, 2)


def test_lie_implies_leibniz_across_random_transports():
    rng = random.Random(1201)
    for name, params in CATALOG_CASES:
        spec = catalog(name, *params)
        moved = change_basis(spec, random_invertible(rng, spec.dim))
        report = validate(moved)
        assert report.is_antisymmetric and report.is_jacobi
        assert report.is_leibniz


def test_diamond_bases_are_related_by_the_expected_transform():
    # x1 = i e4, x2 = e3, x3 = i(e3 - e2), x4 = i e1, columns in e-coordinates.
    t = Matrix.from_columns(4, [
        {3: I},
        {2: ONE},
        {1: -I, 2: I},
        {0: I},
    ])
    moved = change_basis(catalog("diamond_e"), t)
    assert moved.table == catalog("diamond_x").table


def test_change_basis_preserves_invariants():
    rng = random.Random(77)
    for name, params in [("diamond_x", ()), ("g54", ()), ("heisenberg", (2,))]:
        spec = catalog(name, *params)
        base = validate(spec)
        t = random_invertible(rng, spec.dim)
        moved = validate(change_basis(spec, t))
        assert moved.c == base.c
        assert moved.p == base.p
        # New-coordinate center vectors map into the old center through t.
        for vec in moved.center_basis.basis():
            old = t.matvec(vec)
            assert base.center_basis.contains(old)


def test_change_basis_identity_and_singular():
    spec = catalog("diamond_x")
    identity = Matrix.from_columns(4, [{i: ONE} for i in range(4)])
    same = change_basis(spec, identity)
    assert same.table == spec.table
    with pytest.raises(LinalgError):
        change_basis(spec, Matrix(4, 4))


def test_bracket_vec_bilinear():
    rng = random.Random(42)
    spec = catalog("diamond_x")
    for _ in range(30):
        x = {i: Scalar(rng.randint(-3, 3), rng.randint(-3, 3)) for i in range(4)}
        y = {i: Scalar(rng.randint(-3, 3), rng.randint(-3, 3)) for i in range(4)}
        z = {i: Scalar(rng.randint(-3, 3), rng.randint(-3, 3)) for i in range(4)}
        a = Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
        combo = dict(z)
        for i, v in x.items():
            w = combo.get(i)
            w = a * v if w is None else w + a * v
            if w:
                combo[i] = w
            else:
                del combo[i]
        left = spec.bracket_vec(combo, y)
        expect = spec.bracket_vec(z, y)
        for k, v in spec.bracket_vec(x, y).items():
            w = expect.get(k)
            w = a * v if w is None else w + a * v
            if w:
                expect[k] = w
            else:
                del expect[k]
        assert left == expect


def test_catalog_argument_errors():
    with pytest.raises(KeyError):
        catalog("nope")
    with pytest.raises(ValueError):
        catalog("heisenberg")
    with pytest.raises(ValueError):
        catalog("heisenberg", 0)
    with pytest.raises(ValueError):
        catalog("diamond_x", 3)
    assert "gl" in catalog_names()


def test_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        AlgebraSpec(2, {(0, 2): {0: ONE}})
    with pytest.raises(ValueError):
        AlgebraSpec(2, {(0, 1): {5: ONE}})
    with pytest.raises(ValueError):
        AlgebraSpec(2, {}, kind="group")
    with pytest.raises(ValueError):
        AlgebraSpec(2, {}, basis_names=["a", "a"])
