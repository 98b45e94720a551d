"""The modular certificate behind `graded_cohomology`.

A block of coordinates takes the coboundaries as its cocycles only when
a rank modulo PRIME proves that nothing else is there.  These tests pin
the fixed prime, how much the certificate covers on the full complex's
coboundaries, that it never claims a block whose rank modulo PRIME
collapses or cannot be formed, that a row with one entry off the pivots
of the coboundaries' RREF and the columns already settled settles its
column to zero with no rank, down a chain of such rows to its end, that
neither the modular nor the exact pass reads an entry at such a pivot,
which the other entries of the row fix, or at a settled column, that
the modular pass stops reading once the rows left cannot reach its
target, that a table without delta o delta = 0 is refused before any
coboundary matrix is built, by the Leibniz complex unless it is right
Leibniz and by the antisymmetric one unless it is Lie, that the check
costs no second evaluation of the identity, that the Jacobi verdict
read off it on an antisymmetric table is the one a full scan gives, and
how many modular ranks and reads the `deg3` benchmark request costs.
"""

import io
from itertools import product
from math import isqrt

import pytest

from leibcoh import algebras, cli, linalg
from leibcoh.algebras import (AlgebraSpec, catalog, is_right_leibniz,
                              leibniz_defect, validate)
from leibcoh.cochains import CochainScheme, graded_cohomology
from leibcoh.formats import algebra_to_document, dumps_canonical
from leibcoh.linalg import (PRIME, PRIME_I, Echelon, LinalgError, Matrix,
                            Subspace, _partition, _rank_mod_prime_reaches,
                            certified_kernel, image, kernel, vec_add_scaled)
from leibcoh.scalars import ONE, Scalar
from tests.conftest import leibniz_cohomology
from tests.test_algebras import CATALOG_CASES
from tests.test_cochains import one_sided_square
from tests.test_koszul import sheared


def test_prime_is_one_mod_four_with_a_root_of_minus_one():
    assert all(PRIME % q for q in range(2, isqrt(PRIME) + 1))
    assert PRIME % 4 == 1
    assert PRIME_I * PRIME_I % PRIME == PRIME - 1


def certified_coordinates(scheme, n):
    m = scheme.delta_matrix(n)
    _, _, residual = _partition(m, image(scheme.delta_matrix(n - 1)))
    return m.ncols - len(residual)


# (algebra, coefficients) -> certified coordinates in degrees 1, 2, 3,
# out of 36, 216, 1296 (sl2_plus_abelian 3 adjoint), 6, 36, 216, 16,
# 64, 256 (diamond_e adjoint) and 4, 16, 64: the coboundaries' pivots,
# the columns settled to the fixpoint and the blocks a rank certifies.
# In each degree the rest is cohomology or lies in one block with it.
CERTIFIED = {
    (("sl2_plus_abelian", 3), "adjoint"): (27, 189, 1215),
    (("sl2_plus_abelian", 3), "trivial"): (3, 27, 189),
    (("diamond_e",), "adjoint"): (12, 50, 198),
    (("diamond_e",), "trivial"): (3, 12, 49),
}


@pytest.mark.parametrize("key", sorted(CERTIFIED), ids=str)
def test_certified_coordinate_counts(key):
    (name, *params), coefficients = key
    scheme = CochainScheme(catalog(name, *params), coefficients)
    got = tuple(certified_coordinates(scheme, n) for n in (1, 2, 3))
    assert got == CERTIFIED[key]


def scaled(spec, factor):
    """Every bracket times factor: isomorphic to spec through x -> factor x."""
    brackets = {(i, j): {k: factor * v for k, v in value.items()}
                for i, j, value in spec.nonzero_brackets()}
    return AlgebraSpec(spec.dim, brackets, kind=spec.kind, name=spec.name)


# Scaled by PRIME, every coboundary entry is 0 modulo PRIME; scaled by
# 1/PRIME, no entry has an image modulo PRIME.
@pytest.mark.parametrize("factor", [Scalar(PRIME), ONE / PRIME],
                         ids=["p", "1/p"])
@pytest.mark.parametrize("name", ["diamond_e", "g54"])
@pytest.mark.parametrize("coefficients", ["adjoint", "trivial"])
def test_collapsed_ranks_certify_no_block(name, factor, coefficients):
    base = CochainScheme(catalog(name), coefficients)
    scheme = CochainScheme(scaled(catalog(name), factor), coefficients)
    for n in (1, 2, 3):
        m = scheme.delta_matrix(n)
        known = image(scheme.delta_matrix(n - 1))
        skip, _, residual = _partition(m, known)
        settled = skip.difference(known.pivots)
        # Only the coboundaries' pivots and the settled columns stay out
        # of the exact pass: they need no rank, and no block passes one.
        assert len(residual) == m.ncols - len(known.pivots) - len(settled)
        got = leibniz_cohomology(scheme, n)
        want = leibniz_cohomology(base, n)
        assert (got.z_dim, got.b_dim) == (want.z_dim, want.b_dim)
        assert got.cocycles == kernel(m)


def spy_mod_prime(monkeypatch):
    """The values `_mod_prime` is given from now on, in order."""
    seen = []
    mod_prime = linalg._mod_prime

    def spy(s):
        seen.append(s)
        return mod_prime(s)

    monkeypatch.setattr(linalg, "_mod_prime", spy)
    return seen


def test_an_entry_on_a_coboundary_pivot_is_never_read(monkeypatch):
    # r = (1/PRIME, 1, 1, 1), t = (1/PRIME, 1, 2, 0), s = e_3 and
    # B = span{(1, -1/PRIME, 0, 0)}, with r.k = t.k = s.k = 0.  s settles
    # column 3, and the one entry of r and t without an image modulo
    # PRIME sits at B's pivot 0, which a row's entries off B's pivots
    # fix, so the certificate reads t, the shorter, and then r at the
    # columns 1 and 2 alone, where they have rank 2.
    m = Matrix(3, 4, [{0: ONE / PRIME, 1: ONE, 2: ONE, 3: ONE},
                      {0: ONE / PRIME, 1: ONE, 2: Scalar(2)}, {3: ONE}])
    known = Subspace(4, [{0: ONE, 1: -ONE / PRIME}])
    seen = spy_mod_prime(monkeypatch)
    assert _partition(m, known) == ({0, 3}, [], [])
    assert seen == [ONE, Scalar(2), ONE, ONE]
    assert certified_kernel(m, known) == kernel(m) == known


def test_a_settled_column_is_not_read_again():
    # The third row settles column 2.  Read without it the first two
    # rows have rank 1 on the columns 0 and 1, so the block goes exact;
    # read with it they would have rank 2 and certify the block.
    m = Matrix(3, 3, [{0: ONE, 1: ONE, 2: ONE},
                      {0: ONE, 1: ONE, 2: Scalar(2)},
                      {2: ONE}])
    assert _partition(m, Subspace(3)) == ({2}, m.rows[:2], [0, 1])
    got = certified_kernel(m, Subspace(3))
    assert got == kernel(m)
    assert got.dim == 1


def test_a_chain_of_one_entry_rows_settles_to_its_end(monkeypatch):
    # {2:1} settles column 2, which leaves {1:1, 2:1} one entry at 1,
    # which leaves {0:1, 1:1} one at 0: all three settle, with no rank.
    m = Matrix(3, 3, [{0: ONE, 1: ONE}, {1: ONE, 2: ONE}, {2: ONE}])
    seen = spy_mod_prime(monkeypatch)
    assert _partition(m, Subspace(3)) == ({0, 1, 2}, [], [])
    assert seen == []
    assert certified_kernel(m, Subspace(3)) == kernel(m) == Subspace(3)


def test_a_one_entry_row_settles_with_no_modular_read(monkeypatch):
    # 1/PRIME has no image modulo PRIME and PRIME's is 0, so no rank
    # modulo PRIME could certify these columns; settling needs none.
    m = Matrix(2, 2, [{0: ONE / PRIME}, {1: Scalar(PRIME)}])
    seen = spy_mod_prime(monkeypatch)
    assert _partition(m, Subspace(2)) == ({0, 1}, [], [])
    assert certified_kernel(m, Subspace(2)) == kernel(m) == Subspace(2)
    assert seen == []


# One block each, with no known subspace, so the target is 3.  The
# first has two rows; in the second, once the first two rows have rank
# 1, the one row left cannot reach it.  Neither reads its 1/PRIME entry.
EARLY_STOPS = {
    "fewer rows than the target": (
        [{0: ONE, 1: ONE}, {1: ONE, 2: ONE / PRIME}], 0),
    "rows left cannot reach it": (
        [{0: ONE, 1: ONE}, {0: Scalar(2), 1: Scalar(2)},
         {1: ONE, 2: ONE / PRIME}], 2),
}


@pytest.mark.parametrize("label", sorted(EARLY_STOPS))
def test_the_modular_pass_stops_once_the_target_is_out_of_reach(
        label, monkeypatch):
    rows, rows_read = EARLY_STOPS[label]
    m = Matrix(len(rows), 3, rows)
    seen = spy_mod_prime(monkeypatch)
    assert not _rank_mod_prime_reaches(m.rows, 3, {})
    assert seen == [v for r in rows[:rows_read] for v in r.values()]
    monkeypatch.undo()
    assert _partition(m, Subspace(3)) == (set(), m.rows, [0, 1, 2])
    assert certified_kernel(m, Subspace(3)) == kernel(m)


def test_an_unreadable_entry_before_the_target_sends_the_block_exact():
    # B = span{e_0 - e_3} with pivot 0, so the target is 3, the columns
    # 1, 2, 3.  The first row read gets the pivot 2, its last column;
    # the second has 1/PRIME at column 1, off B's pivots, read at rank 1.
    # The rows have rank 3 on those columns, so the cocycles are B.
    m = Matrix(3, 4, [{1: ONE, 2: ONE},
                      {0: ONE, 1: ONE / PRIME, 3: ONE},
                      {0: ONE, 1: ONE, 2: ONE, 3: ONE}])
    known = Subspace(4, [{0: ONE, 3: -ONE}])
    assert m.matvec(known.basis()[0]) == {}
    assert _partition(m, known) == ({0}, m.rows, [1, 2, 3])
    assert certified_kernel(m, known) == kernel(m) == known


# spec -> whether the rows the two passes get touch a settled column.
NO_PIVOT_READS = {
    "sheared diamond_e": (sheared("diamond_e"), False),
    "diamond_e": (catalog("diamond_e"), True),
    "one-sided square": (one_sided_square(), False),
}


@pytest.mark.parametrize("label", sorted(NO_PIVOT_READS))
def test_the_exact_pass_reads_no_coboundary_pivot(label, monkeypatch):
    # Every entry is its own Scalar, so each value the modular pass
    # reads names its column.  The first echelon eliminates the residual
    # rows with column c read as ncols - 1 - c; the second receives
    # every row of B's RREF.
    spec, touches_settled = NO_PIVOT_READS[label]
    scheme = CochainScheme(spec, "adjoint")
    delta = scheme.delta_matrix(3)
    m = Matrix._trusted(delta.nrows, delta.ncols, [
        {c: Scalar(v.re, v.im) for c, v in r.items()} for r in delta.rows])
    column_of = {id(v): c for r in m.rows for c, v in r.items()}
    known = image(scheme.delta_matrix(2))
    last = m.ncols - 1
    pivots = set(known.pivots)
    ranked = []
    rank = linalg._rank_mod_prime_reaches

    def rank_spy(rows, target, skip):
        ranked.extend(rows)
        return rank(rows, target, skip)

    monkeypatch.setattr(linalg, "_rank_mod_prime_reaches", rank_spy)
    skip, rows, _ = _partition(m, known)
    settled = skip - pivots
    assert pivots <= skip
    assert any(pivots.intersection(r) for r in rows)
    assert any(settled.intersection(r)
               for r in ranked + rows) == touches_settled
    inserts = []
    insert = Echelon.insert

    def spy(self, vec):
        inserts.append((self, dict(vec)))
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", spy)
    seen = spy_mod_prime(monkeypatch)
    got = certified_kernel(m, known)
    monkeypatch.undo()
    assert seen
    assert not any(column_of[id(v)] in skip for v in seen)
    first = inserts[0][0]
    read = [vec for ech, vec in inserts if ech is first]
    assert read
    assert not any(last - c in skip for vec in read for c in vec)
    assert [vec for ech, vec in inserts if ech is not first] == known.basis()
    assert got == kernel(m)


# Tables that fail the right Leibniz identity.  The first five cases are
# the coefficient choices and degrees where the coboundaries of tables 1
# and 2 would leave the cocycles; in the others, trivial degree 1 among
# them, a plain kernel would answer, but it would not be the cohomology
# of a complex.
TABLE_1 = {(0, 0): {1: Scalar(2)}, (0, 1): {1: ONE}}
TABLE_2 = {(0, 0): {1: ONE}, (0, 2): {1: -ONE}, (2, 1): {1: -ONE}}
# Antisymmetric, but the Jacobi sum at (e_0, e_1, e_2) is -e_2.
SKEW_NOT_JACOBI = {(0, 1): {2: ONE}, (1, 0): {2: -ONE},
                   (1, 2): {1: ONE}, (2, 1): {1: -ONE}}
LEAKS = [(TABLE_1, "adjoint", 1), (TABLE_1, "adjoint", 2),
         (TABLE_1, "trivial", 2), (TABLE_2, "adjoint", 3),
         (TABLE_2, "trivial", 3)]
NON_LEIBNIZ = LEAKS + [
    case for case in [(table, coefficients, n)
                      for table in (TABLE_1, TABLE_2, SKEW_NOT_JACOBI)
                      for coefficients in ("adjoint", "trivial")
                      for n in (1, 2, 3)]
    if case not in LEAKS]


def forbid_coboundary_matrices(monkeypatch):
    """Make every coboundary matrix of the Leibniz complex, a weight
    block or the whole, fail to build: both are built by one method.
    So does the antisymmetric complex's, which `lie_delta_matrix`
    gathers from its columns."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a coboundary matrix was built")

    monkeypatch.setattr(CochainScheme, "_block", forbidden)
    monkeypatch.setattr(Matrix, "from_columns", forbidden)


@pytest.mark.parametrize("table, coefficients, n", NON_LEIBNIZ)
def test_non_leibniz_tables_still_raise(table, coefficients, n, monkeypatch):
    spec = AlgebraSpec(3, table, kind="leibniz")
    assert not is_right_leibniz(spec)
    scheme = CochainScheme(spec, coefficients)
    forbid_coboundary_matrices(monkeypatch)
    with pytest.raises(ValueError, match="not right Leibniz"):
        leibniz_cohomology(scheme, n)
    with pytest.raises(ValueError, match="not right Leibniz"):
        graded_cohomology(scheme, n)


NON_LIE = {
    "one-sided square": one_sided_square(),
    "table 1": AlgebraSpec(3, TABLE_1, kind="leibniz"),
    "table 2": AlgebraSpec(3, TABLE_2, kind="leibniz"),
    "skew, not Jacobi": AlgebraSpec(3, SKEW_NOT_JACOBI, kind="leibniz"),
}


@pytest.mark.parametrize("label", sorted(NON_LIE))
@pytest.mark.parametrize("coefficients", ["adjoint", "trivial"])
def test_lie_cohomology_refuses_tables_that_are_not_lie(label, coefficients,
                                                        monkeypatch):
    scheme = CochainScheme(NON_LIE[label], coefficients)
    forbid_coboundary_matrices(monkeypatch)
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="not a Lie algebra"):
            graded_cohomology(scheme, n, lie=True)
    assert not scheme._lie_mats


def test_certified_kernel_checks_the_ambient_dimension():
    scheme = CochainScheme(catalog("sl2"), "adjoint")
    with pytest.raises(LinalgError):
        certified_kernel(scheme.delta_matrix(2), image(scheme.delta_matrix(2)))


@pytest.mark.parametrize("argv", [
    ["cohomology", "--deg", "2"],
    ["massey", "--generators", "1,2", "--order", "2"],
])
def test_leibniz_identity_is_evaluated_once_per_request(argv, monkeypatch,
                                                        capsys):
    # Validation and the cocycle gate both ask; only the first evaluates.
    doc = dumps_canonical(algebra_to_document(catalog("diamond_e")))
    passes = []
    holds = algebras._right_leibniz_holds

    def counted_holds(spec):
        passes.append(1)
        return holds(spec)

    monkeypatch.setattr(algebras, "_right_leibniz_holds", counted_holds)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(passes) == 1


def test_the_deg3_request_takes_few_modular_ranks(monkeypatch, capsys):
    # sl2_plus_abelian 6's degree 3: 5,614 of the weight-0 block's 7,018
    # nonzero rows have one entry off B's pivots.  Reading them through
    # per-block ranks took 2,281 ranks and 3,837 modular reads; settled
    # one level deep, 121 and 1,020; peeled to the fixpoint, 1 and 21.
    doc = dumps_canonical(algebra_to_document(catalog("sl2_plus_abelian", 6)))
    ranks = []
    rank = linalg._rank_mod_prime_reaches

    def rank_spy(rows, target, skip):
        ranks.append(target)
        return rank(rows, target, skip)

    monkeypatch.setattr(linalg, "_rank_mod_prime_reaches", rank_spy)
    seen = spy_mod_prime(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert cli.main(["cohomology", "--deg", "3"]) == 0
    capsys.readouterr()
    assert 0 < len(ranks) <= 5
    assert len(seen) <= 100


def cyclic_sum_vanishes(spec) -> bool:
    """Jacobi by bilinear brackets of basis vectors on every triple: the
    reference for the verdict `validate` reports."""
    basis = [{j: ONE} for j in range(spec.dim)]
    for x, y, z in product(basis, repeat=3):
        total = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            vec_add_scaled(total, spec.bracket_vec(spec.bracket_vec(a, b), c),
                           ONE)
        if total:
            return False
    return True


VERDICT_CASES = [(" ".join([name, *map(str, params)]), catalog(name, *params))
                 for name, params in CATALOG_CASES] + sorted(NON_LIE.items())


@pytest.mark.parametrize("spec", [spec for _, spec in VERDICT_CASES],
                         ids=[label for label, _ in VERDICT_CASES])
def test_jacobi_and_leibniz_verdicts_equal_the_full_scans(spec):
    # An antisymmetric table's Jacobi verdict is read off the one scan of
    # the Leibniz defect; both must equal the scans done in full.
    d = spec.dim
    leibniz = not any(leibniz_defect(spec.bracket, i, j, k)
                      for i, j, k in product(range(d), repeat=3))
    jacobi = cyclic_sum_vanishes(spec)
    report = validate(spec)
    assert report.is_leibniz == leibniz
    assert report.is_jacobi == jacobi
    assert algebras._jacobi_holds(spec.table) == jacobi
    if report.is_antisymmetric:
        assert jacobi == leibniz
