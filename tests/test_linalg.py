import random

from leibcoh.linalg import (
    Echelon,
    Matrix,
    Solver,
    Subspace,
    image,
    kernel,
    quotient_reps,
)
from leibcoh.scalars import ONE, Scalar


def S(x):
    return Scalar(x)


def from_dense(grid):
    """A Matrix from a rectangular list of rows (zeros are dropped)."""
    return Matrix(len(grid), len(grid[0]) if grid else 0,
                  [dict(enumerate(r)) for r in grid])


def identity(n):
    """The n x n identity matrix."""
    return Matrix.from_columns(n, [{i: ONE} for i in range(n)])


def random_matrix(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                v = Scalar(rng.randrange(-4, 5), rng.randrange(-2, 3))
                if v:
                    row[j] = v
        rows.append(row)
    return Matrix(nrows, ncols, rows)


def random_vector(rng, n):
    return {j: Scalar(rng.randrange(-5, 6)) for j in range(n) if rng.random() < 0.6}


def row_echelon(m):
    """The reduced row echelon form of m: an Echelon fed its rows."""
    ech = Echelon(m.ncols)
    for r in m.rows:
        ech.insert(r)
    return ech


def test_rref_identity():
    ech = row_echelon(identity(3))
    assert ech.sorted_rows() == identity(3).rows
    assert ech.sorted_pivots() == [0, 1, 2]
    assert ech.rank == 3


def test_rref_zero():
    ech = row_echelon(Matrix(2, 5))
    assert ech.sorted_rows() == []
    assert ech.sorted_pivots() == []
    assert ech.rank == 0


def test_rref_hand_example():
    ech = row_echelon(from_dense([[S(2), S(4)], [S(1), S(2)]]))
    assert ech.rank == 1
    assert ech.sorted_rows() == [{0: S(1), 1: S(2)}]
    assert ech.sorted_pivots() == [0]


def test_rref_idempotent_random():
    rng = random.Random(4242)
    for _ in range(25):
        m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        e1 = row_echelon(m)
        rows = e1.sorted_rows()
        e2 = row_echelon(Matrix(len(rows), m.ncols, rows))
        assert e1.sorted_rows() == e2.sorted_rows()
        assert e1.sorted_pivots() == e2.sorted_pivots()


def test_kernel_identity_and_zero():
    assert kernel(identity(4)).dim == 0
    k = kernel(Matrix(3, 3))
    assert k.dim == 3
    assert k == Subspace(3, [{0: ONE}, {1: ONE}, {2: ONE}])


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(30):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        k = kernel(m)
        assert k.dim + row_echelon(m).rank == m.ncols
        for v in k.basis():
            assert m.matvec(v) == {}


def test_image_examples():
    assert image(Matrix(4, 2)).dim == 0
    # Rank-1 outer product of (1,2,-1) and (2,3).
    outer = from_dense([[S(2), S(3)], [S(4), S(6)], [S(-2), S(-3)]])
    assert image(outer).dim == 1


def test_image_contains_matvec():
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        im = image(m)
        v = random_vector(rng, m.ncols)
        assert im.contains(m.matvec(v))


def test_quotient_dim_and_reps():
    full = Subspace(3, [{0: ONE}, {1: ONE}, {2: ONE}])
    zero = Subspace(3)
    assert len(quotient_reps(full, zero)) == 3
    line = Subspace(3, [{0: ONE, 1: S(2)}])
    reps = quotient_reps(full, line)
    assert len(reps) == 2
    # Classes of reps span: line + reps rebuild the full space.
    rebuilt = Subspace(3, line.basis() + reps)
    assert rebuilt == full


def test_quotient_reps_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(2, 8)
        sub_vecs = [random_vector(rng, n) for _ in range(rng.randrange(0, 3))]
        extra = [random_vector(rng, n) for _ in range(rng.randrange(0, 3))]
        b = Subspace(n, sub_vecs)
        a = Subspace(n, sub_vecs + extra)
        reps = quotient_reps(a, b)
        assert len(reps) == a.dim - b.dim
        grow = Subspace(n, b.basis())
        for r in reps:
            assert grow.insert(r)  # each rep adds rank over b
        assert grow == a


def test_solve_identity_and_inconsistent():
    m = identity(3)
    rhs = {0: S(5), 2: S(-1)}
    assert Solver(m).solve(rhs) == rhs
    # x + y = 1 and x + y = 2 cannot both hold.
    m2 = from_dense([[S(1), S(1)], [S(1), S(1)]])
    assert Solver(m2).solve({0: S(1), 1: S(2)}) is None


def test_solve_zeros_in_free_coordinates():
    rng = random.Random(23)
    for _ in range(30):
        m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        piv = set(row_echelon(m).pivot_rows)
        v = random_vector(rng, m.ncols)
        b = m.matvec(v)
        x = Solver(m).solve(b)
        assert x is not None
        assert m.matvec(x) == b
        assert set(x) <= piv


def test_solver_matches_one_shot():
    rng = random.Random(31)
    m = random_matrix(rng, 8, 5)
    solver = Solver(m)
    piv = set(row_echelon(m).pivot_rows)
    for _ in range(10):
        b = m.matvec(random_vector(rng, 5))
        x = solver.solve(b)
        assert m.matvec(x) == b
        assert set(x) <= piv
    # An unreachable target must be rejected.
    span = image(m)
    unreachable = [b for b in (random_vector(rng, 8) for _ in range(10))
                   if not span.contains(b)]
    assert unreachable
    for b in unreachable:
        assert solver.solve(b) is None


def test_subspace_canonical_equality():
    a = Subspace(3, [{0: ONE, 1: ONE}, {1: ONE, 2: ONE}])
    b = Subspace(3, [{0: ONE, 2: S(-1)}, {1: S(2), 2: S(2)}])
    # Same span, different generating sets.
    assert a == b
    assert a.basis() == b.basis()


def test_matrix_transpose_and_columns():
    m = from_dense([[S(1), S(2), S(0)], [S(0), S(3), S(4)]])
    t = m.transpose()
    assert t.nrows == 3 and t.ncols == 2
    assert t.rows[1].get(0) == S(2)
    assert m.columns()[1] == {0: S(2), 1: S(3)}
    assert Matrix.from_columns(2, m.columns()) == m
