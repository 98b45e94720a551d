"""Property tests of the exact elimination core and the scalar fast path.

Echelon invariants and its column-occupancy index after random insert
sequences, kernel and image against sympy `DomainMatrix` RREF over QQ
and QQ_I, the certified kernel and the cochain schemes' cocycles against
the plain kernel, coboundaries inside cocycles with representatives
the non-pivot completion, delta o delta = 0 by the matrix-free
coboundary on sparse Q(i) cochains and not on a table that fails the
right Leibniz identity, the integer-triple arithmetic against the
coercing constructor, the modular image and the text form against their
Fraction-based references, the text form read back as the same scalar,
the two sparse-accumulate primitives against dense arithmetic, class
coordinates against a solve over coboundaries and representatives,
kernels, images and solves unchanged when the input vectors are
permuted, repeated and padded with zeros, and the modular
rank's verdicts against the semi-reduced loop it replaced, on matrices
rich in rows with one entry off the columns skipped, and the columns the
certificate settles, peeled to a fixpoint, unchanged when those rows are
shuffled.
Runs are derandomized, so the suite stays deterministic.
"""

import ast
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import leibcoh  # noqa: E402
from leibcoh.algebras import AlgebraSpec, catalog  # noqa: E402
from leibcoh.cochains import (  # noqa: E402
    ClassCoordinates,
    CochainScheme,
    cocycle_basis,
    graded_cohomology,
)
from leibcoh.linalg import (  # noqa: E402
    PRIME,
    Echelon,
    Matrix,
    Solver,
    Subspace,
    _mod_prime,
    _partition,
    _rank_mod_prime_reaches,
    certified_kernel,
    image,
    kernel,
    quotient_reps,
    vec_add_at,
    vec_add_scaled,
    vec_combine,
)
from leibcoh.scalars import (  # noqa: E402
    ONE,
    ZERO,
    Scalar,
    format_scalar,
    parse_scalar,
)
from tests.conftest import (  # noqa: E402
    I,
    fraction_format_scalar,
    fraction_mod_prime,
    leibniz_cohomology,
    lift_zero_wedge,
    rowwise_solver,
    semireduced_rank_mod_prime_reaches,
    shear,
    wedge_inclusion,
)
from tests.test_algebras import CATALOG_CASES  # noqa: E402
from tests.test_certificate import TABLE_1  # noqa: E402
from tests.test_cochains import SMALL_TORI  # noqa: E402
from tests.test_koszul import sheared  # noqa: E402

PROPERTY = settings(deadline=None, derandomize=True, max_examples=150)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
real_scalars = st.builds(Scalar, rationals)
gaussian_scalars = st.builds(Scalar, rationals, rationals)


def entries(gaussian):
    """Mostly zero entries, so that rows are sparse and ranks vary."""
    values = gaussian_scalars if gaussian else real_scalars
    return st.one_of(st.just(Scalar(0)), st.just(Scalar(0)), values)


@st.composite
def matrices(draw, gaussian):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 7))
    grid = [[draw(entries(gaussian)) for _ in range(ncols)]
            for _ in range(nrows)]
    return Matrix(nrows, ncols, [dict(enumerate(r)) for r in grid])


class ScanEchelon(Echelon):
    """The echelon with back-substitution by a scan over every stored
    row, the reference the occupancy index must reproduce exactly."""

    __slots__ = ()

    def insert(self, vec):
        row = self.reduce(vec)
        if not row:
            return False
        cands = [c for c in row if c < self.pivot_limit]
        if not cands:
            self.remainders.append(row)
            return False
        p = min(cands)
        inv = ONE / row[p]
        row = {c: inv * v for c, v in row.items()}
        for prow in self.pivot_rows.values():
            factor = prow.pop(p, None)
            if factor is None:
                continue
            for c2, v in row.items():
                if c2 == p:
                    continue
                w = prow.get(c2)
                w = -(factor * v) if w is None else w - factor * v
                if w:
                    prow[c2] = w
                else:
                    del prow[c2]
        self.pivot_rows[p] = row
        return True


def probe_kernel(m: Matrix):
    """Kernel echelon built by probing every pivot row per free column,
    the reference for the one-pass construction in `kernel`."""
    ech = ScanEchelon(m.ncols)
    for r in m.rows:
        ech.insert(r)
    out = ScanEchelon(m.ncols)
    for f in range(m.ncols):
        if f in ech.pivot_rows:
            continue
        v = {f: ONE}
        for p, prow in ech.pivot_rows.items():
            if f in prow:
                v[p] = -prow[f]
        out.insert(v)
    return out


def layout(ech):
    """Pivot order and every row's key order, with values."""
    return [(p, list(row.items())) for p, row in ech.pivot_rows.items()]


def recomputed_occupancy(ech):
    occ = {}
    for p, row in ech.pivot_rows.items():
        for c in row:
            if c < ech.pivot_limit and c not in ech.pivot_rows:
                occ.setdefault(c, set()).add(p)
    return occ


@st.composite
def insert_runs(draw):
    ncols = draw(st.integers(1, 9))
    limit = draw(st.one_of(st.none(), st.integers(0, ncols)))
    gaussian = draw(st.booleans())
    vecs = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), entries(gaussian),
                        max_size=ncols),
        max_size=10))
    return ncols, limit, vecs


@PROPERTY
@given(insert_runs())
def test_echelon_invariants_and_occupancy(run):
    ncols, limit, vecs = run
    ech = Echelon(ncols, pivot_limit=limit)
    ref = ScanEchelon(ncols, pivot_limit=limit)
    for vec in vecs:
        assert ech.insert(vec) == ref.insert(vec)
        pivots = set(ech.pivot_rows)
        for p, row in ech.pivot_rows.items():
            assert p < ech.pivot_limit
            assert row[p] == 1
            assert all(row.values())
            assert not (pivots - {p}) & set(row)
        assert ech.occupancy == recomputed_occupancy(ech)
    # Same rows with the same key order as the full scan.
    assert layout(ech) == layout(ref)
    assert ech.remainders == ref.remainders


def to_sympy(m: Matrix, gaussian):
    if gaussian:
        dom = QQ_I

        def conv(s):
            return QQ_I(QQ(s.re.numerator, s.re.denominator),
                        QQ(s.im.numerator, s.im.denominator))
    else:
        dom = QQ

        def conv(s):
            return QQ(s.re.numerator, s.re.denominator)
    zero = Scalar(0)
    grid = [[conv(r.get(j, zero)) for j in range(m.ncols)] for r in m.rows]
    return DomainMatrix(grid, (m.nrows, m.ncols), dom), conv


def rref_rows(dm):
    """Nonzero rows of the RREF of dm, as lists of domain elements."""
    reduced, pivots = dm.rref()
    return reduced.to_list()[:len(pivots)]


def dense(basis, n, conv):
    return [[conv(v.get(j, Scalar(0))) for j in range(n)] for v in basis]


@pytest.mark.parametrize("gaussian", [False, True], ids=["QQ", "QQ_I"])
def test_kernel_and_image_match_sympy(gaussian):
    @PROPERTY
    @given(matrices(gaussian), st.data())
    def check(m, data):
        dm, conv = to_sympy(m, gaussian)
        null = dm.nullspace()
        want_kernel = rref_rows(null) if null.shape[0] else []
        ker = kernel(m)
        assert dense(ker.basis(), m.ncols, conv) == want_kernel
        # The same canonical rows as the two-pass reference; the rows' key
        # order is no contract, the occupancy index is.
        ref = Subspace._from_echelon(m.ncols, probe_kernel(m))
        assert ker == ref
        assert ker.pivots == ref.pivots
        assert ker._ech.occupancy == recomputed_occupancy(ker._ech)
        # Given any part of the kernel as known, the certified kernel is
        # the same canonical subspace: none, some, or all of it.
        basis = ker.basis()
        part = [combination(data.draw, basis) for _ in range(len(basis))]
        for known in ([], part, basis):
            assert certified_kernel(m, Subspace(m.ncols, known)) == ker
        want_image = rref_rows(dm.transpose()) if m.ncols else []
        assert dense(image(m).basis(), m.nrows, conv) == want_image

    check()


ARITHMETIC = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "neg": lambda a, b: -a,
    "int_mul": lambda a, b: 3 * a,
    "int_rsub": lambda a, b: 2 - a,
    "int_div": lambda a, b: a / -3,
    "int_rdiv": lambda a, b: 2 / a,
}


def exact(name, a, b):
    """The same operation on (re, im) pairs of plain Fractions."""
    ar, ai = Fraction(a.re), Fraction(a.im)
    br, bi = Fraction(b.re), Fraction(b.im)
    if name == "int_div":
        br, bi = Fraction(-3), Fraction(0)
    if name == "int_rdiv":
        ar, ai, br, bi = Fraction(2), Fraction(0), ar, ai
    if name == "add":
        return ar + br, ai + bi
    if name == "sub":
        return ar - br, ai - bi
    if name == "mul":
        return ar * br - ai * bi, ar * bi + ai * br
    if name in ("div", "int_div", "int_rdiv"):
        n = br * br + bi * bi
        return (ar * br + ai * bi) / n, (ai * br - ar * bi) / n
    if name == "neg":
        return -ar, -ai
    if name == "int_mul":
        return 3 * ar, 3 * ai
    return 2 - ar, -ai


def assert_canonical(s):
    """s is the triple (a + b*i)/d of ints with d > 0 and
    gcd(a, b, d) = 1."""
    assert type(s.a) is int and type(s.b) is int and type(s.d) is int
    assert s.d > 0
    assert gcd(s.a, s.b, s.d) == 1


@PROPERTY
@given(st.one_of(real_scalars, gaussian_scalars),
       st.one_of(real_scalars, gaussian_scalars),
       st.sampled_from(sorted(ARITHMETIC)))
def test_fast_arithmetic_matches_coercing_constructor(a, b, name):
    assert_canonical(a)
    assert_canonical(b)
    if (name == "div" and not b) or (name == "int_rdiv" and not a):
        return
    got = ARITHMETIC[name](a, b)
    re, im = exact(name, a, b)
    coerced = Scalar(re, im)
    assert type(got) is Scalar
    assert_canonical(got)
    assert (got.a, got.b, got.d) == (coerced.a, coerced.b, coerced.d)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (re, im)
    assert got == coerced
    assert hash(got) == hash(coerced)
    assert format_scalar(got) == format_scalar(coerced)
    # Equality with ints and Fractions, from either side.
    assert (got == 1) == (1 == got) == (re == 1 and not im)
    assert (got != 1) == (re != 1 or bool(im))
    assert (got == re) == (re == got) == (not im)


def test_division_by_zero_raises():
    zeros = [ZERO, Scalar(0, 0), -ZERO, ZERO * I, Scalar("1/2") - ONE / 2]
    for dividend in (ONE, Scalar("1/2", -3), I, ZERO, 2, Fraction(1, 3)):
        divisors = zeros + [0] if isinstance(dividend, Scalar) else zeros
        for zero in divisors:
            with pytest.raises(ZeroDivisionError):
                dividend / zero


# Numerators large enough to wrap modulo PRIME, and denominators that
# PRIME divides, where the modular image must be None.
residue_numerators = st.one_of(st.integers(-9, 9),
                               st.integers(-PRIME ** 2, PRIME ** 2))
residue_denominators = st.one_of(
    st.integers(1, 12), st.sampled_from([PRIME, 2 * PRIME, PRIME ** 2]),
    st.integers(1, PRIME ** 2))
residue_rationals = st.builds(Fraction, residue_numerators,
                              residue_denominators)


@PROPERTY
@given(residue_rationals, residue_rationals)
@example(Fraction(1, 2), Fraction(1, 3))
@example(Fraction(3, 4), Fraction(-1, 6))
@example(Fraction(1, PRIME), Fraction(0))
@example(Fraction(1, 2), Fraction(1, PRIME))
@example(Fraction(0), Fraction(-5, 2 * PRIME))
def test_triple_readers_match_fraction_references(re, im):
    s = Scalar(re, im)
    assert_canonical(s)
    assert _mod_prime(s) == fraction_mod_prime(s)
    assert format_scalar(s) == fraction_format_scalar(s)
    assert (_mod_prime(s) is None) == (re.denominator % PRIME == 0
                                       or im.denominator % PRIME == 0)


@PROPERTY
@given(st.one_of(real_scalars, gaussian_scalars,
                 st.builds(Scalar, residue_rationals, residue_rationals)))
def test_scalar_text_round_trips(s):
    assert parse_scalar(format_scalar(s)) == s


NCOORDS = 6
any_scalars = st.one_of(real_scalars, gaussian_scalars)
sparse_vectors = st.dictionaries(st.integers(0, NCOORDS - 1),
                                 any_scalars.filter(bool), max_size=NCOORDS)
accumulate_steps = st.lists(st.one_of(
    st.tuples(st.just("at"), st.integers(0, NCOORDS - 1), entries(True)),
    st.tuples(st.just("scaled"), sparse_vectors, entries(True)),
    st.tuples(st.just("combine"), st.lists(sparse_vectors, max_size=2),
              st.lists(entries(True), max_size=2)),
), max_size=8)


def pair(s):
    return Fraction(s.re), Fraction(s.im)


@PROPERTY
@given(sparse_vectors, accumulate_steps)
@example({0: ONE}, [("at", 3, Scalar(0)), ("at", 0, -ONE)])
@example({}, [("scaled", {0: Scalar(0)}, ONE)])
@example({1: ONE}, [("combine", [{1: ONE}, {2: I}], [Scalar(0), -ONE])])
def test_sparse_accumulate_matches_dense(start, steps):
    acc = dict(start)
    want = [(Fraction(0), Fraction(0))] * NCOORDS
    for j, v in start.items():
        want[j] = pair(v)
    for kind, arg, value in steps:
        if kind == "at":
            vec_add_at(acc, arg, value)
            scaled = [({arg: ONE}, value)]
        elif kind == "scaled":
            vec_add_scaled(acc, arg, value)
            scaled = [(arg, value)]
        else:
            # acc itself at position 0, coefficients on a prefix of arg.
            coeffs = dict(enumerate(value[: len(arg)]))
            acc = vec_combine([acc, *arg], {0: ONE, **{
                j + 1: c for j, c in coeffs.items()}})
            scaled = [(arg[j], c) for j, c in coeffs.items()]
        for vec, factor in scaled:
            fr, fi = pair(factor)
            for j, v in vec.items():
                vr, vi = pair(v)
                wr, wi = want[j]
                want[j] = (wr + fr * vr - fi * vi, wi + fr * vi + fi * vr)
        assert all(acc.values())
        assert {j: pair(v) for j, v in acc.items()} == {
            j: w for j, w in enumerate(want) if any(w)}


def _none_test(node):
    """The name X when node is the test `X is None`, else None."""
    if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and len(node.ops) == 1 and isinstance(node.ops[0], ast.Is)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None):
        return node.left.id
    return None


def _adds_to(node, name):
    """Whether node is `name + ...` or `name - ...`."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and isinstance(node.left, ast.Name) and node.left.id == name)


def accumulate_sites(source):
    """Qualified names of the functions that accumulate into a sparse map
    by hand, in either form, under any variable name:
    `w = v if w is None else w + v`, or `if w is None: ...` with
    `w = w + ...` (or `-`, or `+=`) in its else branch."""
    sites = []

    def found(node):
        name = _none_test(node.test)
        if name is None:
            return False
        if isinstance(node, ast.IfExp):
            return _adds_to(node.orelse, name)
        return any(
            (isinstance(sub, ast.Assign) and len(sub.targets) == 1
             and isinstance(sub.targets[0], ast.Name)
             and sub.targets[0].id == name and _adds_to(sub.value, name))
            or (isinstance(sub, ast.AugAssign)
                and isinstance(sub.target, ast.Name) and sub.target.id == name
                and isinstance(sub.op, (ast.Add, ast.Sub)))
            for stmt in node.orelse for sub in ast.walk(stmt))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, (ast.If, ast.IfExp)) and found(child):
                sites.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(source), ())
    return sites


# The coboundary's stencil terms are summed by one helper that inlines
# vec_add_at, because it runs once per coboundary term; the linalg
# docstring names it.
ACCUMULATE_EXCEPTIONS = {"cochains._gather"}


def test_accumulate_guard_sees_both_forms():
    one_line = "def f(acc, k, v):\n    w = acc.get(k)\n    w = v if w is None else w + v\n"
    multi_line = ("class C:\n    def g(self, acc, k, v):\n"
                  "        w = acc.get(k)\n        if w is None:\n"
                  "            acc[k] = v\n        else:\n"
                  "            w = w - v\n            acc[k] = w\n")
    augmented = "def h(w, v):\n    if w is None:\n        w = v\n    else:\n        w += v\n"
    plain = "def k(w, v):\n    if w is None:\n        w = v\n    else:\n        w = v * w\n"
    assert accumulate_sites(one_line) == ["f"]
    assert accumulate_sites(multi_line) == ["C.g"]
    assert accumulate_sites(augmented) == ["h"]
    assert accumulate_sites(plain) == []


def test_accumulate_idiom_lives_only_in_linalg():
    package = Path(leibcoh.__file__).parent
    assert accumulate_sites((package / "linalg.py").read_text())
    copies = [f"{path.stem}.{site}"
              for path in sorted(package.glob("*.py"))
              if path.name != "linalg.py"
              for site in accumulate_sites(path.read_text())]
    assert [c for c in copies if c not in ACCUMULATE_EXCEPTIONS] == [], \
        "accumulate into a sparse map with linalg.vec_add_at"
    # One site in cochains: the coboundary's builders share it.
    assert [c for c in copies if c.startswith("cochains.")] \
        == ["cochains._gather"]


def solver_coordinates(space):
    """Class coordinates by one tracked elimination of [B basis | reps]:
    the construction the pivot read-off must reproduce exactly."""
    cols = space.coboundaries.basis() + [dict(r) for r in space.reps]
    solver = Solver(Matrix.from_columns(space.cocycles.ambient_dim, cols))
    offset = space.coboundaries.dim

    def coords(vec):
        sol = solver.solve(vec)
        if sol is None:
            return None
        return [sol.get(offset + i, ZERO) for i in range(len(space.reps))]
    return coords


# diamond_e in the basis y_1 = e_1 + (1 + i) e_2, y_j = e_j otherwise:
# Q(i) structure constants, cheaper to eliminate in degree 3 than a
# shear of every basis vector.
GAUSSIAN_DIAMOND = shear(catalog("diamond_e"), 1, 2, ONE + I)
COORDINATE_ALGEBRAS = [
    ("sl2", catalog("sl2")),
    ("heisenberg 1", catalog("heisenberg", 1)),
    ("diamond_e", catalog("diamond_e")),
    ("one-sided square", AlgebraSpec(2, {(1, 1): {0: ONE}}, kind="leibniz")),
    ("gaussian diamond_e", GAUSSIAN_DIAMOND),
]
COORDINATE_CASES = [(label, spec, coefficients, n)
                    for label, spec in COORDINATE_ALGEBRAS
                    for coefficients in ("adjoint", "trivial")
                    for n in (2, 3)]


@lru_cache(maxsize=None)
def coordinate_case(case):
    """The full complex's space and its Solver reference, and the class
    coordinates read off the weight-0 route."""
    _, spec, coefficients, n = COORDINATE_CASES[case]
    scheme = CochainScheme(spec, coefficients)
    space = leibniz_cohomology(scheme, n)
    return (space, ClassCoordinates(scheme, graded_cohomology(scheme, n)),
            solver_coordinates(space))


def combination(draw, vectors):
    out = {}
    if vectors:
        picks = draw(st.lists(st.tuples(st.integers(0, len(vectors) - 1),
                                        any_scalars), max_size=4))
        for j, c in picks:
            vec_add_scaled(out, vectors[j], c)
    return out


@PROPERTY
@given(st.integers(0, len(COORDINATE_CASES) - 1), st.data())
def test_class_coordinates_match_solver_reference(case, data):
    space, classes, reference = coordinate_case(case)
    cocycle = combination(data.draw, space.cocycles.basis())
    vec_add_scaled(cocycle, combination(data.draw, space.reps), ONE)
    got = classes.coords(cocycle)
    assert got is not None
    assert got == reference(cocycle)
    # A random cochain: a cocycle plus a few basis cochains, so that
    # both closed and non-closed inputs occur.
    ambient = space.cocycles.ambient_dim
    noise = data.draw(st.dictionaries(st.integers(0, ambient - 1),
                                      any_scalars, max_size=3))
    vec = dict(cocycle)
    for j, c in noise.items():
        vec_add_at(vec, j, c)
    assert classes.coords(vec) == reference(vec)


def assert_cocycles_match_plain_kernel(spec, coefficients, n):
    """The graded route's ZL^n basis, dimensions and representatives,
    and the certified kernel of the full complex, against one plain
    elimination of each full coboundary."""
    scheme = CochainScheme(spec, coefficients)
    plain = kernel(scheme.delta_matrix(n))
    b = image(scheme.delta_matrix(n - 1))
    graded = graded_cohomology(scheme, n)
    assert cocycle_basis(scheme, n) == plain.basis()
    assert (graded.z_dim, graded.b_dim) == (plain.dim, b.dim)
    assert graded.reps == quotient_reps(plain, b)
    full = leibniz_cohomology(scheme, n)
    assert (full.cocycles, full.coboundaries) == (plain, b)


# The coordinate algebras, and the small tori, whose ZL^n the graded
# route merges from a weight-0 block and the nonzero-weight coboundaries.
KERNEL_ALGEBRAS = dict(COORDINATE_ALGEBRAS + SMALL_TORI)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("coefficients", ["adjoint", "trivial"])
@pytest.mark.parametrize("label", list(KERNEL_ALGEBRAS))
def test_cocycles_match_plain_kernel(label, coefficients, n):
    assert_cocycles_match_plain_kernel(KERNEL_ALGEBRAS[label], coefficients,
                                       n)


@settings(deadline=None, derandomize=True, max_examples=12)
@given(st.sampled_from(list(KERNEL_ALGEBRAS.values())),
       st.data(), gaussian_scalars.filter(bool),
       st.sampled_from(["adjoint", "trivial"]), st.integers(1, 3))
def test_cocycles_match_plain_kernel_after_gaussian_shears(
        spec, data, c, coefficients, n):
    a = data.draw(st.integers(0, spec.dim - 1))
    b = data.draw(st.integers(0, spec.dim - 1).filter(lambda j: j != a))
    assert_cocycles_match_plain_kernel(shear(spec, a, b, c), coefficients, n)


def assert_spaces_nest(spec, coefficients):
    """In degrees 1-3 of the full complex, and of the antisymmetric one
    for a Lie table: B lies in Z, so B's pivots are among Z's, and the
    representatives are Z's RREF rows at the other pivots, h of them,
    embedded in tensor coordinates for the antisymmetric complex."""
    scheme = CochainScheme(spec, coefficients)
    builds = [leibniz_cohomology]
    if spec.kind == "lie":
        builds.append(partial(graded_cohomology, lie=True))
    for n in (1, 2, 3):
        for lie, build in enumerate(builds):
            space = build(scheme, n)
            z, b = space.cocycles, space.coboundaries
            assert z.contains_subspace(b)
            rest = set(z.pivots) - set(b.pivots)
            assert len(rest) == space.h_dim
            chosen = [r for r in z.basis() if min(r) in rest]
            if lie:
                incl = wedge_inclusion(scheme, n)
                chosen = [vec_combine(incl, r)
                          for r in lift_zero_wedge(scheme, n, chosen)]
            assert space.reps == chosen


NESTING_ALGEBRAS = (
    [(" ".join([name, *map(str, params)]), catalog(name, *params))
     for name, params in CATALOG_CASES]
    + [("one-sided square", dict(COORDINATE_ALGEBRAS)["one-sided square"])])


@pytest.mark.parametrize("coefficients", ["adjoint", "trivial"])
@pytest.mark.parametrize("label", [label for label, _ in NESTING_ALGEBRAS])
def test_coboundaries_lie_in_cocycles(label, coefficients):
    assert_spaces_nest(dict(NESTING_ALGEBRAS)[label], coefficients)


@settings(deadline=None, derandomize=True, max_examples=12)
@given(st.sampled_from([spec for _, spec in NESTING_ALGEBRAS]),
       st.data(), gaussian_scalars.filter(bool),
       st.sampled_from(["adjoint", "trivial"]))
def test_coboundaries_lie_in_cocycles_after_gaussian_shears(
        spec, data, c, coefficients):
    a = data.draw(st.integers(0, spec.dim - 1))
    b = data.draw(st.integers(0, spec.dim - 1).filter(lambda j: j != a))
    assert_spaces_nest(shear(spec, a, b, c), coefficients)


# The catalog's small algebras, and diamond_e and g54 over Q(i).
SQUARE_ALGEBRAS = ([catalog(name, *params) for name, params in CATALOG_CASES]
                   + [sheared("diamond_e"), sheared("g54")])


@lru_cache(maxsize=None)
def square_scheme(case, coefficients):
    return CochainScheme(SQUARE_ALGEBRAS[case], coefficients)


@PROPERTY
@given(st.integers(0, len(SQUARE_ALGEBRAS) - 1),
       st.sampled_from(["adjoint", "trivial"]), st.integers(1, 2), st.data())
def test_delta_squared_is_zero_without_matrices(case, coefficients, n, data):
    # certified_kernel's precondition, checked by the matrix-free
    # coboundary alone on sparse Q(i) cochains.
    scheme = square_scheme(case, coefficients)
    c = data.draw(st.dictionaries(st.integers(0, scheme.cochain_dim(n) - 1),
                                  gaussian_scalars, min_size=1, max_size=4))
    assert scheme.delta_apply(n + 1, scheme.delta_apply(n, c)) == {}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("coefficients", ["adjoint", "trivial"])
def test_delta_squared_moves_a_cochain_off_the_leibniz_identity(
        coefficients, n):
    # TABLE_1 is not right Leibniz, and there delta o delta is not zero on
    # some basis cochain, so the property above can fail.
    scheme = CochainScheme(AlgebraSpec(3, TABLE_1, kind="leibniz"),
                           coefficients)
    assert any(scheme.delta_apply(n + 1, scheme.delta_apply(n, {i: ONE}))
               for i in range(scheme.cochain_dim(n)))


@PROPERTY
@given(st.booleans().flatmap(matrices), st.data())
def test_solver_matches_the_rowwise_reference(m, data):
    # Consistent right-hand sides m x, arbitrary ones (mostly
    # inconsistent: both give None), and either with explicit zero
    # values, which a column accumulator must skip rather than store or
    # delete.
    solver, reference = Solver(m), rowwise_solver(m)
    x = data.draw(st.dictionaries(st.integers(0, m.ncols - 1), any_scalars,
                                  max_size=m.ncols))
    rows = st.integers(0, max(m.nrows - 1, 0))
    anywhere = data.draw(st.dictionaries(rows, any_scalars, max_size=3))
    zeros = data.draw(st.dictionaries(rows, st.just(Scalar(0)), max_size=3))
    consistent = m.matvec(x)
    assert solver.solve(consistent) is not None
    for b in (consistent, anywhere):
        for rhs in (b, {**zeros, **b}):
            rhs = {i: v for i, v in rhs.items() if i < m.nrows}
            got = solver.solve(rhs)
            assert got == reference(rhs)
            assert got is None or (list(got) == sorted(got) and m.matvec(got)
                                   == {i: v for i, v in rhs.items() if v})


def padded(draw, vectors):
    """vectors, some repeated and some zero ones added, in a random
    order; each entry is (source index or None, vector)."""
    tagged = list(enumerate(vectors))
    if vectors:
        tagged += [(i, dict(vectors[i])) for i in draw(
            st.lists(st.integers(0, len(vectors) - 1), max_size=3))]
    tagged += [(None, {})] * draw(st.integers(0, 2))
    return draw(st.permutations(tagged))


@PROPERTY
@given(st.booleans().flatmap(matrices), st.data())
def test_rref_does_not_depend_on_input_order(m, data):
    ker = kernel(m)
    tagged = padded(data.draw, m.rows)
    shuffled = Matrix(len(tagged), m.ncols, [r for _, r in tagged])
    assert kernel(shuffled) == ker
    basis = ker.basis()
    part = [combination(data.draw, basis) for _ in range(len(basis))]
    for known in ([], part, basis):
        assert certified_kernel(shuffled, Subspace(m.ncols, known)) == ker
    columns = [c for _, c in padded(data.draw, m.columns())]
    assert image(Matrix.from_columns(m.nrows, columns)) == image(m)

    # The solution with zeros at the free coordinates is unique, so both
    # solvers give it, or both give None; a right-hand side b of m is
    # b[i] on a copy of row i and zero on an added zero row.
    solver, moved = Solver(m), Solver(shuffled)
    x = data.draw(st.dictionaries(st.integers(0, m.ncols - 1), any_scalars,
                                  max_size=m.ncols))
    in_image = m.matvec(x)
    sol = solver.solve(in_image)
    assert sol is not None and m.matvec(sol) == in_image
    noise = data.draw(st.dictionaries(st.integers(0, max(m.nrows - 1, 0)),
                                      any_scalars, max_size=2))
    anywhere = {i: v for i, v in noise.items() if i < m.nrows}
    assert (solver.solve(anywhere) is None) != image(m).contains(anywhere)
    for b in (in_image, anywhere):
        moved_b = {k: b[i] for k, (i, _) in enumerate(tagged) if i in b}
        assert moved.solve(moved_b) == solver.solve(b)

    # Growing a kernel keeps the occupancy index the new reading built.
    v = data.draw(st.dictionaries(st.integers(0, m.ncols - 1), any_scalars,
                                  max_size=3))
    ker.insert(v)
    assert ker == Subspace(m.ncols, basis + [v])
    assert ker._ech.occupancy == recomputed_occupancy(ker._ech)


@st.composite
def modular_blocks(draw):
    """Sparse Q(i) matrices and a few columns to skip.  In half of them
    some entries have PRIME in a denominator, so that their image
    modulo PRIME cannot be formed.  In half some rows are cut to one
    entry off the skipped columns, some of those 1/PRIME or PRIME, so
    that the certified kernel settles columns."""
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(1, 8))
    skip = set(draw(st.lists(st.integers(0, ncols - 1), max_size=3)))
    values = [st.just(ZERO), st.just(ZERO), st.just(ZERO), gaussian_scalars]
    if draw(st.booleans()):
        values.append(gaussian_scalars.filter(bool).map(lambda s: s / PRIME))
    cell = st.one_of(values)
    rows = [{c: draw(cell) for c in range(ncols)} for _ in range(nrows)]
    off = [c for c in range(ncols) if c not in skip]
    if off and draw(st.booleans()):
        lone = st.one_of(gaussian_scalars.filter(bool),
                         st.sampled_from([ONE / PRIME, Scalar(PRIME)]))
        for i, row in enumerate(rows):
            if draw(st.booleans()):
                rows[i] = {c: v for c, v in row.items() if c in skip}
                rows[i][draw(st.sampled_from(off))] = draw(lone)
    return Matrix(nrows, ncols, rows), skip


@PROPERTY
@given(modular_blocks(), st.data())
def test_modular_rank_matches_the_semireduced_loop(block, data):
    # Targets below, at and above the exact rank of the rows read off
    # skip, which is the rank modulo PRIME unless PRIME divides a
    # denominator or a small minor.
    m, skip = block
    read = Echelon(m.ncols)
    for r in m.rows:
        read.insert({c: v for c, v in r.items() if c not in skip})
    for target in (read.rank - 1, read.rank, read.rank + 1):
        assert (_rank_mod_prime_reaches(m.rows, target, skip)
                == semireduced_rank_mod_prime_reaches(m.rows, target, skip))
    ker = kernel(m)
    basis = ker.basis()
    known = Subspace(m.ncols, [combination(data.draw, basis) for _ in basis])
    assert certified_kernel(m, known) == ker


@PROPERTY
@given(modular_blocks(), st.data())
def test_the_peel_does_not_depend_on_the_row_order(block, data):
    # The peel ends at the least fixpoint, so skip and the blocks are the
    # same in any row order, and every row left has two or more entries
    # off skip.  So are the blocks certified, unless an entry with no
    # image modulo PRIME is read in one order only, before the rank
    # reaches its target: the rows {0:1, 1:1}, {0:1, 1:2} and
    # {0:1/PRIME, 1:1} certify their block, and reversed they do not.
    m, _ = block
    basis = kernel(m).basis()
    known = Subspace(m.ncols, [combination(data.draw, basis) for _ in basis])
    shuffled = Matrix(m.nrows, m.ncols, data.draw(st.permutations(m.rows)))
    skip, rows, residual = _partition(m, known)
    skip2, rows2, residual2 = _partition(shuffled, known)
    assert skip2 == skip
    assert all(sum(c not in skip for c in r) >= 2 for r in rows + rows2)
    if all(_mod_prime(v) is not None
           for r in m.rows for c, v in r.items() if c not in skip):
        assert residual2 == residual
