"""Shared fixtures: the imaginary unit I, cached cochain schemes and
hand-entered cochains, the full-complex cohomology oracle, the
antisymmetric basis cochains in tensor coordinates and the weight-0
ones among them, the antisymmetric complex's whole cohomology in
tensor coordinates, a tuple-building coboundary oracle, the
antisymmetric coboundary read off the tensor complex, whole and at
weight 0, literal evaluation of a cochain
on vectors, the reader of a report's cochain entries, and Fraction-based oracles for the
two readers of a Scalar's integer triple, the filtered list of monomials
of one degree, the row-wise solver that `linalg.Solver` must reproduce,
and the semi-reduced modular rank whose verdicts the certificate's must
equal."""

from itertools import permutations, product

import pytest

from leibcoh.algebras import catalog, change_basis, is_right_leibniz
from leibcoh.cochains import (CochainScheme, CohomologySpace, sym2_inclusion,
                              wedge_basis)
from leibcoh.linalg import (PRIME, PRIME_I, Echelon, Matrix, Subspace,
                            _mod_prime, certified_kernel, image, kernel,
                            quotient_reps, vec_add_at, vec_combine, vec_dot)
from leibcoh.scalars import ONE, ZERO, Scalar, parse_scalar

HALF = Scalar(1) / 2
I = Scalar(0, 1)


def fraction_mod_prime(s):
    """Image of s modulo PRIME read from its Fraction parts, or None if
    PRIME divides a denominator: the reference for linalg._mod_prime."""
    re = s.re
    x = re.numerator
    den = re.denominator
    if den != 1:
        if not den % PRIME:
            return None
        x *= pow(den, -1, PRIME)
    im = s.im
    if im:
        y = im.numerator * PRIME_I
        den = im.denominator
        if den != 1:
            if not den % PRIME:
                return None
            y *= pow(den, -1, PRIME)
        x += y
    return x % PRIME


def _fraction_text(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fraction_format_scalar(s) -> str:
    """Canonical text of s read from its Fraction parts: the reference
    for scalars.format_scalar."""
    if not s.im:
        return _fraction_text(s.re)
    if s.im == 1:
        itxt = "i"
    elif s.im == -1:
        itxt = "-i"
    elif s.im > 0:
        itxt = f"{_fraction_text(s.im)}*i"
    else:
        itxt = f"-{_fraction_text(-s.im)}*i"
    if not s.re:
        return itxt
    joiner = "" if itxt.startswith("-") else "+"
    return f"{_fraction_text(s.re)}{joiner}{itxt}"


def filtered_monomials(nparams: int, degree: int):
    """Exponent tuples of the given total degree, in lexicographic order,
    kept from every tuple of range(degree + 1) ** nparams: the reference
    for deformations._monomials."""
    return [combo for combo in product(range(degree + 1), repeat=nparams)
            if sum(combo) == degree]


def rowwise_solver(m: Matrix):
    """Solves of m x = b by one sparse dot product per tracked row: the
    same elimination of [m | identity] as `linalg.Solver`, with the
    identity parts of its remainders and pivot rows kept by row.  The
    reference for the column-wise solve."""
    ech = Echelon(m.ncols + m.nrows, pivot_limit=m.ncols)
    for i in sorted(range(m.nrows), key=lambda i: len(m.rows[i])):
        ech.insert({**m.rows[i], m.ncols + i: ONE})

    def track_part(row):
        return {c - m.ncols: v for c, v in row.items() if c >= m.ncols}

    pivot_tracks = [(p, track_part(ech.pivot_rows[p]))
                    for p in ech.sorted_pivots()]
    checks = [track_part(rem) for rem in ech.remainders]

    def solve(b):
        for track in checks:
            if vec_dot(track, b):
                return None
        x = {}
        for p, track in pivot_tracks:
            val = vec_dot(track, b)
            if val:
                x[p] = val
        return x
    return solve


def semireduced_rank_mod_prime_reaches(rows, target: int, skip) -> bool:
    """Whether the rank modulo PRIME of the rows read without their
    entries in `skip`, shortest first, reaches target before an entry
    without an image modulo PRIME is read, by the plain loop: every row
    is read, each pivot is the least column of a row and pivot rows are
    only zero left of their pivot.  The reference for
    linalg._rank_mod_prime_reaches."""
    if target <= 0:
        return True
    pivots = {}  # pivot column -> row, monic, zero left of the pivot
    for row in sorted(rows, key=len):
        r = {}
        for c, v in row.items():
            if c in skip:
                continue
            x = _mod_prime(v)
            if x is None:
                return False
            if x:
                r[c] = x
        while r:
            p = min(r)
            prow = pivots.get(p)
            if prow is None:
                inv = pow(r[p], -1, PRIME)
                pivots[p] = {c: v * inv % PRIME for c, v in r.items()}
                if len(pivots) == target:
                    return True
                break
            factor = r.pop(p)
            for c, v in prow.items():
                if c != p:
                    w = (r.get(c, 0) - factor * v) % PRIME
                    if w:
                        r[c] = w
                    else:
                        r.pop(c, None)
    return False


def leibniz_cohomology(scheme: CochainScheme, n: int) -> CohomologySpace:
    """Cocycles mod coboundaries of the whole complex in degree n >= 1,
    from the scheme's full coboundary matrices: the reference for
    `graded_cohomology`, which eliminates only at weight 0.  Refuses
    what `graded_cohomology` refuses, before any matrix is built: a
    degree below 1, and a table that is not right Leibniz, which gives
    no complex."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if not is_right_leibniz(scheme.spec):
        raise ValueError("not a complex: not right Leibniz")
    coboundaries = image(scheme.delta_matrix(n - 1))
    cocycles = certified_kernel(scheme.delta_matrix(n), coboundaries)
    return CohomologySpace(n, cocycles, coboundaries, 0,
                           quotient_reps(cocycles, coboundaries))


def wedge_inclusion(scheme: CochainScheme, n: int) -> list:
    """The antisymmetric basis cochains of degree n in tensor
    coordinates, head-major and in `wedge_basis` order: the one for
    (k, i_1 < .. < i_n) is the signed sum over all arrangements, +1 on
    the increasing one, each sign counted from the arrangement's
    inversions.  The reference for `cochains.embed_zero_wedge`."""
    heads = range(scheme.dim) if scheme.adjoint else (None,)
    incl = []
    for k in heads:
        for comb in wedge_basis(scheme.dim, n):
            vec = {}
            for perm in permutations(range(n)):
                inversions = sum(perm[i] > perm[j] for i in range(n)
                                 for j in range(i + 1, n))
                vec[scheme.flat_index(k, tuple(comb[p] for p in perm))] = \
                    -ONE if inversions % 2 else ONE
            incl.append(vec)
    return incl


def zero_wedge_positions(scheme: CochainScheme, n: int) -> list:
    """The positions, increasing, of the weight-0 antisymmetric basis
    cochains among all of them (head-major, `wedge_basis` order within a
    head), by a weight filter on every one: the reference for
    `CochainScheme.zero_wedges`."""
    combs = wedge_basis(scheme.dim, n)
    heads = range(scheme.dim) if scheme.adjoint else (None,)
    return [h * len(combs) + i for h, k in enumerate(heads)
            for i, t in enumerate(combs)
            if scheme.weight(n, scheme.flat_index(k, t)) == scheme._zero]


def lift_zero_wedge(scheme: CochainScheme, n: int, rows) -> list:
    """Weight-0 antisymmetric n-cochains, given over
    `zero_wedge_positions(scheme, n)`, read at their positions among all
    the increasing-tuple coordinates."""
    positions = zero_wedge_positions(scheme, n)
    return [{positions[j]: v for j, v in w.items()} for w in rows]


def embed_wedge(scheme: CochainScheme, n: int, space: Subspace) -> Subspace:
    """A subspace of weight-0 antisymmetric n-cochains, given over
    `zero_wedge_positions(scheme, n)`, embedded in tensor coordinates:
    each basis row w goes to the combination of `wedge_inclusion` with
    coefficients w at their positions."""
    incl = wedge_inclusion(scheme, n)
    return Subspace(scheme.cochain_dim(n),
                    [vec_combine(incl, w)
                     for w in lift_zero_wedge(scheme, n, space.basis())])


def weight_zero_part(scheme: CochainScheme, n: int, space: Subspace):
    """The weight-0 part of a subspace of n-cochains that is the sum of
    its weight parts: its RREF rows that lie in weight 0, since the RREF
    of such a sum is the union of its parts' RREFs."""
    zero = set(scheme.zero_indices(n))
    return Subspace(scheme.cochain_dim(n),
                    [r for r in space.basis() if zero.issuperset(r)])


def tensor_lie_cohomology(scheme: CochainScheme, n: int) -> CohomologySpace:
    """The antisymmetric complex's whole cohomology in degree n, in
    tensor coordinates: the kernel and image of `tensor_lie_delta_matrix`
    in every weight, embedded through `wedge_inclusion`, and the
    representatives taken there.  The reference for
    `graded_cohomology(scheme, n, lie=True)`, whose z and b dims count
    the nonzero weights in `acyclic_dim`."""
    incl = wedge_inclusion(scheme, n)
    cocycles, coboundaries = (
        Subspace(scheme.cochain_dim(n),
                 [vec_combine(incl, w) for w in space.basis()])
        for space in (kernel(tensor_lie_delta_matrix(scheme, n)),
                      image(tensor_lie_delta_matrix(scheme, n - 1))))
    return CohomologySpace(n, cocycles, coboundaries, 0,
                           quotient_reps(cocycles, coboundaries))


def evaluate_cochain(scheme: CochainScheme, data: dict, vectors):
    """Evaluate a sparse cochain on a tuple of sparse vectors.

    Returns a sparse vector for adjoint coefficients, a Scalar for
    trivial ones.  The degree is the number of vectors.
    """
    n = len(vectors)
    out = {}
    total = ZERO
    for idx, coeff in data.items():
        k, t = scheme.unflatten(n, idx)
        prod = coeff
        for vec, a in zip(vectors, t):
            v = vec.get(a)
            if not v:
                prod = None
                break
            prod = prod * v
        if prod is None or not prod:
            continue
        if scheme.adjoint:
            vec_add_at(out, k, prod)
        else:
            total = total + prod
    return out if scheme.adjoint else total


def cochain_from_entries(scheme, n: int, entries) -> dict:
    """Inverse of cochain_entries for round-trips in tests and tooling."""
    index = {label: i for i, label in enumerate(scheme.spec.basis_names)}
    data = {}
    for entry in entries:
        t = tuple(index[label] for label in entry["args"])
        if len(t) != n:
            raise ValueError(f"expected {n} arguments, got {len(t)}")
        if scheme.adjoint:
            if "basis" not in entry:
                raise ValueError("adjoint cochain entry needs a basis name")
            k = index[entry["basis"]]
        else:
            k = None
        flat = scheme.flat_index(k, t)
        coeff = parse_scalar(entry["coeff"])
        if coeff:
            data[flat] = coeff
    return data


def oracle_delta_column(scheme, by_target, k, t) -> dict:
    """Push-forward of the basis cochain at (k, t) under the coboundary,
    built term by term on explicit index tuples; by_target[m] lists the
    (a, b, c) with c the e_m coefficient of [e_a, e_b]."""
    n = len(t)
    d = scheme.dim
    table = scheme.spec.table
    flat = scheme.flat_index
    col = {}
    if scheme.adjoint:
        # [X_1, psi(X_2 .. X_{n+1})]
        for j in range(d):
            cell = table[j][k]
            if cell:
                u = (j,) + t
                for m, c in cell.items():
                    vec_add_at(col, flat(m, u), c)
        # (-1)^i [psi(.. hat X_i ..), X_i] for i = 2 .. n+1
        row = table[k]
        for pos in range(1, n + 1):
            positive = pos % 2 == 1
            for j in range(d):
                cell = row[j]
                if not cell:
                    continue
                u = t[:pos] + (j,) + t[pos:]
                for m, c in cell.items():
                    vec_add_at(col, flat(m, u), c if positive else -c)
    # (-1)^(j+1) psi(.., [X_i, X_j] in slot i, .., hat X_j, ..)
    for i in range(1, n + 1):
        hits = by_target[t[i - 1]]
        if not hits:
            continue
        w = list(t)
        for a, b, c in hits:
            w[i - 1] = a
            for j in range(i + 1, n + 2):
                u = tuple(w[: j - 1]) + (b,) + tuple(w[j - 1 :])
                vec_add_at(col, flat(k, u), c if j % 2 == 1 else -c)
    return col


def _by_target(scheme):
    by_target = [[] for _ in range(scheme.dim)]
    for a, b, value in scheme.spec.nonzero_brackets():
        for m, c in value.items():
            by_target[m].append((a, b, c))
    return by_target


def oracle_delta_matrix(scheme, n) -> Matrix:
    """The degree-n coboundary matrix from the oracle's columns, in
    flat-index order."""
    by_target = _by_target(scheme)
    heads = range(scheme.dim) if scheme.adjoint else (None,)
    cols = [oracle_delta_column(scheme, by_target, k, t)
            for k in heads for t in product(range(scheme.dim), repeat=n)]
    return Matrix.from_columns(scheme.cochain_dim(n + 1), cols)


def oracle_weight_block(scheme, n, weight=None) -> Matrix:
    """`oracle_delta_matrix` restricted to the columns
    `zero_indices(n, weight)` and the rows `zero_indices(n + 1,
    weight)`, in their positions, built from the oracle's columns at
    those indices only.  An entry outside those rows raises KeyError."""
    by_target = _by_target(scheme)
    rows = {idx: i for i, idx in enumerate(scheme.zero_indices(n + 1,
                                                               weight))}
    cols = []
    for idx in scheme.zero_indices(n, weight):
        k, t = scheme.unflatten(n, idx)
        col = oracle_delta_column(scheme, by_target, k, t)
        cols.append({rows[key]: v for key, v in col.items()})
    return Matrix.from_columns(len(rows), cols)


def scatter_block(scheme, n, columns, rows) -> Matrix:
    """The coboundary from the n-cochains at the increasing flat indices
    `columns` to the (n+1)-cochains at the increasing flat indices
    `rows`, each column pushed forward whole by `_delta_column` and
    scattered into rows keyed by flat index, in column order: the
    builder `CochainScheme._block` replaced, kept as its reference."""
    rows = {idx: {} for idx in rows}
    for j, idx in enumerate(columns):
        for key, v in scheme._delta_column(n, idx).items():
            rows[key][j] = v
    return Matrix(len(rows), len(columns), list(rows.values()))


def tensor_lie_delta_matrix(scheme, n) -> Matrix:
    """The antisymmetric coboundary by the tensor complex: the full
    coboundary of each included antisymmetric basis cochain (all n!
    arrangements of its tuple) read back at the increasing (n+1)-tuples,
    in head-major coordinates, every weight included."""
    out_pos = {c: i for i, c in enumerate(wedge_basis(scheme.dim, n + 1))}
    nout = len(out_pos)
    cols = []
    for vec in wedge_inclusion(scheme, n):
        col = {}
        for idx, v in scheme.delta_apply(n, vec).items():
            k, t = scheme.unflatten(n + 1, idx)
            pos = out_pos.get(t)
            if pos is not None:
                col[pos if k is None else k * nout + pos] = v
        cols.append(col)
    nrows = nout * (scheme.dim if scheme.adjoint else 1)
    return Matrix.from_columns(nrows, cols)


def tensor_lie_weight_block(scheme, n) -> Matrix:
    """`tensor_lie_delta_matrix` restricted to the weight-0 columns
    `zero_wedge_positions(scheme, n)` and rows `zero_wedge_positions(
    scheme, n + 1)`, in their positions: the reference for
    `cochains.lie_delta_matrix`, for a Lie table.  An entry of a weight-0
    column outside those rows raises KeyError."""
    whole = tensor_lie_delta_matrix(scheme, n).columns()
    rows = {r: i for i, r in enumerate(zero_wedge_positions(scheme, n + 1))}
    return Matrix.from_columns(len(rows), [
        {rows[r]: v for r, v in whole[c].items()}
        for c in zero_wedge_positions(scheme, n)])


def symmetric_cocycle_space(scheme):
    """Symmetric Leibniz 2-cocycles, embedded in tensor coordinates."""
    incl = sym2_inclusion(scheme)
    cols = [scheme.delta_apply(2, vec) for vec in incl]
    composed = Matrix.from_columns(scheme.cochain_dim(3), cols)
    return Subspace(scheme.cochain_dim(2),
                    [vec_combine(incl, v) for v in kernel(composed).basis()])


def shear(spec, a, b, c):
    """spec in the basis y_a = e_a + c e_b, y_j = e_j otherwise."""
    cols = [{j: ONE} for j in range(spec.dim)]
    cols[a][b] = c
    return change_basis(spec, Matrix.from_columns(spec.dim, cols))


def split_degree2(scheme, data):
    """Split a 2-cochain into its antisymmetric and symmetric parts."""
    anti = {}
    sym = {}
    for idx, v in data.items():
        k, (i, j) = scheme.unflatten(2, idx)
        hv = HALF * v
        for target, flip in ((anti, True), (sym, False)):
            for key, w in (
                (scheme.flat_index(k, (i, j)), hv),
                (scheme.flat_index(k, (j, i)), -hv if flip else hv),
            ):
                vec_add_at(target, key, w)
    return anti, sym


def degree2_reps(dec):
    """The representatives of all three blocks of a Degree2Decomposition."""
    return dec.h2_reps + dec.symmetric_basis + dec.coupled_reps


@pytest.fixture(scope="session")
def diamond_adj():
    return CochainScheme(catalog("diamond_e"), "adjoint")


@pytest.fixture(scope="session")
def diamond_triv():
    return CochainScheme(catalog("diamond_e"), "trivial")


@pytest.fixture(scope="session")
def g54_adj():
    return CochainScheme(catalog("g54"), "adjoint")


@pytest.fixture(scope="session")
def g54_triv():
    return CochainScheme(catalog("g54"), "trivial")


def diamond_phi_basis(scheme):
    """The four 2-cocycles spanning the diamond's degree-2 classes.

    Values are maps (e_a, e_b) -> coefficient * e_k entered directly;
    phi3 and phi7 are antisymmetric, phi14 is symmetric, phi11 is mixed.
    """
    fi = scheme.flat_index
    phi3 = {
        fi(0, (0, 3)): ONE,
        fi(0, (3, 0)): -ONE,
        fi(2, (2, 3)): ONE,
        fi(2, (3, 2)): -ONE,
    }
    phi7 = {
        fi(3, (1, 2)): ONE,
        fi(3, (2, 1)): -ONE,
    }
    phi11 = {
        fi(0, (2, 1)): ONE,
        fi(0, (2, 2)): HALF,
        fi(0, (3, 0)): -ONE,
    }
    phi14 = {fi(0, (3, 3)): ONE}
    return {3: phi3, 7: phi7, 11: phi11, 14: phi14}


@pytest.fixture(scope="session")
def diamond_phis(diamond_adj):
    return diamond_phi_basis(diamond_adj)
