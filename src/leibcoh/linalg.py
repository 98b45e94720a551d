"""Exact linear algebra over the Gaussian rationals.

Vectors are sparse maps {coordinate: Scalar} with no zero values stored.
`vec_add_at` and `vec_add_scaled` are the only writers that add into
such a map and keep that invariant; every accumulation in the library
goes through them, except the back-substitution loops inside `Echelon`
and `cochains._gather`, which sums the coboundary's stencil terms: both
inline `vec_add_at`.
`vec_combine` builds a linear combination of vectors on the second.
Matrices are logically dense rows x cols grids but keep their rows sparse,
since the coboundary operators that dominate the workload are very sparse
and dense elimination on a few thousand rows of Python objects would be
hopeless.  All ranks, kernels, and canonical bases are exact.

The canonical form used everywhere is the reduced row echelon form: a
Subspace is identified with the unique RREF basis of its span, so two
subspaces are equal exactly when their bases are identical.  Every
"choose a representative" step higher up is made deterministic by this.
Nor does the RREF depend on the input order, so a matrix's elimination
(`kernel`, `image`, `Solver`, ranks modulo p) reads vectors shortest
first, the cheap form of Markowitz's fill-reducing order: over Q(i)
intermediate fill-in, not the result, is what elimination pays for.
`_null_echelon` also reverses the columns, to read the kernel off.

`certified_kernel` also takes ranks modulo a fixed prime, on plain ints
in maps of their own.  Such a rank never decides a result by itself: it
only proves that on a block of columns the kernel holds nothing beyond a
known exact subspace.
Both its passes read the rows only off the known subspace's pivot
columns, which the other columns determine, and off the columns that a
row with one entry left forces to zero, peeled to the least fixpoint,
which no reading order changes.  The modular elimination is
`Echelon`'s, fully reduced with an occupancy index, but it pivots on a
row's last column, the order `_null_echelon` reads a block in, and it
stops once the rows left cannot reach the rank it must prove.  Its
verdict, and so every result, is the one any elimination order gives.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar

__all__ = [
    "LinalgError",
    "Matrix",
    "Echelon",
    "Subspace",
    "Solver",
    "kernel",
    "certified_kernel",
    "image",
    "quotient_reps",
]


class LinalgError(ValueError):
    pass


def vec_clean(vec) -> dict:
    """Drop explicit zeros; coerce values to Scalar."""
    out = {}
    for c, v in vec.items():
        if not isinstance(v, Scalar):
            v = Scalar(v)
        if v:
            out[c] = v
    return out


def vec_add_at(acc: dict, key, value) -> None:
    """In place: acc[key] += value; a zero value at an absent key is
    accepted and stores nothing."""
    w = acc.get(key)
    w = value if w is None else w + value
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def vec_add_scaled(acc: dict, vec: dict, factor: Scalar) -> None:
    """In place: acc += factor * vec; like vec_add_at, an explicit zero
    in vec at a key absent from acc stores nothing."""
    if not factor:
        return
    for c, v in vec.items():
        w = acc.get(c)
        w = factor * v if w is None else w + factor * v
        if w:
            acc[c] = w
        else:
            acc.pop(c, None)


def vec_combine(vectors, coeffs: dict) -> dict:
    """sum_j coeffs[j] * vectors[j], for a sparse map of coefficients
    over the positions of `vectors`."""
    out = {}
    for j, c in coeffs.items():
        vec_add_scaled(out, vectors[j], c)
    return out


def vec_dot(a: dict, b: dict):
    """Sparse dot product; returns a Scalar (the shared ZERO when disjoint)."""
    if len(b) < len(a):
        a, b = b, a
    total = None
    for c, v in a.items():
        w = b.get(c)
        if w is not None:
            total = v * w if total is None else total + v * w
    return total if total is not None else ZERO


class Matrix:
    """An exact rows x cols matrix with sparse row storage.

    Rows and columns are 0-indexed.  The matrix acts on column vectors:
    (m @ v)[i] = sum_j m[i][j] v[j], with v a sparse map over columns.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        if nrows < 0 or ncols < 0:
            raise LinalgError("negative matrix dimension")
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [{} for _ in range(nrows)]
        else:
            if len(rows) != nrows:
                raise LinalgError("row count mismatch")
            self.rows = [vec_clean(r) for r in rows]

    @classmethod
    def _trusted(cls, nrows: int, ncols: int, rows) -> "Matrix":
        """Trusted constructor: rows must already be sparse maps of
        nonzero Scalars over range(ncols), nrows of them."""
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    @classmethod
    def from_columns(cls, nrows: int, columns) -> "Matrix":
        """Build from a list of sparse columns (maps over row indices)."""
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                if not isinstance(v, Scalar):
                    v = Scalar(v)
                if v:
                    if not 0 <= i < nrows:
                        raise LinalgError(f"row index {i} out of range")
                    rows[i][j] = v
        return cls._trusted(nrows, len(columns), rows)

    def columns(self):
        cols = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                cols[j][i] = v
        return cols

    def transpose(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows, self.columns())

    def matvec(self, vec: dict) -> dict:
        """self @ vec for a sparse column vector."""
        out = {}
        for i, r in enumerate(self.rows):
            if not r:
                continue
            val = vec_dot(r, vec)
            if val:
                out[i] = val
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class Echelon:
    """Incremental reduced row echelon accumulator.

    Rows live in a space of `ncols` coordinates.  The invariant after
    every insert: stored rows have distinct pivot columns, pivot entries
    are 1, and every stored row is zero at every other stored pivot.
    `pivot_limit` restricts which columns may serve as pivots; rows that
    reduce to zero on the pivotable range are collected in `remainders`
    (used by Solver for consistency checks).

    `occupancy` indexes the stored rows by column: for every column
    below `pivot_limit` that is not a pivot, the set of pivots whose
    rows are nonzero there (columns no row touches are absent).  Every
    write or deletion of a stored-row entry keeps it exact, so a new
    pivot's back-substitution visits only the rows listed under it.
    """

    __slots__ = ("ncols", "pivot_limit", "pivot_rows", "remainders",
                 "occupancy")

    def __init__(self, ncols: int, pivot_limit: int | None = None):
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self.pivot_rows = {}  # pivot column -> row dict
        self.remainders = []
        self.occupancy = {}  # non-pivot column -> pivots of rows using it

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, vec: dict) -> dict:
        """Residue of vec after eliminating all current pivots (copy)."""
        row = {c: v for c, v in vec.items() if v}
        # Pivot rows are zero at every other pivot column, so eliminating
        # one never reintroduces another: one pass over the original keys
        # suffices (new keys appear only at non-pivot columns).
        for c in list(row):
            if c not in self.pivot_rows:
                continue
            factor = row.pop(c)
            prow = self.pivot_rows[c]
            # Inline, not vec_add_scaled: that call made δ3 elimination slower.
            for c2, v in prow.items():
                if c2 == c:
                    continue
                w = row.get(c2)
                w = -(factor * v) if w is None else w - factor * v
                if w:
                    row[c2] = w
                else:
                    del row[c2]
        return row

    def insert(self, vec: dict) -> bool:
        """Reduce vec and add it as a new pivot row if independent.

        Returns True when the rank grew.
        """
        row = self.reduce(vec)
        if not row:
            return False
        limit = self.pivot_limit
        p = None
        for c in row:
            if c < limit and (p is None or c < p):
                p = c
        if p is None:
            self.remainders.append(row)
            return False
        lead = row[p]
        if lead != 1:
            inv = ONE / lead
            row = {c: inv * v for c, v in row.items()}
        occupancy = self.occupancy
        targets = occupancy.pop(p, ())
        # Index the new row first: then every column the back-substitution
        # below can touch already has a set, which never empties.
        for c in row:
            if c != p and c < limit:
                users = occupancy.get(c)
                if users is None:
                    occupancy[c] = {p}
                else:
                    users.add(p)
        # Back-substitute to keep full reduction.  Each stored row is
        # updated on its own, so visiting only the rows that are nonzero
        # at p leaves every row, and its key order, as a full scan would.
        for q in targets:
            prow = self.pivot_rows[q]
            factor = prow.pop(p)
            # Inline, not vec_add_scaled: each write also updates occupancy.
            for c2, v in row.items():
                if c2 == p:
                    continue
                w = prow.get(c2)
                if w is None:
                    prow[c2] = -(factor * v)
                    if c2 < limit:
                        occupancy[c2].add(q)
                    continue
                w = w - factor * v
                if w:
                    prow[c2] = w
                else:
                    del prow[c2]
                    if c2 < limit:
                        occupancy[c2].discard(q)
        self.pivot_rows[p] = row
        return True

    def sorted_pivots(self):
        return sorted(self.pivot_rows)

    def sorted_rows(self):
        return [self.pivot_rows[p] for p in self.sorted_pivots()]


class Subspace:
    """A linear subspace in canonical (RREF basis) form."""

    __slots__ = ("ambient_dim", "_ech")

    def __init__(self, ambient_dim: int, vectors=()):
        self.ambient_dim = ambient_dim
        self._ech = Echelon(ambient_dim)
        for v in vectors:
            if not isinstance(v, dict):
                v = {i: x for i, x in enumerate(v)}
            self._ech.insert(v)

    @classmethod
    def _from_echelon(cls, ambient_dim: int, ech: Echelon) -> "Subspace":
        s = cls.__new__(cls)
        s.ambient_dim = ambient_dim
        s._ech = ech
        return s

    @property
    def dim(self) -> int:
        return self._ech.rank

    @property
    def pivots(self):
        return self._ech.sorted_pivots()

    def basis(self):
        """RREF basis vectors, ordered by pivot column."""
        return [dict(r) for r in self._ech.sorted_rows()]

    def contains(self, vec: dict) -> bool:
        return not self._ech.reduce(vec)

    def reduce(self, vec: dict) -> dict:
        """Canonical residue of vec modulo this subspace."""
        return self._ech.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient dimension mismatch")
        return all(self.contains(r) for r in other._ech.pivot_rows.values())

    def insert(self, vec: dict) -> bool:
        """Grow the span; used by incremental constructions."""
        return self._ech.insert(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self._ech.sorted_pivots() == other._ech.sorted_pivots()
            and self.basis() == other.basis()
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel(m: Matrix) -> Subspace:
    """{v : m v = 0} as a canonical Subspace of the column space, by one
    exact elimination (`_null_echelon`); `certified_kernel` gives the
    same Subspace with less exact work when a part of it is known."""
    return Subspace._from_echelon(
        m.ncols, _null_echelon(m.rows, range(m.ncols), m.ncols, ()))


def _null_echelon(rows, columns, ncols: int, skip) -> Echelon:
    """RREF echelon of the null space of `rows` read without their
    entries in `skip`, inside the coordinates of `columns` (increasing,
    none in `skip`), which hold every entry of every row off `skip`.
    One elimination, shortest rows first with column c read as
    ncols - 1 - c, leaves in pivot row p only free columns f < p: so
    e_f - sum_p prow[f] e_p is 1 at f and zero at the other free
    columns, and these vectors are the kernel's RREF as they stand.
    `kernel` skips nothing; `certified_kernel` skips the pivots of the
    kernel part it knows and the columns it settles."""
    last = ncols - 1
    ech = Echelon(ncols)
    for r in sorted(rows, key=len):
        ech.insert({last - c: v for c, v in r.items() if c not in skip})
    free = {f: {f: ONE} for f in columns if last - f not in ech.pivot_rows}
    out = Echelon(ncols)
    for q, prow in ech.pivot_rows.items():
        for c, v in prow.items():
            if c != q:
                free[last - c][last - q] = -v
        if len(prow) > 1:
            out.occupancy[last - q] = {last - c for c in prow if c != q}
    out.pivot_rows = free
    return out


# Reduction modulo PRIME sends i to PRIME_I.  PRIME is 1 mod 4, so -1 has
# the square root PRIME_I and the map is a ring map on every Gaussian
# rational whose denominators PRIME does not divide.
PRIME = 1073741789
PRIME_I = 933053945


def _mod_prime(s: Scalar):
    """Image of s modulo PRIME, or None if PRIME divides its denominator."""
    x = s.a + s.b * PRIME_I
    d = s.d
    if d != 1:
        if not d % PRIME:
            return None
        x *= pow(d, -1, PRIME)
    return x % PRIME


def _rank_mod_prime_reaches(rows, target: int, skip) -> bool:
    """Whether the rank modulo PRIME of the rows read without their
    entries in `skip`, shortest first, reaches target before an entry
    without an image modulo PRIME is read; no entry in `skip` is read.

    The elimination is `Echelon.insert`'s on plain ints.  Pivot rows
    stay monic and zero at every other pivot, so a new row is reduced in
    one pass over its own keys, and `occupancy` limits back-substitution
    to the rows that are nonzero at a new pivot.  A row's pivot is its
    last column, the order `_null_echelon` reads a block in.  Before
    each row it gives up once the rows left cannot lift the rank to
    target.  No verdict depends on these choices: the rank of the rows
    read so far does not depend on the elimination order, the stop
    comes only when target is out of reach, and up to then the same
    rows are read in the same order.
    """
    if target <= 0:
        return True
    pivots = {}  # pivot column -> its monic row without the pivot entry
    occupancy = {}  # non-pivot column -> pivots whose rows use it
    # Shortest first, the module's order; matrix order took 2x on gl 3.
    ordered = sorted(rows, key=len)
    left = len(ordered)
    for row in ordered:
        if len(pivots) + left < target:
            return False
        left -= 1
        r = {}
        for c, v in row.items():
            if c in skip:
                continue
            x = _mod_prime(v)
            if x is None:
                return False
            if x:
                r[c] = x
        # No pivot row is nonzero at another pivot, so eliminating one
        # leaves r's entries at the other pivots as they were.
        for c in [c for c in r if c in pivots]:
            factor = r.pop(c)
            for c2, v in pivots[c].items():
                w = (r.get(c2, 0) - factor * v) % PRIME
                if w:
                    r[c2] = w
                else:
                    del r[c2]
        if not r:
            continue
        if len(pivots) + 1 == target:
            return True
        p = max(r)
        inv = pow(r.pop(p), -1, PRIME)
        tail = {c: v * inv % PRIME for c, v in r.items()}
        for c in tail:
            users = occupancy.get(c)
            if users is None:
                occupancy[c] = {p}
            else:
                users.add(p)
        for q in occupancy.pop(p, ()):
            prow = pivots[q]
            factor = prow.pop(p)
            for c2, v in tail.items():
                w = prow.get(c2)
                if w is None:
                    prow[c2] = -factor * v % PRIME
                    occupancy[c2].add(q)
                    continue
                w = (w - factor * v) % PRIME
                if w:
                    prow[c2] = w
                else:
                    del prow[c2]
                    occupancy[c2].discard(q)
        pivots[p] = tail
    return False


def _partition(m: Matrix, known: Subspace):
    """Settle the columns m's rows force to zero, split the others into
    blocks, and certify each block modulo PRIME.

    Let P be known's pivots.  A column c is settled, put in S, once some
    row of m has c as its only entry off P | S; passes repeat until one
    settles nothing.  S only grows, so it ends as the least fixpoint,
    whatever the order of rows and passes.  Only the rows left, each
    with two or more entries off skip = P | S, are read from then on,
    without their entries in skip.  The blocks are the connected
    components of their supports over the columns off skip, so N (see
    `certified_kernel`) splits by block.  A block is certified when the
    rank modulo PRIME of its rows reaches its number of columns; one
    with no rows is not.
    `_rank_mod_prime_reaches` eliminates fully reduced on last-column
    pivots and gives up on a block once its rows left cannot reach that
    number; the rows it reads up to then, and so which blocks are
    certified, are those of any elimination order.  Returns skip, then
    the rows and the increasing columns of the blocks not certified.
    """
    n = m.ncols
    skip = set(known._ech.pivot_rows)
    # Most rows of a weight-0 block are empty; filter drops them in C.
    rows, settled = filter(None, m.rows), True
    while settled:
        settled, left = False, []
        for row in rows:
            live = None
            for c in row:
                if c not in skip:
                    if live is not None:
                        left.append(row)
                        break
                    live = c
            else:
                if live is not None:
                    skip.add(live)
                    settled = True
        rows = left
    parent = list(range(n))
    for row in rows:
        a = None
        for c in row:
            if c in skip:
                continue
            # Union-find with path halving: parent[x] skips to its grandparent.
            while parent[c] != c:
                parent[c] = c = parent[parent[c]]
            if a is None:
                a = c
            elif c != a:
                parent[c] = a
    root = []
    for c in range(n):
        while parent[c] != c:
            c = parent[c]
        root.append(c)
    block_cols, block_rows = {}, {}
    for c, b in enumerate(root):
        if c not in skip:
            block_cols.setdefault(b, []).append(c)
    for r in rows:
        for c in r:
            if c not in skip:
                block_rows.setdefault(root[c], []).append(r)
                break

    rows, columns = [], []
    for b, cols in block_cols.items():
        brows = block_rows.get(b, [])
        if not brows or not _rank_mod_prime_reaches(brows, len(cols), skip):
            rows.extend(brows)
            columns.extend(cols)
    columns.sort()
    return skip, rows, columns


def certified_kernel(m: Matrix, known: Subspace) -> Subspace:
    """{v : m v = 0}, the same canonical Subspace as `kernel(m)`, given a
    subspace `known` of it.

    Precondition: m v = 0 for every v in `known`; without it the result
    can be wrong.  `graded_cohomology` passes the coboundaries of a
    complex, checked before it is built.

    Both passes work modulo known.  Let P be the pivot columns of
    known's RREF and Q the other columns.  Each RREF row k of known is 1
    at its own pivot p and 0 at the other pivots, and every row r of m
    has r.k = 0, so r_p = -sum_{f in Q} r_f k[f]: a row is fixed by its
    entries on Q.  Hence rank m = rank m|_Q, and ker m = known + N with
    N = {w : w is zero on P and m|_Q w = 0}, a direct sum (subtracting
    sum_p w_p k_p takes any w of ker m into N, and a nonzero vector of
    known is nonzero at some pivot).

    `_partition` settles first, to a fixpoint: with every w in N zero on
    the columns S settled so far, a row of m whose one entry on Q - S is
    at c, a nonzero exact value whatever its image modulo PRIME, forces
    w_c = 0 for every w in N.  So with S all settled columns and R = Q - S,
    N = {w : w is zero on P | S and m|_R w = 0}.  The certificate, on
    each block b of R: reduction modulo PRIME is a ring map, so no rank
    modulo PRIME of b's rows read on R exceeds their exact rank, and
    once it reaches |b|, N is zero on b.  Every other block is
    eliminated exactly, its rows read on R alone and its free columns
    drawn from b, by one `_null_echelon` that skips P | S: a block with
    cohomology, one that no row reaches, and one where an entry on R
    whose denominator PRIME divides was read before the rank got there.
    N is zero on the certified blocks and splits by block, so that
    gives N's RREF.  Then every RREF row of known goes in.  `Echelon`
    keeps full reduction, and a span has one RREF, so the basis, and
    every representative taken from it, is the one `kernel` gives.
    """
    if known.ambient_dim != m.ncols:
        raise LinalgError("ambient dimension mismatch")
    skip, rows, columns = _partition(m, known)
    out = _null_echelon(rows, columns, m.ncols, skip)
    for r in known._ech.sorted_rows():
        out.insert(r)
    return Subspace._from_echelon(m.ncols, out)


def image(m: Matrix) -> Subspace:
    """Column space as a canonical Subspace of the row-index space."""
    ech = Echelon(m.nrows)
    for col in sorted(m.columns(), key=len):
        ech.insert(col)
    return Subspace._from_echelon(m.nrows, ech)


def quotient_reps(a: Subspace, b: Subspace):
    """Vectors of a whose classes form a basis of a/b, for b inside a:
    each caller's b lies in a by construction, and nothing re-checks it.

    Deterministic choice: the RREF basis rows of a whose pivot columns
    are not pivot columns of b (non-pivot completion).
    """
    bpiv = set(b.pivots)
    return [r for p, r in zip(a.pivots, a.basis()) if p not in bpiv]


class Solver:
    """Repeated-solve helper: RREF of m with row operations tracked.

    Serves the obstruction witnesses (solves against the degree-2
    coboundary), the coupled-block corrector of the degree-2
    decomposition, and basis changes.  The elimination is done once, on
    the rows of [m | identity] shortest first.  The identity parts of
    its pivot rows and of its remainders (the rows that reduce to zero
    on m's columns) are stored by column, one sparse column per row of
    m, so a solve visits only b's coordinates: b is consistent
    exactly when b's combination of remainder columns vanishes, and x
    is b's combination of pivot columns.  It returns the particular
    solution with zeros in all free coordinates, the one per-call RREF
    of [m | b] would give, with its keys in increasing pivot order; it
    is unique, so the row order changes no answer.
    """

    __slots__ = ("nrows", "ncols", "rank", "_pivot_columns",
                 "_check_columns")

    def __init__(self, m: Matrix):
        self.nrows = m.nrows
        self.ncols = m.ncols
        ech = Echelon(m.ncols + m.nrows, pivot_limit=m.ncols)
        for i in sorted(range(m.nrows), key=lambda i: len(m.rows[i])):
            ech.insert({**m.rows[i], m.ncols + i: ONE})
        self.rank = ech.rank

        def by_column(rows):
            """The identity parts of rows as one sparse column per row
            of m, each a map over the positions of rows."""
            out = [{} for _ in range(m.nrows)]
            for j, row in rows:
                for c, v in row.items():
                    if c >= m.ncols:
                        out[c - m.ncols][j] = v
            return out

        self._pivot_columns = by_column(
            (p, ech.pivot_rows[p]) for p in ech.sorted_pivots())
        self._check_columns = by_column(enumerate(ech.remainders))

    def solve(self, b: dict):
        """A particular solution of m x = b, or None if inconsistent; b
        is a sparse map over the rows of m."""
        if vec_combine(self._check_columns, b):
            return None
        x = vec_combine(self._pivot_columns, b)
        return {p: x[p] for p in sorted(x)}
