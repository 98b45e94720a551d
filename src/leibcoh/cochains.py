"""Cochain complexes of a Leibniz or Lie algebra with exact coboundaries.

A degree-n cochain with adjoint coefficients is a multilinear map
g^n -> g, stored sparsely over the tensor basis e_k (x) dual(t_1..t_n)
at the flat index k*d^n + sum t_m d^(n-m).  Trivial coefficients drop
the k part.  The coboundary sends the basis cochain at (k, t) to a
short combination of basis cochains one degree up, so both the matrix
of the coboundary and its matrix-free application come from the same
push-forward column.

That column is read off a stencil, built once per degree from the
structure constants with every sign applied: each term inserts one
index j at a position p of t (and may replace one slot), so its flat
index is an integer offset from t's own, worked out from the flat
indices of t's prefix and suffix with no index tuple built.  Its
bracket terms depend on the argument tuple t only and land on the
column's own head; its action terms depend on the head too.  So a
matrix is built once per argument tuple: t's bracket terms are summed
once and shared by every head that carries t among its columns, each
head adds only its action terms, and every entry is placed by position,
its head's offset plus its tail's position in that head's list of
tails.  The shared terms are kept from a weight's first head to its
last, and not at all for a weight that one head carries.

The antisymmetric subcomplex (for Lie algebras) has the basis of
increasing index tuples, and the symmetric degree-2 subspace that of
weakly increasing pairs.  A symmetric vector w embeds in tensor
coordinates as `vec_combine(sym2_inclusion(scheme), w)`, an
antisymmetric one by `embed_zero_wedge`, each coordinate as +-w_j on
its tuple's arrangements.  The antisymmetric coboundary never goes
through the tensor complex: it is the Chevalley-Eilenberg formula in
increasing-tuple coordinates, where the basis cochain (k, I) pushes
forward to action terms, each inserting one index j not in I, and
bracket terms, each replacing one index m of I by a pair a < b with
[e_a, e_b] reaching e_m, signed by the sort that restores increasing
order (see `lie_delta_matrix`).

A basis element h is toral when [e_j, h] = lambda_j e_j for every j:
right multiplication by h, a derivation of a right Leibniz algebra, is
diagonal in the basis.  The basis cochain e_k (x) dual(t) then has the
weight lambda_k - sum lambda_(t_m) (for trivial coefficients,
-sum lambda_(t_m)), written in int coordinates; the coboundary keeps it.
An algebra with no such h is graded by the empty torus: every weight
is the empty tuple, so weight 0 is the whole complex.  The scheme
counts the cochains of each weight and lists those of any one weight;
`graded_cohomology` eliminates either complex only at weight 0,
because every nonzero-weight part of either is acyclic from degree 1
on, and `ClassCoordinates` reads classes off that weight-0
elimination.

The scheme owns everything cached for its complex, and nothing it
caches refers back to it, so a complex is freed as soon as its last
user lets go of the scheme.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, combinations, permutations
from math import comb, lcm
from operator import add, sub

from .algebras import is_lie, is_right_leibniz
from .linalg import (Matrix, Subspace, certified_kernel, image,
                     quotient_reps, vec_add_at, vec_add_scaled)
from .scalars import ONE, ZERO

__all__ = [
    "ClassCoordinates",
    "CochainScheme",
    "CohomologySpace",
    "cocycle_basis",
    "embed_zero_wedge",
    "graded_cohomology",
    "lie_delta_matrix",
    "wedge_basis",
    "sym2_basis",
    "sym2_inclusion",
]


class CochainScheme:
    """An algebra together with a coefficient choice, adjoint or trivial.

    Holds the flat-index conventions and the torus weights, and caches
    the coboundary stencils, the weight counts, both complexes'
    cohomology per degree (`graded_cohomology`), and the weight-0
    increasing tuples and coboundary matrices of the antisymmetric
    complex.

    `weights[j]` is the weight tuple of e_j (see the module docstring),
    so the basis cochain at (k, t) has weight weights[k] - sum of
    weights[t_m], and weight 0 exactly when its arguments' weights sum
    to its head's (to 0 for trivial coefficients).  The weights come
    from the toral basis elements with a nonzero weight, and are all
    the empty tuple when there is none: then weight 0 is every cochain
    and nothing is acyclic.  Everything here is counting over the
    distinct weights: `_sums[r]` maps each weight to the number of
    r-tuples of arguments whose weights sum to it, and the weight-0
    indices are enumerated by prefix weight, each suffix list built
    once per (length, weight) it must sum to, with no scan over all
    tuples.

    Why the nonzero weights need no elimination: for a toral h, the
    last-slot insertion (s f)(x_1 .. x_(n-1)) = (-1)^n f(x_1 .. x_(n-1), h)
    satisfies delta s + s delta = theta_h on cochains of degree n >= 1,
    where theta_h multiplies each basis cochain by its h-weight.  (In
    (s delta f)(x_1 .. x_n) every term but those that bracket with h on
    the right cancels a term of (delta s f)(x_1 .. x_n), so only [., h]
    enters and [h, .] need not be diagonal.)  So a cocycle z of
    weight w with w_h nonzero is delta(s z) / w_h: in every nonzero
    weight, from degree 1 on, the cocycles are the coboundaries.  s keeps
    a cochain antisymmetric, so this holds on the antisymmetric complex
    too, where it is the Cartan formula L_h = d i_h + i_h d.
    """

    __slots__ = ("spec", "coefficients", "dim", "adjoint", "weights",
                 "_zero", "_by_target", "_stencils", "_sums", "_tails",
                 "_cohomology", "_lie_mats", "_wedges", "_wedge_counts")

    def __init__(self, spec, coefficients="adjoint"):
        if coefficients not in ("adjoint", "trivial"):
            raise ValueError(f"unknown coefficient choice {coefficients!r}")
        self.spec = spec
        self.coefficients = coefficients
        self.dim = spec.dim
        self.adjoint = coefficients == "adjoint"
        by_target = [[] for _ in range(spec.dim)]
        for a, b, value in spec.nonzero_brackets():
            for m, c in value.items():
                by_target[m].append((a, b, c))
        self._by_target = by_target
        self.weights = _toral_weights(spec)
        self._zero = (0,) * len(self.weights[0])
        self._stencils = {}
        self._sums = [Counter([self._zero]), Counter(self.weights)]
        self._tails = {}
        self._cohomology = {}  # (degree, lie) -> CohomologySpace
        self._lie_mats = {}
        self._wedges = {}  # degree -> {(k, I): position}
        self._wedge_counts = {}  # degree -> Counter of weight sums

    def cochain_dim(self, n: int) -> int:
        base = self.dim ** n
        return self.dim * base if self.adjoint else base

    def flat_index(self, k, t) -> int:
        idx = 0
        for v in t:
            idx = idx * self.dim + v
        if self.adjoint:
            return k * self.dim ** len(t) + idx
        return idx

    def unflatten(self, n: int, idx: int):
        d = self.dim
        t = [0] * n
        for m in range(n - 1, -1, -1):
            idx, t[m] = divmod(idx, d)
        k = idx if self.adjoint else None
        return k, tuple(t)

    def _stencil(self, n: int):
        """The degree-n coboundary's terms, signed and offset once.

        The flat index of the argument tuple t with j inserted at
        position p is base[p] + j*d^(n-p), where base[p] is that of t
        with 0 inserted there (see `_bases`).  So every term is a triple
        (p, offset, signed constant), and only base[p] depends on the
        column.  The action terms of head k are [e_j, e_k] at p = 0 and
        (-1)^(p+1) [e_k, e_j] at p = 1 .. n, each landing on an output
        head m:
        - own[k] holds those with m = k, offset j*d^(n-p), to be read
          on the bases shifted by the head as the bracket terms are;
        - far[k] holds the others, offset j*d^(n-p) + m*d^(n+1).
        For trivial coefficients both hold one empty list, for the one
        head.  brackets[i-1][s] holds, for slot i holding s, the terms
        (-1)^p [e_a, e_b]_s with b inserted at p = i .. n: a replacing s
        in slot i adds (a - s)*d^(n+1-i) to the index.  All keep the
        order of the coboundary formula's terms, so a column's keys come
        out in one fixed order.  Cached per degree.
        """
        stencil = self._stencils.get(n)
        if stencil is not None:
            return stencil
        d = self.dim
        table = self.spec.table
        top = d ** (n + 1)
        own, far = [[]], [[]]
        if self.adjoint:
            own, far = [[] for _ in range(d)], [[] for _ in range(d)]
        for k in range(d) if self.adjoint else ():
            terms = [(0, j * d ** n, m, c)
                     for j in range(d) for m, c in table[j][k].items()]
            for p in range(1, n + 1):
                step = d ** (n - p)
                terms += [(p, j * step, m, c if p % 2 else -c)
                          for j in range(d) for m, c in table[k][j].items()]
            for p, off, m, c in terms:
                if m == k:
                    own[k].append((p, off, c))
                else:
                    far[k].append((p, off + m * top, c))
        brackets = []
        for i in range(1, n + 1):
            shift = d ** (n + 1 - i)
            brackets.append([
                [(p, (a - s) * shift + b * d ** (n - p),
                  -c if p % 2 else c)
                 for a, b, c in hits for p in range(i, n + 1)]
                for s, hits in enumerate(self._by_target)])
        stencil = self._stencils[n] = (own, far, brackets)
        return stencil

    def _bases(self, n: int, tail: int):
        """The stencil's bases for the argument tuple t at flat index
        `tail`, and t itself: base[p] = hi*d^(n+1-p) + lo, with t's
        prefix t[:p] at flat index hi and suffix t[p:] at lo, is the
        flat index of t with 0 inserted at p (see `_stencil`)."""
        d = self.dim
        base = [0] * (n + 1)
        slots = [0] * n
        q = 1
        for p in range(n, -1, -1):
            hi, lo = divmod(tail, q)
            base[p] = hi * q * d + lo
            if p:
                slots[p - 1] = hi % d
            q *= d
        return base, slots

    def _delta_column(self, n: int, idx: int) -> dict:
        """Push-forward of the degree-n basis cochain at flat index idx
        under the coboundary: its column of the coboundary matrix.

        The action terms of its head on other heads read the tail's bases
        as they are; the rest read them shifted by the head k*d^(n+1).
        Colliding terms are summed exactly and a sum that cancels is
        dropped, so every value is nonzero.
        """
        own, far, brackets = self._stencil(n)
        k, tail = divmod(idx, self.dim ** n) if self.adjoint else (None, idx)
        base, slots = self._bases(n, tail)
        col = {}
        if k is not None:
            _gather(col, base, far[k])
            head = k * self.dim ** (n + 1)
            base = [head + b for b in base]
            _gather(col, base, own[k])
        for terms, s in zip(brackets, slots):
            _gather(col, base, terms[s])
        return col

    def delta_apply(self, n: int, data: dict) -> dict:
        """Coboundary of a degree-n cochain, matrix-free."""
        out = {}
        for idx, coeff in data.items():
            vec_add_scaled(out, self._delta_column(n, idx), coeff)
        return out

    def _block(self, n: int, keys, tails) -> Matrix:
        """The coboundary from the n-cochains (h, t) with t in
        `tails(n, keys[h])` to the (n+1)-cochains (m, u) with u in
        `tails(n + 1, keys[m])`, for every head h (the one head None for
        trivial coefficients), in head-major order of those increasing
        lists; a term outside them raises KeyError.

        Built once per argument tuple (see the module docstring): heads
        with equal keys share both lists and the summed bracket terms of
        their tails, kept from the key's first head to its last.  A
        head's action terms on its own rows join those terms, the others
        are placed on their heads' rows.  The kept terms carry their
        rows' positions, which the heads with no action term on their
        own rows read; every other entry is placed through a map from
        tail to row, built only for the heads that need one.  Columns
        are placed in order, so every row's keys ascend.
        """
        own, far, brackets = self._stencil(n)
        top = self.dim ** (n + 1)
        heads = range(len(keys))
        size = Counter(keys)
        col_tails = {key: tails(n, key) for key in size}
        row_tails = {key: tails(n + 1, key) for key in size}
        offsets = list(accumulate((len(row_tails[key]) for key in keys),
                                  initial=0))
        rows = [{} for _ in range(offsets[-1])]
        # A shared key's kept terms carry their positions, which its
        # heads with no action term on their own rows read; every other
        # entry is placed through a map from tail to row.
        reach = set()
        for h, key in enumerate(keys):
            if own[h] or size[key] == 1:
                reach.add(h)
            reach.update(off // top for _, off, _ in far[h])
        by_tail = [dict(zip(row_tails[keys[m]],
                            rows[offsets[m]:offsets[m + 1]]))
                   if m in reach else None for m in heads]
        last = {key: h for h, key in enumerate(keys)}
        kept = {}

        def summed(t, found=None):
            # Tail t's bases, its bracket terms summed by (n+1)-tail, and
            # their positions in `found` when it is given.
            base, slots = self._bases(n, t)
            col = {}
            for terms, s in zip(brackets, slots):
                _gather(col, base, terms[s])
            if found is None:
                return base, col, None
            return base, col, tuple(_position(found, u) for u in col)

        j = 0
        for h, key in enumerate(keys):
            shared = size[key] > 1
            if not shared:
                columns = map(summed, col_tails[key])
            else:
                columns = kept.get(key)
                if columns is None:
                    columns = kept[key] = [summed(t, row_tails[key])
                                           for t in col_tails[key]]
            mine, offset, ours = by_tail[h], offsets[h], own[h]
            for base, col, positions in columns:
                if positions is None or ours:
                    if ours:
                        if shared:
                            col = col.copy()
                        _gather(col, base, ours)
                    for u, v in col.items():
                        mine[u][j] = v
                else:
                    for r, v in zip(positions, col.values()):
                        rows[offset + r][j] = v
                if far[h]:
                    col = {}
                    _gather(col, base, far[h])
                    for idx, v in col.items():
                        m, u = divmod(idx, top)
                        by_tail[m][u][j] = v
                j += 1
            if last[key] == h:
                kept.pop(key, None)
        return Matrix._trusted(len(rows), j, rows)

    def delta_matrix(self, n: int) -> Matrix:
        """Matrix of the coboundary CL^n -> CL^(n+1), built on each call
        by `_block` over every flat index."""
        return self._block(n, [None] * len(_heads(self)),
                           lambda r, key: range(self.dim ** r))

    def weight_block(self, n: int, weight=None) -> Matrix:
        """The coboundary from the n-cochains to the (n+1)-cochains of
        the given weight, weight 0 by default, in the increasing
        coordinates of `zero_indices(n, weight)` and `zero_indices(n + 1,
        weight)`.

        The coboundary keeps the weight, so each column lands in its own
        weight; an entry that does not means the weights are wrong, and
        it raises instead of being dropped.
        """
        try:
            return self._block(n, self._targets(weight), self._tail_indices)
        except KeyError:
            which = "weight 0" if weight is None else "its weight"
            raise ValueError(f"the coboundary leaves {which}: the torus "
                             "weights are wrong") from None

    def is_cocycle(self, n: int, data: dict) -> bool:
        return not self.delta_apply(n, data)

    def _sum_counts(self, r: int) -> dict:
        sums = self._sums
        while len(sums) <= r:
            grown = Counter()
            for w, c in sums[-1].items():
                for v, m in sums[1].items():
                    grown[tuple(map(add, w, v))] += c * m
            sums.append(grown)
        return sums[r]

    def _tail_indices(self, r: int, target) -> list:
        """Flat indices, increasing, of the r-tuples of arguments whose
        weights sum to target; cached."""
        key = (r, target)
        out = self._tails.get(key)
        if out is None:
            if r == 0:
                out = [0] if target == self._zero else []
            else:
                step = self.dim ** (r - 1)
                reachable = self._sum_counts(r - 1)
                out = []
                for j, w in enumerate(self.weights):
                    rest = tuple(map(sub, target, w))
                    if rest in reachable:
                        base = j * step
                        out += [base + s for s in self._tail_indices(r - 1,
                                                                     rest)]
            self._tails[key] = out
        return out

    def _targets(self, weight=None) -> list:
        """For each head (the one head None for trivial coefficients),
        what its arguments' weights sum to in the given weight, weight 0
        by default: the head's weight minus it."""
        neg = self._zero if weight is None else tuple(map(sub, self._zero,
                                                          weight))
        if not self.adjoint:
            return [neg]
        return [tuple(map(add, w, neg)) for w in self.weights]

    def zero_indices(self, n: int, weight=None) -> list:
        """Flat indices, increasing, of the basis cochains of degree n
        and the given weight, weight 0 by default: those whose arguments'
        weights sum to their head's weight minus it."""
        top = self.dim ** n
        return [h * top + s for h, key in enumerate(self._targets(weight))
                for s in self._tail_indices(n, key)]

    def weight(self, n: int, idx: int):
        """The weight of the degree-n basis cochain at flat index idx."""
        k, t = self.unflatten(n, idx)
        out = self._zero if k is None else self.weights[k]
        for a in t:
            out = tuple(map(sub, out, self.weights[a]))
        return out

    def _increasing(self, n: int):
        """Each increasing n-tuple of arguments, in order, with the sum
        of its weights."""
        for t in combinations(range(self.dim), n):
            key = self._zero
            for a in t:
                key = tuple(map(add, key, self.weights[a]))
            yield key, t

    def zero_wedges(self, n: int) -> dict:
        """The antisymmetric basis cochains (k, I) of degree n and weight
        0, each mapped to its position: head by head, and within a head
        in `wedge_basis` order, read off the increasing n-tuples bucketed
        by weight sum.  Cached per degree; callers only read it."""
        wedges = self._wedges.get(n)
        if wedges is None:
            buckets = {}
            for key, t in self._increasing(n):
                buckets.setdefault(key, []).append(t)
            basis = ((k, t) for k, key in zip(_heads(self), self._targets())
                     for t in buckets.get(key, ()))
            wedges = self._wedges[n] = {kt: i for i, kt in enumerate(basis)}
        return wedges

    def zero_dim(self, n: int, lie: bool = False) -> int:
        """dim C^n_0 of the full complex, or of the antisymmetric one
        when `lie` is true, counted from how many tuples have each
        weight sum, without listing a cochain."""
        if not lie:
            sums = self._sum_counts(n)
        else:
            sums = self._wedge_counts.get(n)
            if sums is None:
                sums = self._wedge_counts[n] = Counter(
                    key for key, _ in self._increasing(n))
        if not self.adjoint:
            return sums[self._zero]
        return sum(sums[w] for w in self.weights)

    def acyclic_dim(self, n: int, lie: bool = False) -> int:
        """dim B^n_(!=0) = dim Z^n_(!=0) for n >= 1: what the nonzero
        weights add to both the cocycles and the coboundaries, of the
        full complex, or of the antisymmetric one when `lie` is true.

        The nonzero-weight complex is exact from degree 1 on, so this is
        dim C^(n-1)_(!=0) minus the same count one degree down, ending at
        the rank of delta on the nonzero-weight 0-cochains, which both
        complexes share (they count d^k tuples against C(d, k) increasing
        ones per head).  That rank is taken on its at most dim columns:
        for a Lie table delta is injective there, but not for every
        Leibniz table (with [e_j, h] = e_j and [h, e_j] = 0, delta e_j
        can vanish).
        """
        dim = 0
        for k in range(1, n):
            whole = comb(self.dim, k) if lie else self.dim ** k
            dim = len(_heads(self)) * whole - self.zero_dim(k, lie) - dim
        columns = []
        if self.adjoint:
            columns = [self._delta_column(0, k)
                       for k, w in enumerate(self.weights) if w != self._zero]
        rank = Subspace(self.cochain_dim(1), columns).dim
        return dim + (-1) ** (n - 1) * rank

    def __repr__(self):
        return f"CochainScheme({self.spec!r}, {self.coefficients})"


def _gather(col: dict, bases, terms) -> None:
    """Add each stencil term (p, offset, value) to col at bases[p] +
    offset: vec_add_at, inlined, since it runs once per coboundary
    term.  A sum that cancels is dropped."""
    get = col.get
    for p, off, v in terms:
        key = bases[p] + off
        w = get(key)
        if w is None:
            col[key] = v
        else:
            w = w + v
            if w:
                col[key] = w
            else:
                del col[key]


def _position(tails, u) -> int:
    """The position of u in the increasing list `tails`; KeyError when
    it is not there."""
    r = bisect_left(tails, u)
    if r == len(tails) or tails[r] != u:
        raise KeyError(u)
    return r


def wedge_basis(dim: int, n: int):
    return list(combinations(range(dim), n))


def _heads(scheme):
    return range(scheme.dim) if scheme.adjoint else (None,)


def sym2_basis(dim: int):
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def sym2_inclusion(scheme: CochainScheme) -> list:
    """The symmetric basis 2-cochains, in tensor coordinates.

    The one for i < j is the symmetrized pair with both coefficients 1;
    the diagonal one is the plain square term.
    """
    incl = []
    for k in _heads(scheme):
        for i, j in sym2_basis(scheme.dim):
            vec = {scheme.flat_index(k, (i, j)): ONE}
            if i != j:
                vec[scheme.flat_index(k, (j, i))] = ONE
            incl.append(vec)
    return incl


def lie_delta_matrix(scheme: CochainScheme, n: int) -> Matrix:
    """The weight-0 block of the coboundary on antisymmetric cochains,
    from the basis cochains of `scheme.zero_wedges(n)` to those of
    `zero_wedges(n + 1)`, head by head as in the whole matrix.

    A complex exactly when the algebra is Lie (antisymmetric and right
    Leibniz); any other table is refused before anything is built.  A
    column is the Chevalley-Eilenberg push-forward, read at each
    increasing (n+1)-tuple J:
    - action terms, adjoint only: for each j not in I, J = I + {j}
      with j at position p gives (-1)^p [e_j, e_k]_m at row (m, J);
    - bracket terms: for slot q of I holding m and each a < b with
      c = [e_a, e_b]_m nonzero, neither of them in I - {m},
      J = (I - {m}) + {a, b} gives (-1)^(pos_J(a) + pos_J(b) + q) c at
      row (k, J).
    These are the tensor coboundary's terms at e_J, read on the signed
    sum of I's arrangements: (-1)^p moves e_j to the front of J, where
    the antisymmetric table turns (-1)^(p+1) [f(..), e_j] into
    (-1)^p [e_j, f(..)], and (-1)^q moves m to the front of I.  A
    bracket term brackets a slot of J with a later one, so on increasing
    J it reads [e_a, e_b] with a < b; the pairs with a > b only repeat
    them, since [e_b, e_a] = -[e_a, e_b], and are never read.  Terms on
    the same row are summed exactly, and a tuple's terms are found once
    for every head that carries it.  The coboundary keeps the weight, so
    a term with no weight-0 row means the weights are wrong: it raises
    as in `weight_block`.  Cached on the scheme.
    """
    mat = scheme._lie_mats.get(n)
    if mat is not None:
        return mat
    if not is_lie(scheme.spec):
        raise ValueError("not a complex: not a Lie algebra")
    table = scheme.spec.table
    pairs = [[(a, b, c) for a, b, c in hits if a < b]
             for hits in scheme._by_target]
    rows = scheme.zero_wedges(n + 1)
    shared = {}
    cols = []
    for k, t in scheme.zero_wedges(n):
        if t not in shared:
            brackets = {}
            for q, m in enumerate(t):
                rest = t[:q] + t[q + 1:]
                for a, b, c in pairs[m]:
                    if a in rest or b in rest:
                        continue
                    # a sits at pa in J = u, and b after it at pb + 1.
                    pa = bisect_left(rest, a)
                    pb = bisect_left(rest, b)
                    u = rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:]
                    vec_add_at(brackets, u,
                               -c if (pa + pb + 1 + q) & 1 else c)
            inserts = []
            for j in range(scheme.dim):
                p = bisect_left(t, j)
                if p == n or t[p] != j:
                    inserts.append((t[:p] + (j,) + t[p:], p & 1, j))
            shared[t] = (brackets, inserts)
        brackets, inserts = shared[t]
        try:
            col = {rows[k, u]: v for u, v in brackets.items()}
            if k is not None:
                for u, odd, j in inserts:
                    for m, c in table[j][k].items():
                        vec_add_at(col, rows[m, u], -c if odd else c)
        except KeyError:
            raise ValueError("the coboundary leaves weight 0: the torus "
                             "weights are wrong") from None
        cols.append(col)
    mat = scheme._lie_mats[n] = Matrix.from_columns(len(rows), cols)
    return mat


def embed_zero_wedge(scheme: CochainScheme, n: int, vectors) -> list:
    """The weight-0 antisymmetric n-cochains with coordinates `vectors`
    over `scheme.zero_wedges(n)`, head by head, in tensor coordinates:
    the basis cochain (k, I) is I's arrangements signed by their
    inversions, and no two share one, so w_j is written as +-w_j on them."""
    basis = list(scheme.zero_wedges(n))
    perms = [(perm, sum(a > b for a, b in combinations(perm, 2)) & 1)
             for perm in permutations(range(n))]
    out = []
    for w in vectors:
        rep = {}
        for j, v in w.items():
            k, t = basis[j]
            for perm, odd in perms:
                rep[scheme.flat_index(k, tuple(t[p] for p in perm))] = \
                    -v if odd else v
        out.append(rep)
    return out


@dataclass
class CohomologySpace:
    """Cohomology of a complex in degree n, as `graded_cohomology`
    returns it for either complex.

    `cocycles` and `coboundaries` stay in the weight-0 coordinates they
    were eliminated in: `scheme.zero_indices(degree)` for the full
    complex, `scheme.zero_wedges(degree)` for the antisymmetric one.
    The coboundaries lie in the cocycles because both come from a
    complex, checked where it is built.  `acyclic_dim` is what the
    nonzero weights add to both z and b; it is 0 for an algebra graded
    by the empty torus.  `reps` are `quotient_reps(cocycles,
    coboundaries)` mapped into tensor coordinates by a map that keeps an
    RREF and the order of its pivots (see `graded_cohomology`), so they
    are the representatives an elimination in tensor coordinates gives.
    `cocycle_basis` keeps the full complex's Z^n basis on its space once
    it is built.
    """

    degree: int
    cocycles: Subspace
    coboundaries: Subspace
    acyclic_dim: int
    reps: list
    _cocycle_basis: list = field(default=None, init=False, repr=False,
                                 compare=False)

    @property
    def z_dim(self):
        return self.cocycles.dim + self.acyclic_dim

    @property
    def b_dim(self):
        return self.coboundaries.dim + self.acyclic_dim

    @property
    def h_dim(self):
        return self.cocycles.dim - self.coboundaries.dim


def _toral_weights(spec):
    """The weight tuple of each basis element, in ints: a toral basis
    element h contributes its lambda_j times the lcm of their
    denominators, real and imaginary parts as two entries, either left
    out when zero for every j (so () when no h has a nonzero lambda_j).
    Linear and injective, so sums, equality and blocks are unchanged."""
    table = spec.table
    columns = []
    for h in range(spec.dim):
        lam = []
        for j in range(spec.dim):
            right = table[j][h]
            if any(m != j for m in right):
                break
            lam.append(right.get(j, ZERO))
        else:
            scale = lcm(*(x.d for x in lam))
            parts = [[x.a * scale // x.d for x in lam],
                     [x.b * scale // x.d for x in lam]]
            columns += [part for part in parts if any(part)]
    return [tuple(lam[j] for lam in columns) for j in range(spec.dim)]


def graded_cohomology(scheme: CochainScheme, n: int,
                      lie: bool = False) -> CohomologySpace:
    """The dimensions and representatives of the cohomology in degree
    n >= 1 of the full complex, or of the antisymmetric one when `lie`
    is true, with the coboundary built only on the weight-0 cochains of
    `scheme` (all of them when the algebra has no toral element): by
    `weight_block`, or by `lie_delta_matrix`.  Cached per (n, lie) on
    the scheme; callers only read it.  delta o delta = 0 holds exactly
    when the table is right Leibniz (a verdict kept on the spec), and on
    the antisymmetric cochains when it is Lie, so any other table is
    refused before a matrix is built; on a complex the coboundaries lie
    in the kernel, and `certified_kernel` takes them as known.

    Z and B are sums over disjoint coordinate blocks, one per weight,
    and agree in every nonzero weight, so the quotient representatives
    of the whole complex all lie in weight 0, and `acyclic_dim` adds the
    rest to z and b.  Only the representatives reach tensor
    coordinates, and both maps keep an RREF as it stands, so they are
    those the whole complex's echelons give:
    - `zero_indices(n)` is an increasing index map;
    - `embed_zero_wedge` writes each increasing tuple on its
      arrangements, and within a head every arrangement of a later
      increasing tuple has a larger flat index than an earlier tuple,
      so an embedded row's pivot is the flat index of its pivot tuple,
      and the row is zero at the other pivots.
    """
    space = scheme._cohomology.get((n, lie))
    if space is None:
        if n < 1:
            raise ValueError("degree must be at least 1")
        if lie:
            block = partial(lie_delta_matrix, scheme)
        elif is_right_leibniz(scheme.spec):
            block = scheme.weight_block
        else:
            raise ValueError("not a complex: not right Leibniz")
        coboundaries = image(block(n - 1))
        cocycles = certified_kernel(block(n), coboundaries)
        reps = quotient_reps(cocycles, coboundaries)
        if lie:
            reps = embed_zero_wedge(scheme, n, reps)
        else:
            indices = scheme.zero_indices(n)
            reps = [{indices[c]: v for c, v in r.items()} for r in reps]
        space = scheme._cohomology[n, lie] = CohomologySpace(
            n, cocycles, coboundaries, scheme.acyclic_dim(n, lie), reps)
    return space


def cocycle_basis(scheme: CochainScheme, n: int) -> list:
    """The RREF basis of the full complex's Z^n, ordered by pivot.

    Spanned by the weight-0 cocycles of `graded_cohomology(scheme, n)`
    mapped back through `scheme.zero_indices(n)`, and by the
    coboundaries of the nonzero-weight (n-1)-cochains, which are all of
    Z in every nonzero weight.  Its RREF is the union of the blocks'
    over disjoint coordinates, so it is the basis `kernel` of the full
    coboundary gives, z_dim rows long.  Built on the first call and kept
    on that cached space, so a `massey` request builds it once; callers
    only read it.
    """
    space = graded_cohomology(scheme, n)
    if space._cocycle_basis is None:
        indices = scheme.zero_indices(n)
        rows = [{indices[c]: v for c, v in r.items()}
                for r in space.cocycles.basis()]
        zero = set(scheme.zero_indices(n - 1))
        rows += [scheme._delta_column(n - 1, idx)
                 for idx in range(scheme.cochain_dim(n - 1))
                 if idx not in zero]
        space._cocycle_basis = Subspace(scheme.cochain_dim(n), rows).basis()
    return space._cocycle_basis


class ClassCoordinates:
    """Coordinates of cohomology classes over chosen representatives.

    Read off the two RREF echelons a `graded_cohomology` space already
    holds, with no further elimination.  B is inside Z, so every pivot
    of B's RREF is a pivot of Z's, and the representatives are Z's RREF
    rows at the remaining pivots, the rule `quotient_reps` follows.  The
    residue r of a vector modulo B is zero at every B pivot; when r is a
    cocycle it is therefore the sum of r[p] times the representative
    with pivot p, and the vector minus r lies in B.  Coordinates over
    (B basis, representatives) are unique, so these are the class
    coordinates.

    Only the vector's weight-0 part is read off, at the positions of
    `scheme.zero_indices(degree)`: the coboundary keeps the weight, so
    the vector is a cocycle exactly when its weight-0 part is one and
    the coboundary of the rest vanishes, which one matrix-free
    coboundary decides, on `scheme`.  The rest then lies in Z = B of
    its weights, and the representatives all have weight 0, so the
    coordinates are those the full complex's echelons give.
    """

    __slots__ = ("scheme", "space", "_rep_pivots", "_positions")

    def __init__(self, scheme: CochainScheme, space: CohomologySpace):
        self.scheme = scheme
        self.space = space
        self._positions = {idx: i for i, idx
                           in enumerate(scheme.zero_indices(space.degree))}
        bpiv = set(space.coboundaries.pivots)
        self._rep_pivots = [p for p in space.cocycles.pivots
                            if p not in bpiv]

    def coords(self, vec: dict):
        """Class coordinates of a cocycle, or None if vec is not one."""
        space = self.space
        positions = self._positions
        zero, rest = {}, {}
        for idx, v in vec.items():
            i = positions.get(idx)
            if i is None:
                rest[idx] = v
            else:
                zero[i] = v
        if rest and self.scheme.delta_apply(space.degree, rest):
            return None
        r = space.coboundaries.reduce(zero)
        if not space.cocycles.contains(r):
            return None
        return [r.get(p, ZERO) for p in self._rep_pivots]
