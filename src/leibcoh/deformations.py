"""Formal deformations of a Leibniz bracket and their obstructions.

A deformed bracket mu_0 + sum_m x^m T_m (monomials m over named
parameters, T_m sparse 2-cochains) fails the right Leibniz identity by
the defect mu(mu(x,y),z) - mu(mu(x,z),y) - mu(x,mu(y,z)), collected
here exactly, monomial by monomial.  The quadratic part of the defect
is driven by the composition product comp(phi,psi) and the symmetric
bracket comp(phi,psi) + comp(psi,phi), whose classes in degree 3 are
the obstructions to extending a deformation one order further.

Higher products are computed operationally: witnesses are solved order
by order from a single defining system (zero witnesses where the
obstruction vanishes on the nose), a monomial whose obstruction class
is nonzero blocks, and later monomials that need a blocked witness
against a nonzero partner are reported as undefined rather than
guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

from .algebras import AlgebraSpec
from .cochains import (ClassCoordinates, CochainScheme, cocycle_basis,
                       graded_cohomology)
from .linalg import Solver, Subspace, vec_add_at, vec_add_scaled
from .scalars import ONE

__all__ = [
    "comp2",
    "bracket2",
    "mu0_cochain",
    "Deformation",
    "family_deformation",
    "ObstructionContext",
    "ObstructionClass",
    "classify3",
    "ProductRecord",
    "MasseyReport",
    "massey_products",
    "VersalReport",
    "verify_versal",
]


def comp2(scheme: CochainScheme, phi: dict, psi: dict) -> dict:
    """The composition 3-cochain phi(psi(x,y),z) - phi(psi(x,z),y)
    - phi(x,psi(y,z)) of two adjoint 2-cochains.

    Only a psi entry whose head is an argument of a phi entry pairs with
    it, so psi is grouped by head once and each phi entry visits the
    entries under its first and its second argument.
    """
    if not scheme.adjoint:
        raise ValueError("composition products need adjoint coefficients")
    d = scheme.dim
    by_head = {}
    for i, v in psi.items():
        k, ce = divmod(i, d * d)
        by_head.setdefault(k, []).append((ce // d, ce % d, v))
    out = {}
    for i, u in phi.items():
        k, ab = divmod(i, d * d)
        a, b = divmod(ab, d)
        head = k * d ** 3
        for c, e, v in by_head.get(a, ()):
            w = u * v
            # phi(psi(x,y),z) at (c, e, b) and -phi(psi(x,z),y) at (c, b, e)
            vec_add_at(out, head + (c * d + e) * d + b, w)
            vec_add_at(out, head + (c * d + b) * d + e, -w)
        for c, e, v in by_head.get(b, ()):
            # -phi(x,psi(y,z)) at (a, c, e)
            vec_add_at(out, head + (a * d + c) * d + e, -(u * v))
    return out


def bracket2(scheme: CochainScheme, phi: dict, psi: dict) -> dict:
    """Symmetrized composition product; equals minus the coboundary when
    one argument is the bracket itself."""
    out = comp2(scheme, phi, psi)
    for k, v in comp2(scheme, psi, phi).items():
        vec_add_at(out, k, v)
    return out


def mu0_cochain(scheme: CochainScheme) -> dict:
    """The undeformed bracket as an adjoint 2-cochain."""
    out = {}
    for i, j, value in scheme.spec.nonzero_brackets():
        for m, c in value.items():
            out[scheme.flat_index(m, (i, j))] = c
    return out


def _monomials(nparams: int, degree: int):
    """Exponent tuples of the given total degree, in lexicographic order.

    These are the compositions of `degree` into `nparams` parts, built
    one leading part at a time: tails[s] lists the compositions of s
    into the parts placed so far, so no tuple of another degree is made.
    """
    tails = [[()]] + [[] for _ in range(degree)]
    for _ in range(nparams):
        tails = [[(e,) + rest for e in range(s + 1) for rest in tails[s - e]]
                 for s in range(degree + 1)]
    return tails[degree]


def _partitions(monomial):
    """Ordered pairs (m1, m2) of nonzero monomials with m1 + m2 = monomial."""
    ranges = [range(e + 1) for e in monomial]
    for m1 in iter_product(*ranges):
        if not any(m1):
            continue
        m2 = tuple(e - f for e, f in zip(monomial, m1))
        if not any(m2):
            continue
        yield m1, m2


class Deformation:
    """A bracket mu_0 + sum x^m T_m with named parameters.

    Terms are sparse adjoint 2-cochains keyed by exponent tuples of
    degree at least 1.
    """

    __slots__ = ("scheme", "params", "terms")

    def __init__(self, scheme: CochainScheme, params, terms=None):
        if not scheme.adjoint:
            raise ValueError("deformations use adjoint coefficients")
        self.scheme = scheme
        self.params = tuple(params)
        self.terms = {}
        for m, data in (terms or {}).items():
            self.set_term(m, data)

    def set_term(self, monomial, data: dict) -> None:
        monomial = tuple(monomial)
        if len(monomial) != len(self.params):
            raise ValueError("monomial length does not match the parameters")
        if sum(monomial) < 1 or any(e < 0 for e in monomial):
            raise ValueError("terms must have total degree at least 1")
        self.terms[monomial] = dict(data)

    @property
    def max_order(self) -> int:
        """Highest total degree among the terms."""
        return max((sum(m) for m in self.terms), default=0)

    def defect_series(self) -> dict:
        """All nonzero defect coefficients, keyed by exponent tuple.

        The degree-0 key is the defect of the base bracket itself and is
        nonzero only if the base algebra fails the Leibniz identity.
        """
        zero = (0,) * len(self.params)
        table = {zero: mu0_cochain(self.scheme)}
        table.update(self.terms)
        out = {}
        for m1, t1 in table.items():
            if not t1:
                continue
            for m2, t2 in table.items():
                if not t2:
                    continue
                m = tuple(a + b for a, b in zip(m1, m2))
                part = comp2(self.scheme, t1, t2)
                if not part:
                    continue
                acc = out.setdefault(m, {})
                vec_add_scaled(acc, part, ONE)
        return {m: v for m, v in out.items() if v}


def family_deformation(pa) -> Deformation:
    """Split a parameterized bracket table into a Deformation.

    The constant part of every coefficient polynomial forms the base
    algebra; each higher parameter monomial collects its coefficients
    into one adjoint 2-cochain term.
    """
    nparams = len(pa.params)
    zero = (0,) * nparams
    base = {}
    higher = {}
    for (i, j), cell in pa.table.items():
        for k, poly in cell.items():
            for m, coeff in poly.coeffs.items():
                if m == zero:
                    base.setdefault((i, j), {})[k] = coeff
                else:
                    higher.setdefault(m, []).append((k, (i, j), coeff))
    spec = AlgebraSpec(pa.dim, base, kind=pa.kind, name=pa.name,
                       basis_names=pa.basis_names)
    scheme = CochainScheme(spec, "adjoint")
    deformation = Deformation(scheme, pa.params)
    for m in sorted(higher):
        data = {}
        for k, pair, coeff in higher[m]:
            data[scheme.flat_index(k, pair)] = coeff
        deformation.set_term(m, data)
    return deformation


class ObstructionContext:
    """Degree-3 class data and degree-2 solves shared by repeated
    obstruction checks.

    The cohomology of degree 3 is `graded_cohomology(scheme, 3)`,
    built once per scheme: only the weight-0 block of δ3 is eliminated
    (the whole δ3 for an algebra with no toral element), and the classes
    are read off its echelons.  The witness solves of `witness` use one
    `Solver` per weight of δ2, each built the first time a cochain of
    that weight needs it.
    """

    __slots__ = ("space3", "classes", "_scheme", "_blocks")

    def __init__(self, scheme: CochainScheme):
        self.space3 = graded_cohomology(scheme, 3)
        self.classes = ClassCoordinates(scheme, self.space3)
        self._scheme = scheme
        self._blocks = {}  # weight -> (Solver, row positions, columns)

    def witness(self, chi: dict):
        """The solution of δ2 x = chi that is zero at every free column
        of δ2, keys increasing, or None when chi is not a coboundary.

        δ2 keeps the weight, so it is block-diagonal by weight, and the
        pivot columns of a block-diagonal matrix are the union of its
        blocks' pivot columns (an increasing index map keeps the order
        of the columns inside a block).  So that unique solution is the
        sum over chi's weights of the block solutions.
        """
        scheme = self._scheme
        parts = {}
        for idx, v in chi.items():
            parts.setdefault(scheme.weight(3, idx), {})[idx] = v
        x = {}
        for weight, part in parts.items():
            block = self._blocks.get(weight)
            if block is None:
                rows = scheme.zero_indices(3, weight)
                block = self._blocks[weight] = (
                    Solver(scheme.weight_block(2, weight)),
                    {idx: i for i, idx in enumerate(rows)},
                    scheme.zero_indices(2, weight))
            solver, position, columns = block
            local = solver.solve({position[idx]: v
                                  for idx, v in part.items()})
            if local is None:
                return None
            for c, v in local.items():
                x[columns[c]] = v
        return {c: x[c] for c in sorted(x)}


@dataclass
class ObstructionClass:
    """A classified degree-3 obstruction cochain.

    The verdict is None when the cochain is not closed (then it cannot
    be an obstruction of a consistent lower order and the caller has a
    bookkeeping bug to find).  The witness solves delta(witness) =
    cochain and is present exactly for the coboundary verdict.
    """

    cochain: dict
    closed: bool
    verdict: str | None            # "zero" | "coboundary" | "nontrivial"
    witness: dict | None = None
    class_coords: list | None = None


def classify3(context: ObstructionContext, chi: dict) -> ObstructionClass:
    """Classify a 3-cochain as zero, a coboundary (with a deterministic
    witness), or a nontrivial class; non-cocycles are flagged instead of
    raising."""
    chi = {k: v for k, v in chi.items() if v}
    coords = context.classes.coords(chi)
    if coords is None:
        return ObstructionClass(chi, closed=False, verdict=None)
    if not chi:
        return ObstructionClass(chi, True, "zero", witness={},
                                class_coords=coords)
    if any(coords):
        return ObstructionClass(chi, True, "nontrivial", class_coords=coords)
    witness = context.witness(chi)
    if witness is None:
        raise AssertionError("class coordinates vanished but no witness found")
    return ObstructionClass(chi, True, "coboundary", witness=witness,
                            class_coords=coords)


@dataclass
class ProductRecord:
    """Outcome for one monomial of the order-by-order extension."""

    monomial: tuple
    status: str                    # "defined" or "undefined"
    verdict: str | None = None     # "zero" | "coboundary" | "nontrivial"
    class_coords: list | None = None
    nontrivial_mod_indeterminacy: bool | None = None
    blocking: list = field(default_factory=list)
    witness: dict | None = None
    indeterminacy_dim: int | None = None

    @property
    def degree(self) -> int:
        return sum(self.monomial)


@dataclass
class MasseyReport:
    params: tuple
    records: list
    hl3_dim: int
    witnesses: dict

    def record(self, monomial) -> ProductRecord:
        monomial = tuple(monomial)
        for rec in self.records:
            if rec.monomial == monomial:
                return rec
        raise KeyError(f"no record for monomial {monomial}")


def massey_products(scheme: CochainScheme, generators, order: int,
                    params=None) -> MasseyReport:
    """Extend mu_0 + sum x_a phi_a order by order up to the given total
    degree, recording the obstruction verdict for every monomial.

    Generators must be 2-cocycles.  A monomial with a coboundary
    obstruction gets the deterministic witness; a nontrivial one blocks.
    Monomials whose obstruction needs a blocked witness with a nonzero
    partner are undefined.  From degree 3 on, nontrivial classes are
    also judged against the indeterminacy spanned by brackets of the
    involved generators with all 2-cocycles.
    """
    generators = [dict(g) for g in generators]
    nparams = len(generators)
    if params is None:
        params = tuple(f"x{i+1}" for i in range(nparams))
    params = tuple(params)
    if len(params) != nparams:
        raise ValueError("one parameter name per generator is required")
    if order < 2:
        raise ValueError("order must be at least 2")
    for g in generators:
        if not scheme.is_cocycle(2, g):
            raise ValueError("every generator must be a 2-cocycle")

    context = ObstructionContext(scheme)
    classes = context.classes
    zl2_basis = cocycle_basis(scheme, 2)

    witnesses = {}
    for a, g in enumerate(generators):
        unit = tuple(1 if i == a else 0 for i in range(nparams))
        witnesses[unit] = g

    # Classes of generator brackets against all 2-cocycles, by generator.
    indet_cache = {}

    def indeterminacy(monomial) -> Subspace:
        span = Subspace(len(context.space3.reps))
        for a, e in enumerate(monomial):
            if not e:
                continue
            rows = indet_cache.get(a)
            if rows is None:
                rows = []
                for eta in zl2_basis:
                    coords = classes.coords(bracket2(scheme, generators[a], eta))
                    rows.append({i: v for i, v in enumerate(coords) if v})
                indet_cache[a] = rows
            for row in rows:
                span.insert(row)
        return span

    records = []
    for degree in range(2, order + 1):
        for monomial in _monomials(nparams, degree):
            obstruction = {}
            blocking = []
            for m1, m2 in _partitions(monomial):
                t1 = witnesses.get(m1)
                t2 = witnesses.get(m2)
                if t1 is None or t2 is None:
                    # A missing witness is harmless only against a zero
                    # partner.
                    partner_zero = (t1 == {} or t2 == {})
                    if not partner_zero:
                        blocking.append((m1, m2))
                    continue
                if t1 and t2:
                    vec_add_scaled(obstruction, comp2(scheme, t1, t2), ONE)
            if blocking:
                records.append(ProductRecord(monomial, "undefined",
                                             blocking=blocking))
                continue
            oc = classify3(context, obstruction)
            if not oc.closed:
                records.append(ProductRecord(monomial, "undefined",
                                             blocking=[("defect", "not closed")]))
                continue
            if oc.verdict == "nontrivial":
                flag = None
                span_dim = None
                if degree >= 3:
                    span = indeterminacy(monomial)
                    span_dim = span.dim
                    coord_vec = {i: v for i, v in enumerate(oc.class_coords) if v}
                    flag = not span.contains(coord_vec)
                records.append(ProductRecord(monomial, "defined", "nontrivial",
                                             oc.class_coords, flag,
                                             indeterminacy_dim=span_dim))
            else:
                witnesses[monomial] = oc.witness
                records.append(ProductRecord(monomial, "defined", oc.verdict,
                                             oc.class_coords, witness=oc.witness))
    return MasseyReport(params=params, records=records,
                        hl3_dim=context.space3.h_dim, witnesses=dict(witnesses))


@dataclass
class VersalReport:
    """Defect monomials of a parameterized bracket against a monomial ideal."""

    params: tuple
    defect: dict
    ideal: list
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_versal(deformation: Deformation, ideal_monomials) -> VersalReport:
    """Check that every nonzero defect coefficient is divisible by some
    ideal generator; undivided monomials are reported with their
    cochains."""
    nparams = len(deformation.params)
    ideal = []
    for g in ideal_monomials:
        g = tuple(g)
        if len(g) != nparams or any(e < 0 for e in g):
            raise ValueError(f"bad ideal monomial {g}")
        ideal.append(g)
    defect = deformation.defect_series()
    violations = []
    for m in sorted(defect):
        covered = any(all(ge <= me for ge, me in zip(g, m)) for g in ideal)
        if not covered:
            violations.append((m, defect[m]))
    return VersalReport(params=deformation.params, defect=defect,
                        ideal=ideal, violations=violations)
