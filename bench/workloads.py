"""Seeded request lists for the benchmark workloads.

A request is one `leibcoh` command line plus the algebra document it
reads on stdin.  Documents come from the catalog through public library
calls only.  Seed 0 keeps every catalog basis as it is and the request
order as listed; any other seed relabels each algebra by a seeded basis
permutation (`change_basis` with a permutation matrix), except in the
`ledger` workload, and shuffles the request order.  Each pass of a run
takes the next round of its seed, with its own permutations and order,
so a run's timings average over relabellings instead of resting on one.  The `gaussian`
workload also applies fixed shears with coefficients in Q(i) before the
permutation, so it stays comparable across seeds while exercising the
non-real scalar path.

Every request carries a stable id and a reference document (catalog
basis, no shear): the invariants of its report must equal those of the
reference report, because isomorphic algebras have isomorphic cochain
complexes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

from leibcoh import (
    Matrix,
    ParamAlgebra,
    algebra_to_document,
    catalog,
    change_basis,
    dumps_canonical,
    family_catalog,
    family_names,
    family_to_document,
    parse_scalar,
)
from leibcoh.scalars import ONE

WORKLOADS = ("ladder", "deg3", "ledger", "gaussian")

LADDER_ALGEBRAS = (("diamond_e",), ("g54",), ("heisenberg", 2),
                   ("heisenberg", 3), ("gl", 2), ("sl2_plus_abelian", 3))

REPORTS = (
    [["validate"]]
    + [["cohomology", "--deg", str(n), "--coeff", c]
       for n in (1, 2, 3) for c in ("adjoint", "trivial")]
    + [["cohomology", "--deg", "2", "--lie"],
       ["koszul"],
       ["decompose", "--coeff", "adjoint"],
       ["decompose", "--coeff", "trivial"]]
)

TEXT_REPORTS = (
    (("g54",), ["koszul", "--format", "text"]),
    (("diamond_e",), ["cohomology", "--deg", "2", "--format", "text"]),
    (("heisenberg", 2), ["decompose", "--format", "text"]),
    (("gl", 2), ["validate", "--format", "text"]),
)

# sl2_plus_abelian 6 has dim 9, so its degree-3 coboundary has the
# 59049 x 6561 shape of gl 3's; gl 3 itself (about 40 s per request)
# does not fit the run budget.
DEG3 = ((("sl2_plus_abelian", 6), ["cohomology", "--deg", "3"]),)

# A relabelling changes the echelon basis of the 2-cocycles that the
# generator indices point into, so it would change which ledger is
# computed and its cost by up to 2x per request.  The ledger therefore
# keeps the catalog bases at every seed; the seed shuffles the order.
LEDGER = (
    (("diamond_e",), "1,2,3,4", 6),
    (("g54",), "1,2,3,4,5,6", 4),
    (("heisenberg", 2), "1,2,3,4", 4),
    (("sl2_plus_abelian", 3), "1,2", 3),
)

# Shears y_j = e_j + c e_i as (i, j, c), applied before the seeded
# permutation.  They break the catalog's integral, block-sparse pattern.
SHEARS = {
    ("diamond_e",): ((0, 1, "1+i"),),
    ("g54",): ((0, 1, "i"),),
    ("heisenberg", 2): ((0, 4, "-1"),),
    ("sl2_plus_abelian", 3): ((0, 3, "2"),),
    ("gl", 2): ((0, 2, "-i"),),
}

GAUSSIAN_REPORTS = (
    ["cohomology", "--deg", "2", "--coeff", "adjoint"],
    ["cohomology", "--deg", "3", "--coeff", "trivial"],
    ["cohomology", "--deg", "3", "--coeff", "adjoint"],
    ["decompose"],
    ["koszul"],
)


@dataclass(frozen=True)
class Request:
    rid: str          # stable id, the key of the pinned expectations
    argv: tuple
    text: str         # the document fed on stdin
    reference: str    # the same algebra in its catalog basis, unsheared


def _label(key) -> str:
    return " ".join(str(part) for part in key)


def _permutation(rng, dim):
    if rng is None:
        return list(range(dim))
    return rng.sample(range(dim), dim)


def _transport(spec, perm, shears=()):
    """change_basis by the shears, then by the permutation."""
    d = spec.dim
    cols = [{i: ONE} for i in range(d)]
    for i, j, c in shears:
        cols[j][i] = parse_scalar(c)
    # New basis vector k is old (sheared) vector perm[k].
    cols = [cols[perm[k]] for k in range(d)]
    names = [spec.basis_names[perm[k]] for k in range(d)]
    t = Matrix.from_columns(d, cols)
    return change_basis(spec, t, basis_names=names)


def _algebra_text(spec) -> str:
    return dumps_canonical(algebra_to_document(spec))


def _permuted_family(pa, perm):
    """The same family with basis vector perm[k] moved to position k."""
    pos = {old: new for new, old in enumerate(perm)}
    brackets = {(pos[i], pos[j]): {pos[k]: poly for k, poly in cell.items()}
                for (i, j), cell in pa.table.items()}
    return ParamAlgebra(pa.dim, pa.params, brackets, kind=pa.kind,
                        name=pa.name,
                        basis_names=[pa.basis_names[p] for p in perm])


def _ideal(params) -> str:
    return ",".join("*".join(pair)
                    for pair in combinations_with_replacement(params, 2))


class _Docs:
    """Builds each (algebra, shear) document once per seed."""

    def __init__(self, rng):
        self.rng = rng
        self.cache = {}

    def algebra(self, key, sheared=False):
        ck = (key, sheared)
        if ck not in self.cache:
            spec = catalog(*key)
            ref = _algebra_text(spec)
            shears = SHEARS[key] if sheared else ()
            perm = _permutation(self.rng, spec.dim)
            if shears or perm != list(range(spec.dim)):
                text = _algebra_text(_transport(spec, perm, shears))
            else:
                text = ref
            self.cache[ck] = (text, ref)
        return self.cache[ck]

    def family(self, name):
        if name not in self.cache:
            pa = family_catalog(name)
            ref = dumps_canonical(family_to_document(pa))
            perm = _permutation(self.rng, pa.dim)
            text = dumps_canonical(family_to_document(
                _permuted_family(pa, perm)))
            self.cache[name] = (text, ref, pa.params)
        return self.cache[name]


def _ladder(docs):
    out = []
    for key in LADDER_ALGEBRAS:
        text, ref = docs.algebra(key)
        for argv in REPORTS:
            out.append(Request(f"{_label(key)}|{' '.join(argv)}",
                               tuple(argv), text, ref))
    text, ref = docs.algebra(("gl", 3))
    argv = ["cohomology", "--deg", "2"]
    out.append(Request(f"gl 3|{' '.join(argv)}", tuple(argv), text, ref))
    for name in family_names():
        text, ref, params = docs.family(name)
        argvs = [["validate"], ["versal"]]
        if params:
            argvs.append(["versal", "--ideal", _ideal(params)])
        for argv in argvs:
            out.append(Request(f"family {name}|{' '.join(argv)}",
                               tuple(argv), text, ref))
    for key, argv in TEXT_REPORTS:
        text, ref = docs.algebra(key)
        out.append(Request(f"{_label(key)}|{' '.join(argv)}",
                           tuple(argv), text, ref))
    return out


def _deg3(docs):
    out = []
    for key, argv in DEG3:
        text, ref = docs.algebra(key)
        out.append(Request(f"{_label(key)}|{' '.join(argv)}",
                           tuple(argv), text, ref))
    return out


def _ledger(docs):
    out = []
    for key, gens, order in LEDGER:
        text = _algebra_text(catalog(*key))
        argv = ["massey", "--generators", gens, "--order", str(order)]
        out.append(Request(f"{_label(key)}|{' '.join(argv)}",
                           tuple(argv), text, text))
    return out


def _gaussian(docs):
    out = []
    for key in SHEARS:
        text, ref = docs.algebra(key, sheared=True)
        for argv in GAUSSIAN_REPORTS:
            out.append(Request(f"sheared {_label(key)}|{' '.join(argv)}",
                               tuple(argv), text, ref))
    return out


_BUILDERS = {"ladder": _ladder, "deg3": _deg3, "ledger": _ledger,
             "gaussian": _gaussian}


def build(workload: str, seed: int, round_no: int = 0) -> list:
    """The workload's requests for this seed and round, in the order they
    run.  At seed 0 every round is the same."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"options: {', '.join(WORKLOADS)}")
    rng = (None if seed == 0
           else random.Random(f"{workload}:{seed}:{round_no}"))
    requests = _BUILDERS[workload](_Docs(rng))
    if rng is not None:
        rng.shuffle(requests)
    return requests
