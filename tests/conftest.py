"""Shared fixtures: cached cochain schemes and hand-entered cochains."""

import pytest

from leibcoh.algebras import catalog, change_basis
from leibcoh.cochains import CochainScheme, sym2_inclusion
from leibcoh.linalg import Matrix, Subspace, kernel, vec_add_at, vec_combine
from leibcoh.scalars import ONE, Scalar

HALF = Scalar(1) / 2


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
