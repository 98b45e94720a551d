"""Reports stay byte-identical to the benchmark's pinned SHA-256 digests.

Replays the seed-0 requests of `bench/workloads.py` in-process and
compares each report's digest with `bench/expected.json`, the table the
benchmark's correctness gate uses; requests run through the benchmark's
own `worker.call`, so every seed-0 report of every workload is pinned
here too.  Nothing under `bench/` is written: the modules are imported
without bytecode caches.  `gl 3`'s reports, with one torus element
scaled by non-integral and non-real factors, are pinned here as well,
and every request runs once more with `Scalar.__hash__` raising.
"""

import gc
import importlib
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from leibcoh import cli
from leibcoh.algebras import catalog, change_basis
from leibcoh.cochains import CochainScheme
from leibcoh.formats import algebra_to_document, dumps_canonical
from leibcoh.linalg import Matrix
from leibcoh.scalars import ONE, Scalar

BENCH = Path(__file__).resolve().parents[1] / "bench"
REPLAYED = ("ladder", "deg3", "ledger", "gaussian")


def _bench_module(name):
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


workloads = _bench_module("workloads")
checks = _bench_module("checks")
worker = _bench_module("worker")
EXPECTED = checks.load_expected()["digests"]


def wrong_reports(requests, expected=EXPECTED) -> list:
    """The requests whose report fails to come out with exit code 0 and
    its digest in `expected`, each with the reason."""
    wrong = []
    for request in requests:
        _, code, out = worker.call(cli, request)
        if code != 0:
            wrong.append(f"{request.rid}: exit code {code}")
        elif checks.digest(out) != expected[request.rid]:
            wrong.append(f"{request.rid}: report digest differs")
    assert requests
    return wrong


@pytest.mark.parametrize("workload", REPLAYED)
def test_seed0_reports_match_pinned_digests(workload):
    wrong = wrong_reports(workloads.build(workload, 0))
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("workload", REPLAYED)
def test_seed0_reports_build_no_full_complex(workload, monkeypatch):
    # Every request reads the Leibniz complex through its torus weights,
    # so none needs the whole complex's coboundary matrix (a torus-free
    # algebra's one weight block is built by `weight_block`).
    def forbidden(*args):
        raise AssertionError("a request built the whole complex")

    monkeypatch.setattr(CochainScheme, "delta_matrix", forbidden)
    wrong = wrong_reports(workloads.build(workload, 0))
    assert not wrong, "\n".join(wrong)


def leibcoh_garbage(request) -> set:
    """The leibcoh types of the objects one request leaves to the cycle
    collector: run with the collector off, then collected with every
    unreachable object saved instead of freed."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        worker.call(cli, request)
        gc.collect()
        return {type(o).__qualname__ for o in gc.garbage
                if type(o).__module__.startswith("leibcoh")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("workload", REPLAYED)
def test_seed0_requests_leave_no_reference_cycles(workload):
    # A request's scheme owns its caches and nothing cached points back
    # at it, so reference counting frees the complex when the request
    # returns, before its report is written.
    leaks = [f"{request.rid}: {sorted(kinds)}"
             for request in workloads.build(workload, 0)
             if (kinds := leibcoh_garbage(request))]
    assert not leaks, "\n".join(leaks)


def scaled_gl3(c):
    """The document of gl 3 with basis element 6, E11 - E22, scaled by
    c, so that the weight entry it grades by is c times gl 3's."""
    spec = catalog("gl", 3)
    cols = [{i: c if i == 6 else ONE} for i in range(spec.dim)]
    scaled = change_basis(spec, Matrix.from_columns(spec.dim, cols))
    return dumps_canonical(algebra_to_document(scaled))


SCALINGS = {"1": ONE, "1/2": Scalar(Fraction(1, 2)),
            "(1+i)/3": Scalar(Fraction(1, 3), Fraction(1, 3)),
            "i": Scalar(0, 1)}
GL3_DEG3 = ("cohomology", "--deg", "3", "--force")
GL3_LIE3 = ("cohomology", "--lie", "--deg", "3")
GL3_MASSEY = ("massey", "--generators", "1", "--order", "2")
# Digests of gl 3's reports (as pinned in CI) and of those with basis
# element 6 scaled by a non-integral, a non-real and a purely imaginary
# factor.  Every scaling keeps gl 3's own degree-3 report: its one
# representative lives on x9, the identity, which the scaling fixes.
GL3_PINS = {
    ("1", GL3_LIE3):
        "545cb43ab50b19081a74f7b8cb52112340aa9b44c3a2aac28ddc1717ea56918f",
    ("1", GL3_MASSEY):
        "7c0f62c9a6b60919ba803ed7bb25b35232e1aa0fd41161fff4fd14104d2abf1b",
    ("1/2", GL3_LIE3):
        "addbd5c2ff0625d7de2f7a884a67d4c3e448426c0a5bb961dcf852f2093d767f",
    ("1/2", GL3_MASSEY):
        "df70416fbc148fa61f6d7bc5aa5d4d3d69db0ae2d5b4947a4db22890594ed18b",
    ("(1+i)/3", GL3_LIE3):
        "62cd4c48e2ce3bff0aa490fdc4216182b80fc7c3e64397de2f9c1b7f83da2feb",
    ("(1+i)/3", GL3_MASSEY):
        "e4d1d9b9c1df74669d910cf45b054a65af0143737e2f36f3df702c3d0ed28522",
    ("i", GL3_LIE3):
        "06c4c75ad144a6fa92f63837c1ecb04362a8e9a165c59c5019cc2e33a9b0e194",
    ("i", GL3_MASSEY):
        "f99411e9ce1bfa63b29efdcb9fae995dc79eb6c339f6860a25ae425b363ca1a1",
}
for label in SCALINGS:
    GL3_PINS[(label, GL3_DEG3)] = (
        "1a0d1a7db852cbf09e73f8d81ccfe1a73edaf224ebed079b9e9664f9a5df8b76")


def gl3_requests(scaling):
    doc = scaled_gl3(SCALINGS[scaling])
    return [SimpleNamespace(rid=key, argv=key[1], text=doc)
            for key in GL3_PINS if key[0] == scaling]


@pytest.mark.parametrize("scaling", SCALINGS)
def test_scaled_gl3_reports_match_pinned_digests(scaling):
    wrong = wrong_reports(gl3_requests(scaling), GL3_PINS)
    assert not wrong, "\n".join(wrong)


def test_no_request_hashes_a_scalar(monkeypatch):
    # The torus weights are int tuples, and nothing else keys a dict or
    # a set by a Scalar.
    def unhashable(self):
        raise AssertionError("a Scalar was hashed")

    monkeypatch.setattr(Scalar, "__hash__", unhashable)
    requests = [request for workload in REPLAYED
                for request in workloads.build(workload, 0)]
    wrong = wrong_reports(requests)
    wrong += wrong_reports(gl3_requests("1"), GL3_PINS)
    assert not wrong, "\n".join(wrong)
