"""Reports stay byte-identical to the benchmark's pinned SHA-256 digests.

Replays the seed-0 requests of `bench/workloads.py` in-process and
compares each report's digest with `bench/expected.json`, the table the
benchmark's correctness gate uses; requests run through the benchmark's
own `worker.call`, so every seed-0 report of every workload is pinned
here too.  Nothing under `bench/` is written: the modules are imported
without bytecode caches.
"""

import gc
import importlib
import sys
from pathlib import Path

import pytest

from leibcoh import cli
from leibcoh.cochains import CochainScheme

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


def wrong_reports(workload) -> list:
    """The seed-0 requests of a workload whose report fails to come out
    with exit code 0 and its pinned digest, each with the reason."""
    wrong = []
    requests = workloads.build(workload, 0)
    for request in requests:
        _, code, out = worker.call(cli, request)
        if code != 0:
            wrong.append(f"{request.rid}: exit code {code}")
        elif checks.digest(out) != EXPECTED[request.rid]:
            wrong.append(f"{request.rid}: report digest differs")
    assert requests
    return wrong


@pytest.mark.parametrize("workload", REPLAYED)
def test_seed0_reports_match_pinned_digests(workload):
    wrong = wrong_reports(workload)
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("workload", REPLAYED)
def test_seed0_reports_build_no_full_complex(workload, monkeypatch):
    # Every request reads the Leibniz complex through its torus weights,
    # so none needs the whole complex's coboundary matrix (a torus-free
    # algebra's one weight block is built by `weight_block`).
    def forbidden(*args):
        raise AssertionError("a request built the whole complex")

    monkeypatch.setattr(CochainScheme, "delta_matrix", forbidden)
    wrong = wrong_reports(workload)
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
