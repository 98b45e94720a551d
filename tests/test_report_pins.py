"""Reports stay byte-identical to the benchmark's pinned SHA-256 digests.

Replays the seed-0 requests of `bench/workloads.py` in-process and
compares each report's digest with `bench/expected.json`, the table the
benchmark's correctness gate uses; requests run through the benchmark's
own `worker.call`.  The three costliest requests
(`heisenberg 3` degree 3, `gl 3` and `sl2_plus_abelian 6`) are left to
the benchmark itself.  Nothing under `bench/` is written: the modules
are imported without bytecode caches.
"""

import importlib
import sys
from pathlib import Path

import pytest

from leibcoh import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SKIPPED = ("heisenberg 3|cohomology --deg 3", "gl 3|",
           "sl2_plus_abelian 6|")
# deg3's one request is sl2_plus_abelian 6, so it has nothing to replay.
REPLAYED = ("ladder", "ledger", "gaussian")


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


@pytest.mark.parametrize("workload", REPLAYED)
def test_seed0_reports_match_pinned_digests(workload):
    wrong = []
    replayed = 0
    for request in workloads.build(workload, 0):
        if any(skip in request.rid for skip in SKIPPED):
            continue
        replayed += 1
        _, code, out = worker.call(cli, request)
        if code != 0:
            wrong.append(f"{request.rid}: exit code {code}")
        elif checks.digest(out) != EXPECTED[request.rid]:
            wrong.append(f"{request.rid}: report digest differs")
    assert replayed
    assert not wrong, "\n".join(wrong)
