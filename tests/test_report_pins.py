"""Reports stay byte-identical to the benchmark's pinned SHA-256 digests.

Replays the seed-0 requests of `bench/workloads.py` in-process and
compares each report's digest with `bench/expected.json`, the table the
benchmark's correctness gate uses; requests run through the benchmark's
own `worker.call`, so every seed-0 report of every workload is pinned
here too.  Nothing under `bench/` is written: the modules are imported
without bytecode caches.
"""

import importlib
import sys
from pathlib import Path

import pytest

from leibcoh import cli

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


@pytest.mark.parametrize("workload", REPLAYED)
def test_seed0_reports_match_pinned_digests(workload):
    wrong = []
    requests = workloads.build(workload, 0)
    for request in requests:
        _, code, out = worker.call(cli, request)
        if code != 0:
            wrong.append(f"{request.rid}: exit code {code}")
        elif checks.digest(out) != EXPECTED[request.rid]:
            wrong.append(f"{request.rid}: report digest differs")
    assert requests
    assert not wrong, "\n".join(wrong)
