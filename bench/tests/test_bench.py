"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

They check the harness, not leibcoh: the metric set, the correctness
gate, that tracing changes no report byte, and the pinned dimensions
against an independent rank oracle (sympy).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from worker import Loop, call, end_to_end, import_leibcoh  # noqa: E402

leibcoh = import_leibcoh()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Counter, Tracer  # noqa: E402

EXPECTED = checks.load_expected()


def _run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    result = _run_bench("ledger", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _by_rid(workload, seed, rids):
    found = {r.rid: r for r in workloads.build(workload, seed)}
    return [found[rid] for rid in rids]


SMALL = ["diamond_e|validate", "g54|koszul",
         "heisenberg 2|decompose --coeff adjoint",
         "gl 2|cohomology --deg 2 --lie",
         "g54|koszul --format text",
         "family diamond_family|versal --ideal lam*lam,lam*mu,mu*mu",
         "family g54_family1|validate"]


@pytest.mark.parametrize("seed", [0, 3])
def test_a_wrong_expectation_counts_as_a_failure(seed):
    requests = _by_rid("ladder", seed, SMALL)
    loop = Loop(leibcoh.cli, lambda k: requests, seed, EXPECTED)
    passes = [loop.run_pass()]
    assert loop.failures == []
    assert end_to_end(loop, passes)["ok_frac"][0] == 1.0

    corrupted = json.loads(json.dumps(EXPECTED))
    if seed == 0:
        rid = SMALL[1]
        corrupted["digests"][rid] = "0" * 64
    else:
        rid = SMALL[2]
        corrupted["invariants"][rid]["decompose.hl2_dim"] = "-1"
    loop = Loop(leibcoh.cli, lambda k: requests, seed, corrupted)
    passes = [loop.run_pass()]
    assert len(loop.failures) == 1 and loop.failures[0].startswith(rid)
    ok = end_to_end(loop, passes)["ok_frac"][0]
    assert ok == 1 - 1 / len(requests)


def test_traced_and_counted_reports_are_byte_identical():
    requests = (_by_rid("ladder", 1, SMALL)
                + _by_rid("ledger", 1, ["sl2_plus_abelian 3|massey "
                                        "--generators 1,2 --order 3"]))
    plain = [call(leibcoh.cli, r)[1:] for r in requests]
    tracer = Tracer()
    with tracer:
        traced = [call(leibcoh.cli, r)[1:] for r in requests]
    assert {span[1] for span in tracer.spans} >= {
        "cli", "formats", "algebras", "cochains", "linalg", "koszul",
        "deformations", "families", "polynomials", "scalars"}
    counter = Counter()
    with counter:
        counted = [call(leibcoh.cli, r)[1:] for r in requests]
    assert counter.scalars > 0 and counter.inserts > 0
    assert plain == traced == counted
    # Uninstalling restores every rebinding.
    assert leibcoh.cli.kernel is leibcoh.linalg.kernel
    assert leibcoh.linalg.kernel.__code__.co_name == "kernel"


def _sympy_rank(matrix):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    rows = {}
    for i, row in enumerate(matrix.rows):
        if row:
            rows[i] = {j: QQ(v.re.numerator, v.re.denominator)
                       for j, v in row.items()}
            assert all(not v.im for v in row.values())
    return DomainMatrix(rows, (matrix.nrows, matrix.ncols), QQ).rank()


def _pinned_cohomology(max_dim):
    """Pinned Leibniz-cohomology dims of catalog algebras up to max_dim."""
    out = []
    for key in workloads.LADDER_ALGEBRAS:
        spec = leibcoh.catalog(*key)
        if spec.dim > max_dim:
            continue
        for n in (1, 2, 3):
            for coeff in ("adjoint", "trivial"):
                rid = (f"{workloads._label(key)}|cohomology --deg {n} "
                       f"--coeff {coeff}")
                inv = EXPECTED["invariants"][rid]
                out.append((rid, spec, n, coeff,
                            int(inv[f"cohomology.zl{n}_dim"]),
                            int(inv[f"cohomology.bl{n}_dim"])))
    return out


PINNED = _pinned_cohomology(5)


@pytest.mark.parametrize("rid,spec,n,coeff,z,b", PINNED,
                         ids=[row[0] for row in PINNED])
def test_pinned_dims_match_sympy_ranks(rid, spec, n, coeff, z, b):
    scheme = leibcoh.CochainScheme(spec, coeff)
    delta = scheme.delta_matrix(n)
    assert z == delta.ncols - _sympy_rank(delta)
    assert b == _sympy_rank(scheme.delta_matrix(n - 1))
