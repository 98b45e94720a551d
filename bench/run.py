"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload ladder --seed 0 --seconds 20 --trace 0

Each run starts fresh interpreters: a few setup probes (interpreter
start, `import leibcoh`, document generation; their median in reference
seconds, see `refclock.py`, is `setup_s`), then one worker that
measures for `--seconds` seconds (see `worker.py`).  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's metadata.  Exits non-zero without a result when leibcoh
cannot be imported from this checkout's `src/` or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
RUN_LIMIT_S = 170


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (BENCH.parent / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH.parent,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _fail(message, proc=None) -> int:
    if proc is not None:
        sys.stderr.write(proc.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed)]

    setups = []          # (wall seconds, reference seconds) per probe
    if not args.trace:
        before = refclock.loop_seconds()
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            proc = subprocess.run(base + ["--setup-only"], capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S)
            seconds = time.perf_counter() - t0
            if proc.returncode != 0:
                return _fail("setup probe failed", proc)
            after = refclock.loop_seconds()
            setups.append((seconds, refclock.scaled(seconds, before, after)))
            before = after

    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace",
                    str(args.trace)],
            capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return _fail(f"worker did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        return _fail("worker failed", proc)
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {
            "value": statistics.median(ref for _, ref in setups),
            "unit": "s"}
    meta = dict(result["meta"], commit=_git_commit(),
                trace=args.trace, seconds=args.seconds)
    if setups:
        meta["setup_probes_wall_s"] = [wall for wall, _ in setups]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["trace_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
