"""One benchmark run in a fresh interpreter; `run.py` starts it.

Imports leibcoh from the `src/` next to this directory, builds the
workload's documents from the seed, then sends the requests in a closed
loop with one client: each request is one in-process call of
`leibcoh.cli.main`, with the document on stdin and the report captured
from stdout, and the next request starts when the previous one ends.
Pass k runs round k of the seed (see `workloads.py`), so a run averages
over relabellings.  Every report is checked (see `checks.py`); the
timed region is the `main` call alone, and the reference loop of
`refclock.py` runs between calls to turn it into reference seconds.
Each time metric is a median over the run's passes of that pass's
value.

Like a fresh CLI process, each request starts without garbage from the
one before: the set-up objects are frozen out of the collector and a
collection runs, untimed, between requests.  That keeps a request's
collector pauses the same from pass to pass.

With `--trace 0` it runs untraced passes for the whole time budget.
With `--trace 1` it splits the budget between untraced passes, traced
passes (see `tracing.py`) and one counting pass, and reports the layer
metrics.  It prints one JSON line for `run.py` to complete.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import refclock
from checks import load_expected, problems
from tracing import LAYERS, Counter, Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = BENCH / "out"
MAX_FAILURE_LINES = 20


def import_leibcoh():
    """Import leibcoh from this checkout's `src/`, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import leibcoh
        import leibcoh.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import leibcoh from {SRC}: {exc}")
    where = Path(leibcoh.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: leibcoh was imported from {where}, "
                         f"not from {SRC}")
    return leibcoh


def call(cli, request):
    """Run one request; returns (seconds, exit code, report text)."""
    out = io.StringIO()
    err = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(request.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(request.argv))
            except Exception as exc:  # a crash is a failed request
                code = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return seconds, code, out.getvalue()


@dataclass
class Pass:
    """One pass: per request its id and wall and reference seconds."""

    rids: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    report_bytes: int = 0


class Loop:
    """Runs passes over rounds of requests and keeps the tallies."""

    def __init__(self, cli, build_round, seed, expected):
        self.cli = cli
        self.build_round = build_round    # round number -> requests
        self.seed = seed
        self.expected = expected
        self.passes = 0
        self.attempted = 0
        self.failures = []        # one line per failed request
        self.trace_problems = []

    def run_pass(self, on_request=None, round_no=None):
        """One pass over the next round, or over `round_no`."""
        if round_no is None:
            round_no = self.passes
            self.passes += 1
        done = Pass()
        gc.collect()
        before = refclock.loop_seconds()
        for pos, request in enumerate(self.build_round(round_no)):
            if on_request is not None:
                on_request(pos)
            seconds, code, out = call(self.cli, request)
            gc.collect()
            after = refclock.loop_seconds()
            done.rids.append(request.rid)
            done.seconds.append(seconds)
            done.scaled.append(refclock.scaled(seconds, before, after))
            done.report_bytes += len(out.encode("utf-8"))
            before = after
            self.attempted += 1
            found = problems(request, self.seed, code, out, self.expected)
            if found:
                self.failures.append(f"{request.rid}: {'; '.join(found)}")
        return done

    def passes_until(self, deadline, on_request=None):
        """Passes while the next one should end by `deadline`; at least one.

        The estimate for the next pass is the last one's duration, so a
        run stays within its time budget instead of overrunning by up to
        a pass.
        """
        done = []
        while True:
            start = time.perf_counter()
            done.append(self.run_pass(on_request))
            end = time.perf_counter()
            if end + (end - start) > deadline:
                return done


def quantile(values, q):
    """The q-quantile, interpolated between the two nearest ranks (the
    "inclusive" method of `statistics.quantiles`, which needs two
    values)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median_pass(passes, get):
    """The median over passes of `get` applied to a pass's reference
    seconds."""
    return statistics.median(get(done.scaled) for done in passes)


def end_to_end(loop, passes):
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ok = 1 - len(loop.failures) / loop.attempted
    return {
        "wall_s": (median_pass(passes, sum), "s"),
        "req_p50_s": (median_pass(passes, lambda t: quantile(t, 0.5)), "s"),
        "req_p90_s": (median_pass(passes, lambda t: quantile(t, 0.9)), "s"),
        "peak_rss_mb": (usage / 1024, "MB"),
        "ok_frac": (ok, "frac"),
    }


def layer_metrics(traced, overhead, traced_walls, counter, nbytes):
    """Per-layer numbers: medians over traced passes; counts and bytes
    from the counting pass over round 0."""
    def med(get):
        return statistics.median(get(s) for s in traced)

    def span_s(name):
        return med(lambda s: s["by_name"].get(name, (0.0, 0))[0])

    def calls(*names):
        return med(lambda s: sum(s["by_name"].get(n, (0.0, 0))[1]
                                 for n in names))

    out = {f"{layer}.self_s": (med(lambda s, lay=layer: s["self_s"][lay]),
                               "s")
           for layer in LAYERS}
    out.update({
        "linalg.kernel_s": (span_s("linalg.kernel"), "s"),
        "linalg.image_s": (span_s("linalg.image"), "s"),
        "linalg.rows_in": (counter.inserts, "count"),
        "linalg.rank_frac": (counter.rank_ups / counter.inserts
                             if counter.inserts else 0.0, "frac"),
        "linalg.matrix_nnz": (counter.matrix_nnz, "count"),
        "linalg.solver_build_s": (span_s("linalg.Solver.__init__"), "s"),
        "linalg.solves": (calls("linalg.Solver.solve"), "count"),
        "linalg.solve_s": (span_s("linalg.Solver.solve"), "s"),
        "linalg.eliminations": (calls("linalg.kernel", "linalg.image",
                                      "linalg.Solver.__init__"), "count"),
        "scalars.constructed": (counter.scalars, "count"),
        "cochains.delta_build_s": (
            span_s("cochains.CochainScheme.delta_matrix"), "s"),
        "cochains.delta_builds": (counter.delta_builds, "count"),
        "cochains.delta_nnz": (counter.delta_nnz, "count"),
        "cochains.delta_apply_calls": (
            calls("cochains.CochainScheme.delta_apply"), "count"),
        "koszul.decompositions": (calls("koszul.decompose_degree2"),
                                  "count"),
        "deformations.context_builds": (
            calls("deformations.ObstructionContext.__init__"), "count"),
        "deformations.context_s": (
            span_s("deformations.ObstructionContext.__init__"), "s"),
        "deformations.classify_calls": (calls("deformations.classify3"),
                                        "count"),
        "deformations.comp2_calls": (calls("deformations.comp2"), "count"),
        "formats.report_bytes": (nbytes, "bytes"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.self_frac": (
            med(lambda s: sum(s["self_s"].values())) /
            statistics.median(traced_walls), "frac"),
    })
    return out


def run_untraced(loop, seconds):
    start = time.perf_counter()
    passes = loop.passes_until(start + seconds)
    return end_to_end(loop, passes)


def run_traced(loop, seconds, span_path):
    start = time.perf_counter()
    untraced = loop.passes_until(start + seconds / 3)
    tracer = Tracer()
    bounds = []          # index of each traced pass's first span

    def mark(pos):
        if pos == 0:
            bounds.append(len(tracer.spans))
        tracer.request = loop.attempted

    with tracer:
        traced = loop.passes_until(start + 2 * seconds / 3, mark)
    bounds.append(len(tracer.spans))
    summaries = [summarize(tracer.spans, first, last)
                 for first, last in zip(bounds, bounds[1:])]
    walls = [sum(done.seconds) for done in traced]
    for summary, wall in zip(summaries, walls):
        total = sum(summary["self_s"].values())
        if not 0.95 * wall <= total <= wall:
            loop.trace_problems.append(
                f"layer self times add up to {total:.6f} s of {wall:.6f} s "
                f"of traced request time")

    counter = Counter()
    with counter:
        nbytes = loop.run_pass(lambda pos: counter.new_request(),
                               round_no=0).report_bytes

    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(span_path)
    overhead = median_pass(traced, sum) / median_pass(untraced, sum) - 1
    return layer_metrics(summaries, overhead, walls, counter, nbytes)


def source_digest() -> str:
    """SHA-256 over the package sources, naming the program measured even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "leibcoh").iterdir()):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(leibcoh, workload, seed, requests):
    backend = type(leibcoh.scalars.ONE.re)
    return {
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "requests": len(requests),
        "reference_s": refclock.REFERENCE_S,
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "leibcoh_version": leibcoh.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the documents, then exit")
    args = parser.parse_args(argv)

    leibcoh = import_leibcoh()
    import workloads
    first = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0

    # Later rounds are built as their pass starts, outside the timed
    # calls.  The traced run keeps to round 0, so that its traced and
    # untraced passes, and its counts, all describe the same documents.
    def build_round(round_no):
        if round_no == 0 or args.trace or args.seed == 0:
            return first
        return workloads.build(args.workload, args.seed, round_no)

    loop = Loop(leibcoh.cli, build_round, args.seed, load_expected())
    gc.collect()
    gc.freeze()
    if args.trace:
        span_path = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = run_traced(loop, args.seconds, span_path)
    else:
        metrics = run_untraced(loop, args.seconds)
    for line in loop.failures[:MAX_FAILURE_LINES]:
        print(f"failed: {line}", file=sys.stderr)
    for line in loop.trace_problems:
        print(f"trace: {line}", file=sys.stderr)
    print(json.dumps({
        "meta": metadata(leibcoh, args.workload, args.seed, first),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "trace_ok": not loop.trace_problems,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
