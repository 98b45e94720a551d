"""Regenerate `expected.json`, the correctness table of the benchmark.

    python3 bench/pin.py

Runs every workload's requests once at seed 0 and records the SHA-256
of each report, and the invariants of the report on the request's
reference document (its catalog basis, without shears).  Re-pin only
for a deliberate change of report bytes, and say so in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from checks import EXPECTED_PATH, digest, invariants
from worker import call, import_leibcoh


def main() -> int:
    leibcoh = import_leibcoh()
    import workloads
    digests = {}
    table = {}
    for workload in workloads.WORKLOADS:
        for request in workloads.build(workload, 0):
            _, code, out = call(leibcoh.cli, request)
            if code != 0:
                print(f"{request.rid}: exit code {code}", file=sys.stderr)
                return 1
            digests[request.rid] = digest(out)
            reference = dataclasses.replace(request, text=request.reference)
            _, code, ref_out = call(leibcoh.cli, reference)
            if code != 0:
                print(f"{request.rid} (reference): exit code {code}",
                      file=sys.stderr)
                return 1
            table[request.rid] = invariants(ref_out, request.argv)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"digests": digests, "invariants": table}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(digests)} requests in {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
