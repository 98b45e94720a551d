"""Correctness gate for benchmark reports.

Two checks, both pinned in `expected.json` by `pin.py`:

* at seed 0, and for any request whose document is its catalog
  reference, the SHA-256 of the report's bytes, which is the
  byte-identical contract for reports;
* at every seed, the report's invariants: every value whose path in the
  report crosses no list.  These are the algebra's dimension fields and
  verdicts, the cohomology, koszul and decompose dimensions and
  verdicts, `zl2_dim`/`hl3_dim` and `contained`.  They cannot depend on
  the basis, so a relabelled or sheared algebra must reproduce the
  values of its catalog-basis reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _leaf(value) -> str:
    if value is True or value is False:
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def _flatten(value, prefix, out):
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        if not value:
            out[prefix] = "(none)"
        for pos, item in enumerate(value):
            _flatten(item, f"{prefix}[{pos}]", out)
    else:
        out[prefix] = _leaf(value)


def invariants(text: str, argv) -> dict:
    """Basis-independent report values as {path: text}.

    JSON reports are flattened with the same path and value conventions
    that `--format text` prints, so both formats compare alike.
    """
    flat = {}
    if "--format" in argv and argv[argv.index("--format") + 1] == "text":
        for line in text.splitlines():
            path, sep, value = line.partition(": ")
            if not sep:
                raise ValueError(f"malformed text report line {line!r}")
            flat[path] = value
    else:
        _flatten(json.loads(text), "", flat)
    return {path: value for path, value in flat.items() if "[" not in path}


def problems(request, seed: int, code, out: str, expected: dict) -> list:
    """Reasons the report of one request is wrong; empty when it is right."""
    found = []
    if code != 0:
        found.append(f"exit code {code}")
        return found
    if seed == 0 or request.text == request.reference:
        want = expected["digests"].get(request.rid)
        if want is None:
            found.append("no pinned digest")
        elif digest(out) != want:
            found.append("report digest differs from the pinned one")
    want = expected["invariants"].get(request.rid)
    if want is None:
        found.append("no pinned invariants")
    else:
        try:
            got = invariants(out, request.argv)
        except ValueError as exc:
            found.append(f"unreadable report: {exc}")
        else:
            for path in sorted(set(want) | set(got)):
                if want.get(path) != got.get(path):
                    found.append(f"{path}: {got.get(path)!r}, expected "
                                 f"{want.get(path)!r}")
    return found
