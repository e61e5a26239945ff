#!/usr/bin/env python3
"""Capture the mathematical reference that the benchmark checks against.

Runs every corpus record through the batch pipeline at max_power 2, and
the non-quadratic records again at max_power 6, then keeps only the
fields that do not depend on the tool version or on the report layout:
splitting degree, Galois order, Frobenius rank r, kernel basis, the
(L, E, T) dims of every decomposition, and the hypothesis verdict.

A record whose deep run ends in an error keeps only its max_power 2 data,
so the error is not recorded as expected output.  Run from the
repository root:

    python3 bench/capture_reference.py > bench/reference.json
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frobeig import __version__  # noqa: E402
from frobeig.config import DEFAULT  # noqa: E402
from frobeig.report import canonical_json, process_line  # noqa: E402
from frobeig.corpus import CORPUS  # noqa: E402
import workloads  # noqa: E402


def math_fields(rep: dict) -> dict:
    fields = workloads.math_fields(rep)
    fields["dims"] = {f"{dec['d']},{dec['n']}": [int(x) for x in dec["dims"]]
                      for dec in rep["decompositions"]}
    return fields


def main() -> int:
    records = {}
    for max_power, entries in ((2, CORPUS),
                               (6, [e for e in CORPUS
                                    if len(e.coefficients) > 3])):
        for entry in entries:
            raw = canonical_json({"label": entry.tag, "q": entry.q,
                                  "coeffs": list(entry.coefficients)})
            _, line, kind = process_line(raw, {"max_power": max_power},
                                         DEFAULT, __version__)
            if kind != "report":
                print(f"max_power {max_power}: {entry.tag}: {kind}",
                      file=sys.stderr)
                continue
            fields = math_fields(json.loads(line))
            fields["max_power"] = max_power
            records[workloads.record_key(entry.q, entry.coefficients)] = fields
    json.dump({"captured_with_version": __version__, "records": records},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
