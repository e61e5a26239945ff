#!/usr/bin/env python3
"""Process the built-in polynomial corpus through the batch pipeline.

Writes the corpus as newline-delimited input records, runs `frobeig
batch` over it, and prints the summary line.  The flags, the
FROBEIG_MAX_PRECISION environment variable and the exit codes are those
of `frobeig batch`.  The output store is append-only; re-runs skip
records already present.
"""

import argparse
from pathlib import Path

from frobeig.cli import main as frobeig_main
from frobeig.corpus import CORPUS
from frobeig.report import canonical_json


def corpus_lines():
    for entry in CORPUS:
        record = {"label": entry.tag, "q": entry.q,
                  "coeffs": list(entry.coefficients)}
        yield canonical_json(record)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="corpus_run",
                        help="working directory for input and store")
    # both stay strings: `frobeig batch` checks them
    parser.add_argument("--jobs", default="1")
    parser.add_argument("--max-power", default=None,
                        help="decomposition grid top (default 2)")
    args = parser.parse_args()

    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    in_path = workdir / "corpus.ndjson"
    in_path.write_text("\n".join(corpus_lines()) + "\n")

    argv = ["batch", "--in", str(in_path),
            "--out", str(workdir / "reports.ndjson"), "--jobs", args.jobs]
    if args.max_power is not None:
        argv += ["--max-power", args.max_power]
    return frobeig_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
