"""Command-line surface.

Subcommands: validate, invariants, eig, galois, motives, decompose,
check-hypotheses, signature {sig,transfer,am-filter}, batch.  Single
results print one canonical JSON line to stdout; batch appends
newline-delimited records to its output store (see report.py for the
format).  Exit codes: 0 success, 1 domain rejection or certificate
failure, 2 malformed input, 3 I/O failure (silently when stdout was
closed early), 4 a batch worker process died (the lines finished before
it are stored).

Option precedence, lowest to highest: built-in defaults, the
FROBEIG_MAX_PRECISION environment variable, command-line flags,
per-record options.
"""

import argparse
import json
import os
import re
import sys
# the base class of BrokenProcessPool; importing it loads no process pool
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from . import __version__
from .config import DEFAULT, MAX_POWER_CAP, Settings
from .errors import FrobeigError, MalformedInput
from .eig import invariants_report
from .lefmot import classify_orbits, motive_orbits
from .quadforms import am_filter, signature, tannaka_transfer
from .report import (OPTION_KEYS, InputRecord, analyse, build_report_record,
                     canonical_json, decomposition_fragment,
                     effective_options, eig_fragment, galois_fragment,
                     hypothesis_fragment, parse_options, parse_record,
                     run_batch)


def _emit(obj) -> None:
    # flushed here, so a closed stdout fails inside main, not at exit
    print(canonical_json(obj), flush=True)


def _flag_options(args) -> Dict[str, int]:
    return parse_options({key: getattr(args, key) for key in OPTION_KEYS
                          if getattr(args, key, None) is not None})


def _record_from_args(args) -> InputRecord:
    if getattr(args, "record", None):
        if args.record == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.record).read_text()
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"record file is not valid JSON: {exc}")
        record = parse_record(obj)
    else:
        if args.q is None or args.coeffs is None:
            raise MalformedInput(
                "provide --q and --coeffs, or --record FILE")
        tokens = [t for t in re.split(r"[\s,]+", args.coeffs.strip()) if t]
        obj = {"q": args.q, "coeffs": tokens}
        if getattr(args, "label", None):
            obj["label"] = args.label
        record = parse_record(obj)
    if getattr(args, "assert_cm", False) and record.cm_assertion is None:
        record = replace(record, cm_assertion=True)
    return record


def _analysis(args, base: Settings):
    """(record, effective options, Analysis) of the command-line input."""
    record = _record_from_args(args)
    opts = effective_options(base, _flag_options(args), record.option_dict)
    return record, opts, analyse(record, opts, base)


# --- subcommand bodies ---

# the read-only subcommands: help text, and what each prints of the
# analysis next to the input
_VIEWS = {
    "validate": ("accept or reject a q-Weil polynomial", lambda an, opts: {
        "accepted": True, "q": an.data.q, "p": an.data.p, "e": an.data.e,
        "g": an.data.g, "simple": an.data.is_simple}),
    "invariants": ("numerical invariants, ranks, kernel", lambda an, opts: {
        "invariants": invariants_report(an)}),
    "eig": ("eigenvalue group presentation", lambda an, opts: {
        "eig": eig_fragment(an.eig)}),
    "galois": ("Galois group of the splitting field", lambda an, opts: {
        "splitting_degree": an.field.degree,
        "galois": galois_fragment(an.gal)}),
    "decompose": ("decomposition grid over d and n", lambda an, opts: {
        "decompositions": [decomposition_fragment(dec)
                           for dec in an.grid(opts["max_power"])]}),
    "check-hypotheses": ("positivity-theorem hypothesis verdict",
                         lambda an, opts: {
                             "hypothesis": hypothesis_fragment(an.verdict)}),
}


def cmd_view(args, base: Settings) -> int:
    record, opts, an = _analysis(args, base)
    _emit({"input": record.echo(), **_VIEWS[args.command][1](an, opts)})
    return 0


def cmd_motives(args, base: Settings) -> int:
    record, _, an = _analysis(args, base)
    if args.power < 1 or args.power > MAX_POWER_CAP:
        raise MalformedInput(f"--power must lie in 1..{MAX_POWER_CAP}")
    if args.codim < 0 or args.codim > an.data.g * args.power:
        raise MalformedInput(
            f"--codim must lie in 0..{an.data.g * args.power}")
    ambient = "primitive" if args.primitive else "full"
    rep = classify_orbits(an, args.power, args.codim, ambient)
    orbits = motive_orbits(an, args.power, args.codim, ambient)
    _emit({"input": record.echo(),
           "decomposition": decomposition_fragment(rep, orbits)})
    return 0


def cmd_report(args, base: Settings) -> int:
    record = _record_from_args(args)
    rep = build_report_record(record, _flag_options(args), base,
                              __version__)
    _emit(rep)
    return 0


def _read_matrices(path: str) -> List[List[List[Fraction]]]:
    """Matrix text format: dimension header, then row-major p/q tokens."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    tokens = text.split()
    mats = []
    i = 0
    while i < len(tokens):
        try:
            dim = int(tokens[i], 10)
        except ValueError:
            raise MalformedInput(
                f"expected a dimension header, got {tokens[i]!r}")
        if dim < 1:
            raise MalformedInput("matrix dimension must be positive")
        i += 1
        need = dim * dim
        if len(tokens) - i < need:
            raise MalformedInput(
                f"matrix of dimension {dim} needs {need} entries; only "
                f"{len(tokens) - i} tokens remain")
        entries = []
        for tok in tokens[i:i + need]:
            try:
                entries.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise MalformedInput(f"bad rational entry {tok!r}")
        i += need
        mats.append([entries[r * dim:(r + 1) * dim] for r in range(dim)])
    if not mats:
        raise MalformedInput("matrix file holds no matrices")
    return mats


def cmd_signature(args, base: Settings) -> int:
    if args.mode == "sig":
        mats = _read_matrices(args.matrices)
        if len(mats) != 1:
            raise MalformedInput(
                f"sig expects exactly one matrix, got {len(mats)}")
        pos, neg = signature(mats[0])
        _emit({"dimension": len(mats[0]),
               "signature": [pos, neg, len(mats[0]) - pos - neg]})
        return 0
    if args.mode == "transfer":
        mats = _read_matrices(args.matrices)
        if len(mats) != 4:
            raise MalformedInput(
                "transfer expects four matrices (side A base, side A "
                f"moved, side B base, side B moved), got {len(mats)}")
        result = tannaka_transfer(*mats)
        _emit({"verdict": result.verdict,
               "signature": list(result.signature),
               "charpoly": list(result.charpoly)})
        return 0
    # am-filter
    result = am_filter(args.multiplicity)
    _emit({"multiplicity": result.multiplicity,
           "determined": result.determined,
           "candidates": [list(c) for c in result.candidates],
           "note": result.note})
    return 0


def cmd_batch(args, base: Settings) -> int:
    summary = run_batch(args.in_path, args.out_path, jobs=args.jobs,
                        global_options=_flag_options(args), base=base,
                        version=__version__)
    _emit(summary)
    return 0


# --- parser wiring ---

def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    grp = common.add_argument_group("analysis options")
    grp.add_argument("--search-bound", dest="search_bound", type=int,
                     help="sup-norm box for kernel searches")
    grp.add_argument("--degree-cap", dest="degree_cap", type=int,
                     help="largest splitting-field degree attempted")
    grp.add_argument("--precision-ceiling", dest="precision_ceiling",
                     type=int, help="certified-numerics precision cap, bits")
    grp.add_argument("--max-power", dest="max_power", type=int,
                     help="largest power of the variety in grid reports")
    return common


def _input_flags() -> argparse.ArgumentParser:
    inp = argparse.ArgumentParser(add_help=False)
    grp = inp.add_argument_group("input record")
    grp.add_argument("--q", type=int, help="base field size, a prime power")
    grp.add_argument("--coeffs",
                     help="comma-separated coefficients, ascending degree")
    grp.add_argument("--label", help="free-form label echoed in reports")
    grp.add_argument("--record",
                     help="JSON file with one input record ('-' = stdin)")
    return inp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobeig",
        description="Exact invariants of Frobenius eigenvalue structures")
    parser.add_argument("--version", action="version",
                        version=f"frobeig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    inp = _input_flags()

    for name, (text, _) in _VIEWS.items():
        sub.add_parser(name, parents=[inp, common], help=text) \
           .set_defaults(func=cmd_view)
    sub.choices["check-hypotheses"].add_argument(
        "--assert-cm", action="store_true",
        help="assert a totally real splitting subfield (CM datum) is "
             "available")

    motives = sub.add_parser("motives", parents=[inp, common],
                             help="orbit decomposition of one (d, n)")
    motives.add_argument("--power", type=int, required=True,
                         help="power d of the variety")
    motives.add_argument("--codim", type=int, required=True,
                         help="codimension n (weight 2n)")
    motives.add_argument("--primitive", action="store_true",
                         help="decompose the primitive part only")
    motives.set_defaults(func=cmd_motives)

    sub.add_parser("report", parents=[inp, common],
                   help="full report record for one input") \
       .set_defaults(func=cmd_report)

    sig = sub.add_parser("signature",
                         help="exact quadratic-form certificates")
    sig_modes = sig.add_subparsers(dest="mode", required=True)
    one = sig_modes.add_parser("sig", help="signature of one form")
    one.add_argument("matrices", help="matrix file ('-' = stdin)")
    tr = sig_modes.add_parser("transfer",
                              help="signature transfer certificate")
    tr.add_argument("matrices", help="file with the four matrices")
    am = sig_modes.add_parser("am-filter",
                              help="mod-4 candidate filter")
    am.add_argument("multiplicity", type=int)
    sig.set_defaults(func=cmd_signature)

    batch = sub.add_parser("batch", parents=[common],
                           help="batch-process an input file")
    batch.add_argument("--in", dest="in_path", required=True,
                       help="newline-delimited input records")
    batch.add_argument("--out", dest="out_path", required=True,
                       help="append-only output store")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    batch.set_defaults(func=cmd_batch)
    return parser


def _env_settings() -> Settings:
    """DEFAULT with the FROBEIG_MAX_PRECISION ceiling, validated as the
    flag is; a ceiling below precision_start is raised to it."""
    raw = os.environ.get("FROBEIG_MAX_PRECISION")
    if not raw:
        return DEFAULT
    ceiling = parse_options({"precision_ceiling": raw})["precision_ceiling"]
    return replace(DEFAULT, precision_ceiling=max(ceiling,
                                                  DEFAULT.precision_start))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # stdout was closed early (`frobeig report ... | head`): nothing
        # more can reach it, and pointing it at devnull keeps the final
        # flush at exit from failing too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


def _run(args) -> int:
    try:
        return args.func(args, _env_settings())
    except MalformedInput as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    except FrobeigError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1
    except OSError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 3
    except BrokenExecutor as exc:       # a dead batch worker
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 4


if __name__ == "__main__":
    sys.exit(main())
