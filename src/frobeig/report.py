"""Report records, canonical serialization, and the batch pipeline.

The CLI emits newline-delimited JSON with three record types, told apart
by the "record_type" field:

  report    one full analysis of an input record
  error     an input that was rejected, kept inline so a batch continues
  manifest  one line per batch run: tool version, resolved global
            options, counters, and the only timestamp in the file

Serialization is canonical: keys sorted, compact separators, ASCII only,
and every integer or rational rendered as a decimal or "p/q" string so a
reader in any language recovers exact values.  The content_key of a
record is the SHA-256 digest of the canonical form of {"input",
"options", "version"}; identical inputs under identical effective
options and tool version therefore produce byte-identical report lines,
and batch runs use the key to skip work already present in the output
file.
"""

import hashlib
import json
import logging
import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .analysis import Analysis
from .config import DEFAULT, MAX_POWER_CAP, Settings
from .errors import FrobeigError, InternalError, MalformedInput
from .weil import validate
from .splitfield import GaloisData
from .eig import EigGroup, invariants_report
from . import lefmot


# --- canonical serialization ---

def _encode(obj) -> str:
    """The canonical JSON text of obj, written in one pass over it."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, Fraction)):
        # Fraction prints "p/q", or "p" when whole
        return encode_basestring_ascii(str(obj))
    if obj is None:
        return "null"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_encode, obj)) + "]"
    if isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r} in report data")
        return "{" + ",".join(
            encode_basestring_ascii(k) + ":" + _encode(obj[k])
            for k in sorted(obj)) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def canonical_json(obj) -> str:
    """Canonical single-line rendering: keys sorted, compact separators,
    ASCII only, numerics as exact strings."""
    return _encode(obj)


def content_key(input_echo: dict, options: Dict[str, int],
                version: str) -> str:
    payload = {"input": input_echo, "options": options, "version": version}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# --- input records and options ---

OPTION_KEYS = ("degree_cap", "max_power", "precision_ceiling",
               "search_bound")
REPORT_POWER_DEFAULT = 2   # decomposition grid top in batch reports


@dataclass(frozen=True)
class InputRecord:
    q: int
    coeffs: Tuple[int, ...]
    label: Optional[str] = None
    cm_assertion: Optional[bool] = None
    options: Tuple[Tuple[str, int], ...] = ()

    def echo(self) -> dict:
        out: dict = {"q": self.q, "coeffs": list(self.coeffs)}
        if self.label is not None:
            out["label"] = self.label
        if self.cm_assertion is not None:
            out["cm_assertion"] = self.cm_assertion
        return out

    @property
    def option_dict(self) -> Dict[str, int]:
        return dict(self.options)


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise MalformedInput(f"{what} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise MalformedInput(f"{what} must be an integer, got {value!r}")


def parse_options(obj) -> Dict[str, int]:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise MalformedInput("options must be an object")
    out = {}
    for key, value in obj.items():
        if key not in OPTION_KEYS:
            raise MalformedInput(
                f"unknown option {key!r}; known options: "
                + ", ".join(OPTION_KEYS))
        v = _as_int(value, f"option {key}")
        if v < 1:
            raise MalformedInput(f"option {key} must be positive, got {v}")
        out[key] = v
    return out


def parse_record(obj) -> InputRecord:
    """Validate one InputRecord object (already JSON-decoded)."""
    if not isinstance(obj, dict):
        raise MalformedInput("input record must be a JSON object")
    extra = set(obj) - {"label", "q", "coeffs", "cm_assertion", "options"}
    if extra:
        raise MalformedInput(
            "unknown record fields: " + ", ".join(sorted(extra)))
    if "q" not in obj or "coeffs" not in obj:
        raise MalformedInput("input record needs both 'q' and 'coeffs'")
    q = _as_int(obj["q"], "q")
    raw_coeffs = obj["coeffs"]
    if not isinstance(raw_coeffs, (list, tuple)) or not raw_coeffs:
        raise MalformedInput("coeffs must be a non-empty list")
    coeffs = tuple(_as_int(c, "coefficient") for c in raw_coeffs)
    # ascending degree: monic of even degree >= 2 means odd length >= 3
    if len(coeffs) < 3 or len(coeffs) % 2 == 0 or coeffs[-1] != 1:
        raise MalformedInput(
            "coeffs must list ascending coefficients of a monic "
            "polynomial of even degree >= 2")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise MalformedInput("label must be a string")
    cm = obj.get("cm_assertion")
    if cm is not None and not isinstance(cm, bool):
        raise MalformedInput("cm_assertion must be a boolean")
    options = parse_options(obj.get("options"))
    return InputRecord(q=q, coeffs=coeffs, label=label, cm_assertion=cm,
                       options=tuple(sorted(options.items())))


def effective_options(base: Settings, *layers: Dict[str, int]) -> Dict[str, int]:
    """Resolve the option stack; later layers win (record over flags)."""
    out = {"degree_cap": base.degree_cap,
           "max_power": REPORT_POWER_DEFAULT,
           "precision_ceiling": base.precision_ceiling,
           "search_bound": base.search_bound}
    for layer in layers:
        for key, value in (layer or {}).items():
            if key not in OPTION_KEYS:
                raise MalformedInput(f"unknown option {key!r}")
            out[key] = value
    if out["max_power"] > MAX_POWER_CAP:
        raise MalformedInput(
            f"max_power {out['max_power']} exceeds the configured "
            f"cap {MAX_POWER_CAP}")
    return out


def settings_for(options: Dict[str, int], base: Settings) -> Settings:
    # a ceiling below the starting precision would never be reachable
    ceiling = max(options["precision_ceiling"], base.precision_start)
    return replace(base, degree_cap=options["degree_cap"],
                   search_bound=options["search_bound"],
                   precision_ceiling=ceiling)


def _resolve(record: InputRecord, global_options: Optional[Dict[str, int]],
             base: Settings, version: str) -> Tuple[Dict[str, int], str]:
    """Effective options and content_key of one record."""
    opts = effective_options(base, global_options or {}, record.option_dict)
    return opts, content_key(record.echo(), opts, version)


def _parse_line(raw: str, global_options: Optional[Dict[str, int]],
                base: Settings, version: str):
    """(record, options, content_key, parse error) of one batch line.  An
    unparseable line has no record, the global options and a key over
    its raw text."""
    try:
        record = parse_record(json.loads(raw))
        return (record, *_resolve(record, global_options, base, version),
                None)
    except (json.JSONDecodeError, MalformedInput) as exc:
        gopts = effective_options(base, global_options or {})
        return None, gopts, content_key({"raw": raw}, gopts, version), exc


def analyse(record: InputRecord, options: Dict[str, int],
            base: Settings) -> Analysis:
    """Validate a record under its resolved options and open its
    Analysis, which the report and every CLI command read from."""
    st = settings_for(options, base)
    return Analysis(validate(record.q, record.coeffs, st), st,
                    record.cm_assertion)


# --- report fragments ---

def eig_fragment(eig: EigGroup) -> dict:
    return {"n_roots": eig.n_roots,
            "symbols": list(eig.symbols),
            "rank": eig.rank,
            "invariant_factors": list(eig.invariant_factors),
            "basis_labels": list(eig.basis_labels),
            "weight_vector": list(eig.weight_vector),
            "symbol_coords": [list(c) for c in eig.symbol_coords],
            "q_coords": list(eig.q_coords)}


def galois_fragment(gal: GaloisData) -> dict:
    return {"order": gal.order,
            "fully_certified": gal.fully_certified,
            "generator_indices": list(gal.generator_indices),
            "permutations": [list(p) for p in gal.perms]}


def decomposition_fragment(
        rep: lefmot.DecompositionReport,
        orbits: Optional[Sequence[lefmot.MotiveOrbit]] = None) -> dict:
    """The report fragment of one decomposition, with its orbits listed
    when they are given (see lefmot.motive_orbits)."""
    frag = {"d": rep.d, "n": rep.n, "ambient": rep.ambient,
            "dims": list(rep.dims[:3]),        # (L, E, T)
            "total": rep.dims[3],
            "orbit_counts": dict(zip((lefmot.TATE_TRIVIAL, lefmot.EXOTIC,
                                      lefmot.NON_TATE), rep.orbit_counts)),
            "exotic": [dict(det) for det in rep.exotic_details]}
    if orbits is not None:
        frag["orbits"] = [
            {"elements": [list(m.coords) for m in orbit.elements],
             "weight": orbit.weight,
             "orbit_size": orbit.orbit_size,
             "classification": orbit.classification,
             "multiplicity": orbit.multiplicity_in_ambient,
             "dimension": orbit.dimension_in_ambient}
            for orbit in orbits]
    return frag


def hypothesis_fragment(verdict: lefmot.HypothesisVerdict) -> dict:
    return {"verdict": verdict.verdict,
            "conditions": [[name, status]
                           for name, status in verdict.conditions],
            "failures": list(verdict.failures),
            "warnings": list(verdict.warnings)}


def prediction_fragment(d: int, source: str, rho: Sequence[int],
                        pred: lefmot.SignaturePrediction) -> dict:
    return {"d": d, "source": source, "rho": list(rho),
            "s_plus": pred.s_plus, "s_minus": pred.s_minus,
            "negative_prediction": pred.negative_prediction}


# --- full report assembly ---

def build_report_record(record: InputRecord,
                        global_options: Optional[Dict[str, int]] = None,
                        base: Settings = DEFAULT,
                        version: str = __version__) -> dict:
    """One complete report; raises FrobeigError on domain rejection.

    Splitting-field failures inside the pipeline degrade to null
    fragments enumerated under status.undetermined instead of aborting.
    """
    opts, key = _resolve(record, global_options, base, version)
    return _report(record, opts, key, base, version)


def _report(record: InputRecord, opts: Dict[str, int], key: str,
            base: Settings, version: str) -> dict:
    """The report of a record whose options and content_key are resolved."""
    an = analyse(record, opts, base)
    data = an.data

    rep: dict = {"record_type": "report",
                 "content_key": key,
                 "version": version,
                 "input": record.echo(),
                 "options": opts}
    undetermined: List[str] = []
    reasons: Dict[str, str] = {}
    warnings: List[str] = []

    inv = invariants_report(an)
    rep["invariants"] = inv
    for name in inv["undetermined"]:
        undetermined.append("invariants." + name)
        reasons["invariants." + name] = inv["undetermined_reason"]

    rep["eig"] = eig_fragment(an.eig)

    reason = an.undetermined("gal")
    if reason:
        for part in ("galois", "decompositions", "hypothesis",
                     "signature_predictions"):
            rep[part] = None
            undetermined.append(part)
            reasons[part] = reason
        rep["status"] = {"undetermined": undetermined, "reasons": reasons,
                         "warnings": warnings}
        return rep

    rep["galois"] = galois_fragment(an.gal)

    decs = []
    for dec in an.grid(opts["max_power"]):
        decs.append(decomposition_fragment(dec))
        for det in dec.exotic_details:
            if "warning" in det:
                warnings.append(f"d={dec.d} n={dec.n}: {det['warning']}")
    rep["decompositions"] = decs

    if data.is_simple:
        rep["hypothesis"] = hypothesis_fragment(an.verdict)
    else:
        rep["hypothesis"] = None
        undetermined.append("hypothesis")
        reasons["hypothesis"] = "NotSimple"

    preds = []
    for d in range(1, opts["max_power"] + 1):
        if (data.g * d) % 2:
            continue
        rho = lefmot.build_rho_table(an, d, "tate")
        pred = lefmot.predicted_signature(rho, data.g * d // 2,
                                          source="tate")
        preds.append(prediction_fragment(d, "tate", rho, pred))
        if pred.negative_prediction:
            warnings.append(f"negative signature prediction at d={d}")
    rep["signature_predictions"] = preds

    rep["status"] = {"undetermined": undetermined, "reasons": reasons,
                     "warnings": warnings}
    return rep


# --- batch execution ---

def _error_line(key: str, echo, opts: Dict[str, int], exc: Exception,
                version: str, raw: Optional[str] = None) -> str:
    rec = {"record_type": "error", "content_key": key, "version": version,
           "options": opts, "input": echo,
           "error": {"type": type(exc).__name__, "message": str(exc)}}
    if raw is not None:
        rec["raw"] = raw
    return canonical_json(rec)


def process_line(raw: str, global_options: Optional[Dict[str, int]],
                 base: Settings, version: str) -> Tuple[str, str, str]:
    """One batch line -> (content_key, output line, "report"|"error").

    Any exception from the pipeline becomes the line's error record, so
    one record never loses the batch; one outside the FrobeigError
    hierarchy is a bug, logged with its traceback and recorded as an
    InternalError naming its type.
    """
    record, opts, key, exc = _parse_line(raw, global_options, base, version)
    if exc is not None:
        return key, _error_line(key, None, opts, exc, version, raw=raw), \
            "error"
    try:
        rep = _report(record, opts, key, base, version)
    except FrobeigError as exc:
        return key, _error_line(key, record.echo(), opts, exc, version), \
            "error"
    except Exception as exc:
        logging.getLogger(__name__).exception("record %s failed", key)
        err = InternalError(f"{type(exc).__name__}: {exc}")
        return key, _error_line(key, record.echo(), opts, err, version), \
            "error"
    return key, canonical_json(rep), "report"


def plan_keys(raw: str, global_options: Optional[Dict[str, int]],
              base: Settings, version: str) -> str:
    """content_key a batch line will carry, without computing the report."""
    return _parse_line(raw, global_options, base, version)[2]


def existing_keys(out_path) -> set:
    """content_keys already present in an output store."""
    path = Path(out_path)
    if not path.exists():
        return set()
    keys = set()
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise OSError(f"output store {path} line {i} is not valid "
                          "JSON; refusing to append")
        if not isinstance(obj, dict):
            raise OSError(f"output store {path} line {i} is not a record")
        if obj.get("record_type") == "manifest":
            continue
        key = obj.get("content_key")
        if not isinstance(key, str):
            raise OSError(f"output store {path} line {i} has no "
                          "content_key")
        keys.add(key)
    return keys


def run_batch(in_path, out_path, jobs: int = 1,
              global_options: Optional[Dict[str, int]] = None,
              base: Settings = DEFAULT,
              version: str = __version__) -> dict:
    """Batch-process newline-delimited input records.

    Appends new report/error lines sorted by content_key, skips keys the
    store already holds, and closes with a manifest line.  The store is
    rewritten through a temporary file and replaced atomically.  Per-record
    failures become inline error records; only I/O problems raise, and a
    worker process that dies at jobs > 1 raises BrokenProcessPool after
    the lines finished so far and the manifest are stored.
    """
    if jobs < 1:
        raise MalformedInput("jobs must be positive")
    gopts = effective_options(base, global_options or {})
    lines = [ln for ln in Path(in_path).read_text().splitlines()
             if ln.strip()]
    seen = existing_keys(out_path)

    pending: List[str] = []
    skipped = 0
    for raw in lines:
        key = plan_keys(raw, global_options, base, version)
        if key in seen:
            skipped += 1
            continue
        seen.add(key)
        pending.append(raw)

    worker = partial(process_line, global_options=global_options,
                     base=base, version=version)
    broken = None
    if jobs == 1 or len(pending) <= 1:
        results = [worker(raw) for raw in pending]
    else:
        # the pool module loads multiprocessing, which a serial run does
        # not need
        from concurrent.futures.process import (BrokenProcessPool,
                                                ProcessPoolExecutor)
        results = []
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            for future in [pool.submit(worker, raw) for raw in pending]:
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    # a worker died; the lines finished before it are kept
                    broken = exc

    results.sort(key=lambda item: item[0])
    errors = sum(1 for _, _, kind in results if kind == "error")
    manifest = {"record_type": "manifest", "version": version,
                "options": gopts, "processed": len(lines),
                "written": len(results), "skipped": skipped,
                "errors": errors,
                "timestamp": datetime.now(timezone.utc).isoformat()}
    # a run killed before os.replace leaves the old store untouched
    path = Path(out_path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            if path.exists():
                handle.write(path.read_bytes())
            for _, line, _ in results:
                handle.write((line + "\n").encode())
            handle.write((canonical_json(manifest) + "\n").encode())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if broken is not None:
        raise broken
    return {"processed": len(lines), "written": len(results),
            "skipped": skipped, "errors": errors, "out": str(out_path)}
