"""The three benchmark workloads: inputs made from a seed, one measured
pass, and the checks on every output.

Weil workloads (corpus, deep-grid) send the built-in corpus as
NDJSON through ``report.run_batch``, the entry point of ``frobeig batch``.
The quadforms workload calls the public ``quadforms`` functions in-process
on generated certification jobs whose answer is known by construction.

Per-op latency is one timer around each ``report.process_line`` call;
the benchmark rebinds ``report.process_line`` for the length of a pass,
and ``src/`` is not edited.  Every time is also given scaled to a
reference host speed (see hostspeed.py).
"""

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from frobeig import quadforms, report
from frobeig.corpus import CORPUS
from frobeig.errors import CharpolyMismatch, FrobeigError
from hostspeed import SpeedLog

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"


@dataclass(frozen=True)
class WeilSpec:
    max_power: int
    deep: bool          # only the non-quadratic records
    # per-record max_power options, by record_key
    record_max_power: Tuple[Tuple[str, int], ...] = ()


WEIL_WORKLOADS = {
    "corpus": WeilSpec(max_power=2, deep=False),
    # The two g=3 triple products take 27 of the 50 s of a full d=6 grid
    # on a 2-vCPU 2.0 GHz Xeon VM; a record option caps them at d=3 so a
    # run fits the time budget, and every other record still goes to d=6.
    "deep-grid": WeilSpec(max_power=6, deep=True,
                          record_max_power=(("3:27,0,24,0,8,0,1", 3),
                                            ("2:8,0,10,0,5,0,1", 3))),
}
WORKLOADS = tuple(WEIL_WORKLOADS) + ("quadforms",)

QF_DIMS = tuple(range(2, 13))
QF_KINDS = ("signature", "certify", "transfer", "transfer_perturbed")
# jobs per kind and dimension; the seed's draws change a job's cost a
# little, and several jobs per cell average that out
QF_REPEATS = 3


@dataclass
class PassResult:
    """What one pass produced: timings, per-op outcome and check results.
    Times are scaled to the reference host speed; raw ones say so."""
    attempted: int
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    ref_loop_s: float = 0.0                               # median sample
    op_latency_s: Dict[str, float] = field(default_factory=dict)  # by op
    op_raw_s: Dict[str, float] = field(default_factory=dict)
    failed_ops: List[str] = field(default_factory=list)   # op identifiers
    problems: List[str] = field(default_factory=list)     # failed checks
    store_lines: Optional[List[str]] = None
    bytes_written: int = 0
    decompositions: int = 0


# --- per-op timing ---

class _OpTimer:
    """Raw timings of the ops of one pass."""

    def __init__(self):
        self.ops: List[Tuple[str, float, float]] = []  # (op, start, end)

    def time_op(self, op: str, fn: Callable, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ops.append((op, t0, time.perf_counter()))


def _timed_pass(run: Callable[[_OpTimer], None], result: "PassResult",
                sample_speed: bool) -> None:
    """Runs a pass and fills its raw op and wall times, less the time of
    the host-speed samples, and the same times scaled to the reference
    host speed.  Without sample_speed (the traced pass) the samples are
    taken only before and after the pass."""
    timer = _OpTimer()
    speed = SpeedLog(during=sample_speed)
    with speed:
        t0 = time.perf_counter()
        run(timer)
        t1 = time.perf_counter()
    raw_sum = scaled_sum = 0.0
    for op, start, end in timer.ops:
        raw = end - start - speed.loop_time_in(start, end)
        scaled = raw * speed.factor(start, end)
        result.op_raw_s[op] = raw
        result.op_latency_s[op] = scaled
        raw_sum += raw
        scaled_sum += scaled
    result.raw_wall_s = t1 - t0 - speed.loop_time_in(t0, t1)
    result.wall_s = result.raw_wall_s * scaled_sum / raw_sum
    result.ref_loop_s = speed.median_loop_s()


# --- Weil workloads ---

def record_key(q, coeffs) -> str:
    return f"{int(q)}:{','.join(str(int(c)) for c in coeffs)}"


def load_reference() -> Dict[str, dict]:
    return json.loads(REFERENCE.read_text())["records"]


def store_digest(src_dir: Path, lines: List[str]) -> str:
    """Digest of the program's sources and of the input set, naming the
    cached store that a run of the same code on the same inputs makes."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode() + b"\n")
    for path in sorted(src_dir.rglob("*.py")):
        h.update(str(path.relative_to(src_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class WeilContext:
    spec: WeilSpec
    workdir: Path
    in_path: Path
    n_inputs: int
    reference: Dict[str, dict]
    cache_path: Path


def weil_input_lines(spec: WeilSpec, seed: int) -> List[str]:
    """The workload's records as NDJSON lines, in an order the seed picks."""
    caps = dict(spec.record_max_power)
    lines = []
    for e in CORPUS:
        if spec.deep and len(e.coefficients) == 3:
            continue
        record = {"label": e.tag, "q": e.q, "coeffs": list(e.coefficients)}
        cap = caps.get(record_key(e.q, e.coefficients))
        if cap is not None:
            record["options"] = {"max_power": cap}
        lines.append(report.canonical_json(record))
    random.Random(seed).shuffle(lines)
    return lines


def setup_weil(name: str, seed: int, workdir: Path,
               cache_dir: Path, src_dir: Path) -> WeilContext:
    spec = WEIL_WORKLOADS[name]
    lines = weil_input_lines(spec, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    in_path = workdir / "input.ndjson"
    in_path.write_text("\n".join(lines) + "\n")
    cache_path = cache_dir / f"{store_digest(src_dir, lines)}.ndjson"
    return WeilContext(spec=spec, workdir=workdir,
                       in_path=in_path, n_inputs=len(lines),
                       reference=load_reference(), cache_path=cache_path)


def run_weil_pass(ctx: WeilContext, index: int,
                  sample_speed: bool = True) -> PassResult:
    store = ctx.workdir / f"store-{index}.ndjson"
    result = PassResult(attempted=ctx.n_inputs)

    def run(timer):
        saved = report.process_line

        def timed_process_line(raw, global_options, base, version):
            return timer.time_op(raw, saved, raw, global_options, base,
                                 version)

        report.process_line = timed_process_line
        try:
            report.run_batch(ctx.in_path, store, jobs=1, global_options={
                "max_power": ctx.spec.max_power})
        finally:
            report.process_line = saved

    _timed_pass(run, result, sample_speed)
    text = store.read_text()
    store.unlink()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    result.bytes_written = len(text.encode())
    result.store_lines = [ln for ln in lines
                          if json.loads(ln).get("record_type") != "manifest"]
    check_weil_store(ctx, lines, result)
    return result


def math_fields(rep: dict) -> dict:
    """The version-independent mathematical fields of a report that the
    reference holds, as plain ints; None where the report has none."""
    inv = rep.get("invariants") or {}
    hyp = rep.get("hypothesis")
    basis = inv.get("kernel_basis")

    def num(value):
        return None if value is None else int(value)

    return {"splitting_degree": num(inv.get("splitting_degree")),
            "galois_order": num((rep.get("galois") or {}).get("order")),
            "frobenius_rank": num(inv.get("frobenius_rank")),
            "kernel_basis": None if basis is None else
            [[int(x) for x in row] for row in basis],
            "verdict": hyp["verdict"] if hyp else None}


def _dims_ok(rep: dict, ref: Optional[dict], max_power: int,
             problems: List[str], tag: str) -> int:
    """Check every decomposition; returns how many the report holds."""
    decs = rep.get("decompositions")
    if decs is None:
        return 0
    seen = set()
    for dec in decs:
        dn = f"{int(dec['d'])},{int(dec['n'])}"
        seen.add(dn)
        dims = [int(x) for x in dec["dims"]]
        if sum(dims) != int(dec["total"]):
            problems.append(f"{tag} d,n={dn}: L+E+T {dims} != total "
                            f"{dec['total']}")
        if ref is not None and dn in ref["dims"] and ref["dims"][dn] != dims:
            problems.append(f"{tag} d,n={dn}: dims {dims} != reference "
                            f"{ref['dims'][dn]}")
    if ref is not None and ref["max_power"] >= max_power:
        missing = [dn for dn in ref["dims"]
                   if int(dn.split(",")[0]) <= max_power and dn not in seen]
        if missing:
            problems.append(f"{tag}: decompositions missing for d,n in "
                            f"{missing[:5]}")
    return len(decs)


def _check_report(rep: dict, ref: Optional[dict], max_power: int,
                  problems: List[str], tag: str) -> Tuple[bool, int]:
    """Checks one report record; returns (op failed, decompositions)."""
    start = len(problems)
    inv = rep.get("invariants") or {}
    undetermined = [name for name, reason
                    in rep["status"]["reasons"].items()
                    if reason != "NotSimple"]
    undetermined += inv.get("undetermined") or []
    try:
        kr, fr, re_ = (int(inv["kernel_rank"]), int(inv["frobenius_rank"]),
                       int(inv["rank_eig"]))
        if kr + fr + 1 != re_:
            problems.append(f"{tag}: kernel_rank {kr} + frobenius_rank {fr}"
                            f" + 1 != rank_eig {re_}")
    except (KeyError, TypeError):
        undetermined.append("invariants")
    n_decs = _dims_ok(rep, ref, max_power, problems, tag)
    if ref is not None:
        for name, value in math_fields(rep).items():
            if value != ref[name]:
                problems.append(f"{tag}: {name} {value!r} != reference "
                                f"{ref[name]!r}")
    return bool(undetermined) or len(problems) > start, n_decs


def check_weil_store(ctx: WeilContext, lines: List[str],
                     result: PassResult) -> None:
    """Checks a finished store; fills result.failed_ops / problems."""
    problems = result.problems
    records = [json.loads(ln) for ln in lines]
    manifests = [r for r in records if r.get("record_type") == "manifest"]
    body = [r for r in records if r.get("record_type") != "manifest"]
    if len(manifests) != 1 or records[-1].get("record_type") != "manifest":
        problems.append("store does not end in exactly one manifest line")
    if len(body) != ctx.n_inputs:
        problems.append(f"store holds {len(body)} records for "
                        f"{ctx.n_inputs} inputs")
    keys = [r["content_key"] for r in body]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append("store records are not unique and sorted by key")
    inputs = set()
    for rec in body:
        inp = rec.get("input") or {}
        rkey = record_key(inp["q"], inp["coeffs"])
        inputs.add(rkey)
        ref = ctx.reference.get(rkey)
        mp = int(rec["options"]["max_power"])
        tag = f"{rkey} ({inp.get('label')})"
        if rec["record_type"] == "error":
            result.failed_ops.append(
                f"{rec['content_key']} {tag}: {rec['error']['type']}: "
                f"{rec['error']['message']}")
            if ref is not None and ref["max_power"] >= mp:
                problems.append(f"{tag}: error record where the reference "
                                f"has a report: {rec['error']['type']}")
            continue
        failed, n_decs = _check_report(rec, ref, mp, problems, tag)
        result.decompositions += n_decs
        if failed:
            result.failed_ops.append(f"{rec['content_key']} {tag}")
    expected = {record_key(json.loads(ln)["q"], json.loads(ln)["coeffs"])
                for ln in ctx.in_path.read_text().splitlines()}
    if inputs != expected:
        problems.append("store inputs differ from the submitted inputs")


def check_against_cache(ctx: WeilContext, lines: List[str]) -> List[str]:
    """The store of this run against the store of the same sources made
    by an earlier run in this checkout, which had another seed.

    The seed only permutes the input order, so every seed must give the
    same store lines.  The first run in a checkout writes the store it
    made.
    """
    path = ctx.cache_path
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    if path.read_text().splitlines() != lines:
        return ["store differs from the store made with another seed"]
    return []


# --- quadforms workload ---

def _diag(entries) -> List[List[int]]:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)]
            for i in range(n)]


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _unimodular(rng: random.Random, n: int):
    """Integer matrix of determinant +-1 and its exact inverse, built
    from shears, so no library inverse is needed for the inputs.  Inputs
    stay integer matrices until the library converts them."""
    mat, inv = _diag([1] * n), _diag([1] * n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
        # (E_ij(c))^-1 = E_ij(-c), applied on the right of the inverse
        for row in inv:
            row[j] -= c * row[i]
    return mat, inv


def _congruent(c, diag_entries):
    return _mul(_transpose(c), _mul(_diag(diag_entries), c))


@dataclass(frozen=True)
class QfJob:
    kind: str
    n: int
    args: tuple
    expected: Tuple[int, int]     # signature known by construction


def _qf_job(rng: random.Random, kind: str, n: int, rep: int) -> QfJob:
    # The size of the exact arithmetic is set by the unimodular frames and
    # by the magnitudes of the diagonal entries and eigenvalues, so these
    # come from a stream fixed per kind and dimension and every seed costs
    # about the same.  The seed draws the signs (so the signature), the
    # order of side B's eigenvalues, the perturbed one and the job order.
    fixed = random.Random(f"frames {kind} {n} {rep}")
    mags = [fixed.randint(1, 5) for _ in range(n)]
    pos = rng.randint(0, n)
    signs = [1] * pos + [-1] * (n - pos)
    rng.shuffle(signs)
    scale = [m * s for m, s in zip(mags, signs)]
    expected = (pos, n - pos)
    c, c_inv = _unimodular(fixed, n)
    if kind == "signature":
        return QfJob(kind, n, (_congruent(c, scale),), expected)
    if kind == "certify":
        # criterion 08: u = u0^2 + eps*I with u0 = M^-1 S0 self-adjoint
        # for M; S0 = C^T D L C makes u0 = C^-1 L C, so its spectrum is
        # real at every dimension and no draw is rejected
        lam = [fixed.randint(1, 4) * rng.choice((-1, 1)) for _ in range(n)]
        u0 = _mul(c_inv, _mul(_diag(lam), c))
        u = _mul(u0, u0)
        eps = Fraction(1, fixed.randint(2, 9))
        for i in range(n):
            u[i][i] += eps
        return QfJob(kind, n, (_congruent(c, scale), u), expected)
    # transfer: side A positive definite, side B of signature `expected`,
    # both comparison endomorphisms conjugate to diag(lam)
    lam = fixed.sample(range(1, 4 * n), n)
    e, _ = _unimodular(fixed, n)
    a0 = _congruent(c, mags)
    a1 = _congruent(c, [m * x for m, x in zip(mags, lam)])
    lam_b = list(lam)
    rng.shuffle(lam_b)
    if kind == "transfer_perturbed":
        lam_b[rng.randrange(n)] += 4 * n      # one eigenvalue moved
    b0 = _congruent(e, scale)
    b1 = _congruent(e, [s * x for s, x in zip(scale, lam_b)])
    return QfJob(kind, n, (a0, a1, b0, b1), expected)


def quadforms_jobs(seed: int) -> List[QfJob]:
    """QF_REPEATS jobs of every kind at every dimension.  Each pass runs
    all of them, so every job is timed once per pass."""
    rng = random.Random(seed)
    return [_qf_job(rng, kind, n, rep) for n in QF_DIMS for kind in QF_KINDS
            for rep in range(QF_REPEATS)]


def _run_qf_job(job: QfJob) -> Optional[str]:
    """Runs one job; returns None when the outcome is the known one."""
    try:
        if job.kind == "signature":
            got = quadforms.signature(*job.args)
        elif job.kind == "certify":
            got = quadforms.constant_signature_certify(*job.args).signature
        else:
            res = quadforms.tannaka_transfer(*job.args)
            if job.kind == "transfer_perturbed":
                return "perturbed pair was not refused"
            got = res.signature
    except CharpolyMismatch:
        if job.kind == "transfer_perturbed":
            return None
        return "unexpected CharpolyMismatch"
    except FrobeigError as exc:
        return f"{type(exc).__name__}: {exc}"
    if tuple(got) != job.expected:
        return f"signature {tuple(got)} != {job.expected} by construction"
    return None


def run_quadforms_pass(jobs: List[QfJob], seed: int, index: int,
                       sample_speed: bool = True) -> PassResult:
    order = list(range(len(jobs)))
    random.Random(f"{seed} pass {index}").shuffle(order)
    result = PassResult(attempted=len(jobs))
    outcomes = {}

    def run(timer):
        for i in order:
            outcomes[i] = timer.time_op(str(i), _run_qf_job, jobs[i])

    _timed_pass(run, result, sample_speed)
    for i in order:
        if outcomes[i] is not None:
            job = jobs[i]
            result.failed_ops.append(f"{job.kind} n={job.n}: {outcomes[i]}")
            result.problems.append(f"{job.kind} n={job.n}: {outcomes[i]}")
    return result
