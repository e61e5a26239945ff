#!/usr/bin/env python3
"""Benchmark for frobeig: end-to-end numbers per workload, and per-layer
numbers from a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads are corpus, deep-grid and quadforms (see BENCHMARK.json for
why each was chosen).  All are closed loops with one client.  A run makes
whole passes while the next one is expected to end within --seconds, and
always at least one; a Weil pass is one full batch, so a pass that takes
longer than --seconds makes the run that long.

Every reported time is scaled to a reference host speed, measured with a
fixed loop while the timed work runs (see hostspeed.py); the raw times
are printed in the table.  --trace 0 prints the end-to-end metrics.
--trace 1 repeats the same passes with every layer function wrapped (see
tracing.py), with host-speed samples only around each pass, prints the
per-layer metrics next to the untraced numbers, and runs the g=4 scaling
probe.  Every output is checked; the last line of standard output is
one JSON object, and the exit code is 1 when a check failed.  Scratch
files go to .bench_run/ in the current directory.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# set-up samples taken before and again after the measured passes; the
# machine's speed changes over seconds, so samples spread in time give a
# steadier median
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--g4-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_dir(label: str) -> Path:
    return Path.cwd() / ".bench_run" / f"{label}-{os.getpid()}"


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first op: inputs from the seed, a store
    directory, the check reference."""
    import workloads
    if workload == "quadforms":
        return workloads.quadforms_jobs(seed)
    return workloads.setup_weil(workload, seed, workdir,
                                Path.cwd() / ".bench_run" / "stores", SRC)


def setup_child(args) -> int:
    workdir = run_dir("setup")
    try:
        setup(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int, warm_up: bool):
    """(raw, scaled) seconds from process start to the first op, in
    SETUP_SAMPLES fresh processes (after one more that fills the bytecode
    cache).  Each is scaled by reference-loop timings taken just before
    and after it."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES + warm_up):
        loops = [hostspeed.reference_loop() for _ in range(3)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed: {proc.returncode}")
        loops += [hostspeed.reference_loop() for _ in range(3)]
        factor = hostspeed.REFERENCE_LOOP_S / statistics.median(loops)
        samples.append((elapsed, elapsed * factor))
    return samples[warm_up:]


def run_passes(run_one, seconds: float, count=None):
    """Whole passes while the next one should end within `seconds`, or
    exactly `count` passes."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        if count is not None:
            if len(passes) == count:
                return passes
        elif time.perf_counter() - t0 + passes[-1].wall_s > seconds:
            return passes


def hd_quantile(values, k: int) -> float:
    """Harrell-Davis estimate of the quantile at the k-th of n order
    statistics (1-based): the Beta(k, n+1-k) weighted mean of all of
    them.  Unlike the k-th order statistic alone it does not jump across
    a gap between clusters of op costs when noise reorders a few ops."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = k, n + 1 - k
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64                        # midpoint rule per order statistic
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            x = (i * steps + j + 0.5) * h
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                          - log_beta)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies):
    """(value, percentile, samples, samples above) at the highest order
    statistic with at least ten samples above it, or at the maximum when
    there are too few."""
    n = len(latencies)
    k = n - 10 if n >= 11 else n
    return hd_quantile(latencies, k), 100.0 * k / n, n, n - k


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def op_latencies_ms(passes, raw=False):
    """Each op's latency: the median of its timings, one per pass."""
    timings = {}
    for p in passes:
        for op, seconds in (p.op_raw_s if raw else p.op_latency_s).items():
            timings.setdefault(op, []).append(seconds)
    return [statistics.median(t) * 1000.0 for t in timings.values()]


def end_to_end(passes, setup_samples, rss_mb):
    lat_ms = op_latencies_ms(passes)
    raw_ms = op_latencies_ms(passes, raw=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed_ops) for p in passes)
    tail_ms, pct, n, above = tail(lat_ms)
    wall_s = statistics.median(p.wall_s for p in passes)
    raw_wall_s = statistics.median(p.raw_wall_s for p in passes)
    raw_setup_s = statistics.median(raw for raw, _ in setup_samples)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (passes[0].attempted / wall_s, "1/s"),
        "op_p50_ms": (hd_quantile(lat_ms, (len(lat_ms) + 1) / 2), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes; "
                   f"raw {raw_setup_s:.4g} s",
        "wall_s": f"median of {len(passes)} pass(es); raw {raw_wall_s:.4g} s",
        "ops_per_s": f"{passes[0].attempted} ops per pass over wall_s; "
                     f"raw {passes[0].attempted / raw_wall_s:.4g} 1/s",
        "op_p50_ms": f"Harrell-Davis median of {len(lat_ms)} ops, each "
                     f"the median of {len(passes)} timing(s); raw "
                     f"{hd_quantile(raw_ms, (len(raw_ms) + 1) / 2):.4g} ms",
        "op_tail_ms": f"Harrell-Davis estimate at p{pct:.1f} of {n} ops, "
                      f"{above} above it; raw {tail(raw_ms)[0]:.4g} ms",
        "ok_ratio": f"failed_ratio {failed}/{attempted} = "
                    f"{failed / attempted:.4f}",
        "peak_rss_mb": "largest of this process and its children",
    }
    return metrics, notes, attempted, failed


def per_layer(tracer, passes, untraced, probe, src_dir):
    """Per-layer numbers of the traced passes, with the overhead of
    tracing against the untraced passes."""
    import tracing
    out = {}
    for name in tracing.TRACED:
        calls, self_s, total_s = tracer.stats[name]
        out[f"{name}.calls"] = (int(calls), "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.total_s"] = (total_s, "s")
    records = sum(p.attempted for p in passes if p.store_lines is not None)
    decs = sum(p.decompositions for p in passes)

    def calls(name):
        return tracer.stats[name][0]

    def ratio(num, base):
        return (num / base if base else 0.0, "ratio")

    out["trace.records"] = (records, "count")
    out["trace.decompositions"] = (decs, "count")
    out["splitfield.splitting_field.per_record"] = ratio(
        calls("splitfield.splitting_field"), records)
    out["weil.validate.per_record"] = ratio(calls("weil.validate"), records)
    out["eig.relation_engine.per_record"] = ratio(
        calls("eig.invariants_report") + calls("eig.frobenius_rank"), records)
    out["splitfield.SplittingField.ring.per_record"] = ratio(
        calls("splitfield.SplittingField.ring"), records)
    out["lefmot.classify_orbits.per_decomposition"] = ratio(
        calls("lefmot.classify_orbits"), decs)
    out["report.bytes_written"] = (sum(p.bytes_written for p in passes), "B")
    for module in tracing.SOURCE_MODULES:
        path = src_dir / "frobeig" / (module.replace(".", "/") + ".py")
        out[f"{module}.src_lines"] = (len(path.read_text().splitlines()),
                                      "lines")
    out["src.lines"] = (sum(len(p.read_text().splitlines())
                            for p in src_dir.rglob("*.py")), "lines")
    untraced_wall = sum(p.wall_s for p in untraced)
    traced_wall = sum(p.wall_s for p in passes)
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    out["host.ref_loop_ms"] = (1000.0 * statistics.median(
        p.ref_loop_s for p in untraced), "ms")
    out["probe.g4_octic_s"] = (probe[0], "s")
    out["probe.g4_octic_completed"] = (int(probe[1]), "count")
    return out


def print_table(title, metrics, notes=None):
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"   ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:<48} {value:>14.6g} {unit:<6}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frobeig" / "__init__.py").is_file():
        print(f"no frobeig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.g4_probe:
        import tracing
        return tracing.g4_probe_child()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"--workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_child(args)

    setup_samples = measure_setup(args.workload, args.seed, warm_up=True)
    workdir = run_dir("run")
    try:
        return measure(args, workloads, workdir, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workdir, setup_samples) -> int:
    ctx = setup(args.workload, args.seed, workdir)
    weil = args.workload != "quadforms"

    def run_one(index, sample_speed=True):
        if weil:
            return workloads.run_weil_pass(ctx, index, sample_speed)
        return workloads.run_quadforms_pass(ctx, args.seed, index,
                                            sample_speed)

    passes = run_passes(run_one, args.seconds)
    rss = peak_rss_mb()
    setup_samples += measure_setup(args.workload, args.seed, warm_up=False)
    problems = [p for r in passes for p in r.problems]
    metrics, notes, attempted, failed = end_to_end(passes, setup_samples, rss)
    traced = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(lambda i: run_one(i, sample_speed=False), 0,
                                count=len(passes))
        finally:
            tracer.uninstall()
        problems += [p for r in traced for p in r.problems]
        probe = tracing.run_g4_probe(str(Path(__file__).resolve()))
    all_passes = passes + traced
    if weil:
        first = all_passes[0].store_lines
        if any(p.store_lines != first for p in all_passes):
            problems.append("passes of one run wrote different stores")
        elif not problems:
            problems += workloads.check_against_cache(ctx, first)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  ops/pass {passes[0].attempted}")
    print_table("end-to-end, tracing off:", metrics, notes)
    failed_ops = sorted({op for r in all_passes for op in r.failed_ops})
    for op in failed_ops:
        print(f"  failed op: {op}")
    if args.trace:
        layer = per_layer(tracer, traced, passes, probe, SRC)
        print_table("per layer, traced run of the same passes "
                    "(calls, self and total seconds):", layer,
                    {"probe.g4_octic_s":
                     "returned" if probe[1] else
                     f"timeout at {tracing.PROBE_TIMEOUT_S:g} s",
                     "trace.overhead_ratio":
                     "traced_wall_s / untraced_wall_s"})
        attempted = sum(p.attempted for p in traced)
        failed = sum(len(p.failed_ops) for p in traced)
        reported = layer
    else:
        reported = metrics
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
