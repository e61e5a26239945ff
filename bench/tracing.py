"""Per-layer tracing from outside the program.

Each traced function is replaced, for the length of a traced pass, by a
wrapper that counts calls and measures total and self time.  The wrapper
is bound under every name the frobeig modules use for the function (for
``from .weil import validate`` that is ``report.validate``,
``eig.validate`` and so on), and methods are replaced on their class.
Self time is a call's duration minus the time spent in traced calls it
made; total time counts only the outermost call of a recursion.
"""

import functools
import subprocess
import sys
import time
from typing import Dict, List, Tuple

# layer function -> module that defines it (methods as Class.method)
TRACED = (
    "weil.validate", "weil.base_change",
    "splitfield.splitting_field", "splitfield.galois_group",
    "splitfield.ModRing.mul", "splitfield.SplittingField.ring",
    "eig.build_eig_group", "eig.invariants_report", "eig.frobenius_rank",
    "eig.realize_coords",
    "lefmot.classify_orbits", "lefmot.eigen_multiset",
    "lefmot.hypothesis_check", "lefmot.build_rho_table",
    "exactmath.roots.isolate_roots", "exactmath.roots.refine_roots",
    "exactmath.latt.relation_candidates", "exactmath.latt.lll_reduce",
    "quadforms.signature", "quadforms.charpoly_exact",
    "quadforms.spectrum_all_real_positive", "quadforms.mat_inverse",
    "quadforms.constant_signature_certify", "quadforms.tannaka_transfer",
    "report.process_line", "report.build_report_record",
    "report.canonical_json", "report.run_batch",
)

SOURCE_MODULES = ("weil", "splitfield", "eig", "lefmot", "quadforms",
                  "report", "exactmath.roots", "exactmath.latt",
                  "exactmath.balls", "exactmath.intpoly")

# the generic g=4 octic of the scaling probe: q and ascending coefficients
G4_OCTIC = (2, (16, 16, 24, 18, 17, 9, 6, 2, 1))
PROBE_TIMEOUT_S = 10.0
PROBE_MEMORY_BYTES = 1 << 30


def _resolve(name: str):
    """(owner, attribute, is_method) for a TRACED name."""
    import importlib
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module("frobeig." + ".".join(parts[:cut]))
        except ImportError:
            continue
        owner = module
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1], owner is not module
    raise ImportError(f"cannot resolve {name}")


class Tracer:
    """Call counts, self and total seconds per TRACED function."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {n: [0, 0.0, 0.0]
                                              for n in TRACED}
        self._stack: List[float] = []        # child time of open calls
        self._depth: Dict[str, int] = {n: 0 for n in TRACED}
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats, stack, depth = self.stats[name], self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            outer = depth[name] == 0
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                stats[0] += 1
                stats[1] += dt - stack.pop()
                if outer:
                    stats[2] += dt
                if stack:
                    stack[-1] += dt
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "frobeig" or key.startswith("frobeig.")]
        for name in TRACED:
            owner, attr, is_method = _resolve(name)
            orig = owner.__dict__[attr] if is_method else getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            holders = [owner] if is_method else [
                m for m in modules if getattr(m, attr, None) is orig]
            for holder in holders:
                self._undo.append((holder, attr, orig))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)


def run_g4_probe(run_py: str) -> Tuple[float, bool]:
    """Seconds splitting_field took on the generic g=4 octic in a child
    process, and whether it returned before PROBE_TIMEOUT_S."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, run_py, "--g4-probe"],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=PROBE_TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        done = False
    return time.perf_counter() - t0, done


def g4_probe_child() -> int:
    """Body of the probe process: a memory cap, then splitting_field.
    An answer counts, DegreeCapExceeded included."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS,
                       (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))
    from frobeig.errors import FrobeigError
    from frobeig.splitfield import splitting_field
    from frobeig.weil import validate
    q, coeffs = G4_OCTIC
    try:
        splitting_field(validate(q, list(coeffs)))
    except FrobeigError:
        pass
    return 0
