"""Host speed, measured with a fixed reference loop while the ops run.

On a shared host the CPU's speed can drift by 1.4x over seconds to
minutes (measured on a 2-vCPU 2.0 GHz Intel Xeon VM); the drift is in
the CPU's own speed (CPU time tracks wall time), so longer runs do not
average it out.  While a pass runs, an interval timer therefore
interrupts it every INTERVAL_S to time a short, fixed pure-Python loop,
and each op's time is scaled by

    REFERENCE_LOOP_S / (median of the loop's timings during the op)

which gives the time the op would have taken on a host where the loop
takes REFERENCE_LOOP_S.  The loop's own time is taken out of every op
and of the wall time.  The loop mixes small-integer arithmetic in the
interpreter with big-integer products and remainders, the kinds of work
that dominate the program; of the loops tried it tracked the drift of
both the Weil pipeline and the Fraction-heavy quadforms jobs best.  It is
the benchmark's own code, so a change to the program cannot change it.
The raw times are printed next to the scaled ones.  The interruptions
also cost the program some cache state; a traced pass, which is not
interrupted, runs about 5-10% faster than its scaled untraced pass.

A traced pass takes its samples just before and after it instead, so
that no per-layer time holds the loop.
"""

import signal
import statistics
import time
from typing import List, Tuple

# about the median of reference_loop() on a 2-vCPU 2.0 GHz Intel Xeon VM
REFERENCE_LOOP_S = 0.010
# time between samples while a pass runs
INTERVAL_S = 0.2
# an op with fewer samples inside it uses this many nearest to it
NEIGHBOURS = 5


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small- and big-integer work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    x, y = 3 ** 400, 7 ** 390
    for i in range(2_000):
        s ^= (x * y + i) % 1_000_003
    return time.perf_counter() - t0


class SpeedLog:
    """Reference-loop samples taken while a pass runs, from a SIGALRM
    interval timer, or only around it; use as a context manager around
    the pass."""

    def __init__(self, during: bool = True):
        self.during = during
        self.samples: List[Tuple[float, float]] = []   # (start, end)
        self._saved_handler = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedLog":
        if not self.during:
            for _ in range(NEIGHBOURS):
                self.sample()
            return self
        self._saved_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.during:
            for _ in range(NEIGHBOURS):
                self.sample()
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self.sample()

    def loop_time_in(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in samples."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.samples)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_LOOP_S over the median sample inside [t0, t1], or
        over the median of the NEIGHBOURS samples nearest to it."""
        inside = [(a, b) for a, b in self.samples if t0 <= a and b <= t1]
        if len(inside) < NEIGHBOURS:
            mid = (t0 + t1) / 2
            inside = sorted(self.samples,
                            key=lambda s: abs(s[0] + s[1] - 2 * mid))
            inside = inside[:NEIGHBOURS]
        return REFERENCE_LOOP_S / statistics.median(b - a for a, b in inside)

    def median_loop_s(self) -> float:
        return statistics.median(b - a for a, b in self.samples)
