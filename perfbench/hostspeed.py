"""Host speed, sampled between the operations of a run.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent within seconds, for all code alike: a fixed pure-Python
loop that takes 20 ms on a quiet host can take three times as long. The
timed run therefore times a fixed arithmetic kernel before every step of
the workload (about a tenth of the run) and reports each step's durations
scaled by REFERENCE_S / (median kernel time around that step): the
duration the step would have taken on a host where the kernel takes
REFERENCE_S. The raw figures are printed next to the scaled ones.

The kernel allocates nothing the cyclic garbage collector tracks, so the
size of the program's heap cannot change its time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.004
SHARE = 0.1
WARMUP_SAMPLES = 10
WINDOW_SAMPLES = 5


def kernel() -> int:
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


class HostSpeed:
    """Kernel timings in batches: batch j is taken just before step j, and
    the last batch after the last step."""

    def __init__(self):
        self.batches = [[]]
        self.spent = 0.0
        self.sample(WARMUP_SAMPLES)

    def sample(self, count: int = 1):
        for _ in range(count):
            start = perf_counter()
            kernel()
            elapsed = perf_counter() - start
            self.batches[-1].append(elapsed)
            self.spent += elapsed

    def keep_up(self, busy_s: float):
        """Sample at least once, and until sampling has taken SHARE of
        `busy_s`; then start the next batch."""
        self.sample()
        while self.spent < SHARE * busy_s:
            self.sample()
        self.batches.append([])

    def finish(self):
        self.sample(WARMUP_SAMPLES)

    def samples(self):
        return [s for batch in self.batches for s in batch]

    def kernel_ms(self) -> float:
        return statistics.median(self.samples()) * 1e3

    def scale(self) -> float:
        """Factor from measured to reference-host durations, whole run."""
        return REFERENCE_S / statistics.median(self.samples())

    def step_scale(self, j: int) -> float:
        """The factor for step j, from the batches just before and after
        it, widened until the window holds WINDOW_SAMPLES samples."""
        lo, hi = j, j + 2
        window = [s for batch in self.batches[lo:hi] for s in batch]
        while len(window) < WINDOW_SAMPLES and (lo > 0 or hi < len(self.batches)):
            lo, hi = max(lo - 1, 0), hi + 1
            window = [s for batch in self.batches[lo:hi] for s in batch]
        return REFERENCE_S / statistics.median(window)
