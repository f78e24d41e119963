"""Host-speed sampling and normalisation of timed intervals.

A SIGALRM interval timer runs the frozen reference loop every ``PERIOD_S``
seconds, also in the middle of a fairkit call, so the loop's speed is known
across every timed interval, however long.  The time the handler takes is
counted in ``stolen_ns`` and subtracted from the intervals it fell into.

The host's speed moves in steps that last from 0.1 s to seconds, while a
single loop sample also carries about 10% of uncorrelated noise.  An
interval is therefore scaled by the median of the samples taken within
``WINDOW_NS`` of it, not by the one sample next to it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from refloop import NOMINAL_NS, ref_loop

PERIOD_S = 0.02
WINDOW_NS = 250_000_000
MIN_SAMPLES = 20

clock_ns = time.perf_counter_ns


class SpeedSampler:
    """Collects reference-loop samples while running; single-threaded."""

    def __init__(self):
        self.times: list = []
        self.durations: list = []
        self.stolen_ns = 0

    def _handler(self, signum, frame):
        t0 = clock_ns()
        ref_loop()
        t1 = clock_ns()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.stolen_ns += clock_ns() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Nominal-over-measured speed factor for one interval."""
        lo = bisect.bisect_left(self.times, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.times, end_ns + WINDOW_NS)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo = max(0, lo - 1)
            hi = min(len(self.times), hi + 1)
        if hi == lo:
            raise RuntimeError("no reference-loop samples were taken")
        return NOMINAL_NS / statistics.median(self.durations[lo:hi])

    def spread(self) -> dict:
        """Raw reference-loop figures, so a slow or noisy host shows."""
        q1, q2, q3 = statistics.quantiles(self.durations, n=4)
        return {
            "samples": len(self.durations),
            "nominal_us": NOMINAL_NS / 1e3,
            "median_us": q2 / 1e3,
            "q1_us": q1 / 1e3,
            "q3_us": q3 / 1e3,
            "iqr_share": (q3 - q1) / q2,
        }


class Stopwatch:
    """Times one interval net of the sampler's handler time."""

    __slots__ = ("sampler", "start", "end", "stolen0", "net_ns")

    def __init__(self, sampler: SpeedSampler):
        self.sampler = sampler

    def __enter__(self):
        self.stolen0 = self.sampler.stolen_ns
        self.start = clock_ns()
        return self

    def __exit__(self, *exc):
        self.end = clock_ns()
        self.net_ns = self.end - self.start - (self.sampler.stolen_ns - self.stolen0)
        return False
