"""Operation times at one fixed host speed, from a reference loop sampled while they run.

The CPU speed one process sees on a small shared virtual machine swings, from
outside the machine, between a fast and a slow state within fractions of a
second, and the share of time spent slow drifts over minutes by up to 1.8x.
Wall time then says as much about the host as about the program. So while an
interval is timed, a ``SIGALRM`` timer fires every ``PERIOD_S`` seconds and the
handler times ``reference_loop``, a fixed pure-Python loop that does not touch
powerwise; one more sample is taken just before the interval starts.

An interval's time at the reference speed is its wall time, minus the time the
samples took, times the mean of ``REFERENCE_S / sample``: the host's mean speed
over the interval relative to a host on which the loop takes ``REFERENCE_S``.
A program that does more work still reads slower by the same share; a host
that runs everything slower does not.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

REFERENCE_S = 0.001  # the loop's time at the reference speed
PERIOD_S = 0.1


def reference_loop() -> int:
    """Fixed interpreter work of the kinds powerwise does: dict updates, float sums, a keyed sort."""
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(2500):
        k = (i * 7919) % 211
        counts[k] = counts.get(k, 0) + 1
        total += (i % 7) * 0.5
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[0][0] + int(total)


def sample() -> float:
    """Seconds ``reference_loop`` takes now, with the collector held off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t
    finally:
        if collecting:
            gc.enable()


@dataclass
class Timing:
    """One timed interval: wall seconds without the sampling, and seconds at the reference speed."""

    wall_s: float = 0.0
    ref_s: float = 0.0
    samples: int = 0


class Gauge:
    """Times intervals in the main thread; installs a ``SIGALRM`` handler for the process."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each sample
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, sample()))

    def sampling_s(self, t0: float, t1: float) -> float:
        """Seconds spent sampling between ``t0`` and ``t1``."""
        return sum(s for start, s in self.samples if t0 <= start <= t1)

    @contextmanager
    def timed(self):
        """Time the body; the yielded ``Timing`` is filled in when it ends, also on an exception."""
        timing = Timing()
        self.samples = [(time.perf_counter(), sample())]
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            speeds = [REFERENCE_S / s for start, s in self.samples if start <= t1]
            timing.wall_s = t1 - t0 - self.sampling_s(t0, t1)
            timing.ref_s = timing.wall_s * sum(speeds) / len(speeds)
            timing.samples = len(speeds)
