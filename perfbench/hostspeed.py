"""Host-speed sampling for normalising wall times.

On a shared virtual machine the speed of a vCPU moves by 1.3-1.9x, in states
that last from milliseconds to minutes; a whole run can sit in one state.
While a phase is timed, a ``Sampler`` runs a fixed piece of reference work of
the same kind as the workloads (object attribute scans, list building, small
numpy calls) from a ``SIGALRM`` interval timer, or between the calls being
timed, so the samples spread evenly over the phase. Each stretch of program time between two samples is then
divided by how much slower than ``REFERENCE_S`` the reference work ran
around it; the time spent sampling is left out.

The timer interrupts the single benchmark thread between bytecodes; no
thread or process is started. The reference work never calls the program
under test, so a change to the program moves the timed phase and not the
samples.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Seconds one reference unit takes, sampled inside a workload, on a 2-vCPU
# Xeon VM (2.0 GHz, Python 3.11, numpy 2.4). Only the ratio to it matters:
# it sets the scale of the normalised times, not their spread.
REFERENCE_S = 0.00072
INTERVAL_S = 0.01  # between samples from the timer
TICK_INTERVAL_S = 0.002  # between samples taken by tick()
UNITS = 1  # reference units per sample


class _Sample:
    __slots__ = ("t", "value")

    def __init__(self, t: float, value: float):
        self.t = t
        self.value = value


_SAMPLES = [_Sample(float(i), float(i % 17)) for i in range(400)]
_W = np.linspace(-1.0, 1.0, 64 * 25).reshape(64, 25)
_V = np.linspace(0.0, 1.0, 8 * 64).reshape(8, 64)


def _unit() -> float:
    """One unit of reference work; returns a value so nothing is skipped."""
    acc = 0.0
    hist = [0.0] * 8
    for k in range(12):
        times = [s.t for s in _SAMPLES]
        idx = int(np.searchsorted(times, 3.5 + 31.0 * k, side="right")) - 1
        hist = hist[1:] + [_SAMPLES[idx].value / 17.0]
        x = np.array(hist + hist + hist + [0.5], dtype=float)
        h = np.maximum(_W @ x, 0.0)
        z = _V @ h
        p = np.exp(z - z.max())
        acc += float(p[0] / p.sum())
    return acc


class Sampler:
    """Samples host speed while the ``with`` block runs: every ``INTERVAL_S``
    from a ``SIGALRM`` timer, or, with ``interrupt=False``, when ``tick()``
    is called and ``TICK_INTERVAL_S`` has passed.

    The samples cut the block into segments of program time. A segment's
    slowdown is the mean unit time of the samples on either side of it over
    ``REFERENCE_S``; one more sample is taken on exit, so every segment has
    one after it. ``scaled(t0, t1)`` is the program time between two
    ``perf_counter`` readings, each segment divided by its slowdown.
    """

    def __init__(self, interrupt: bool = True):
        self.interrupt = interrupt
        self.starts: list[float] = []  # segment starts: entry, then each sample's end
        self.ends: list[float] = []    # segment ends: each sample's start
        self.units: list[float] = []   # unit time of each sample
        self._slowdowns: list[float] = []
        self._previous = None

    def _sample(self, *_):
        clock = time.perf_counter
        t0 = clock()
        for _ in range(UNITS):
            _unit()
        t1 = clock()
        self.ends.append(t0)
        self.units.append((t1 - t0) / UNITS)
        self.starts.append(t1)

    def tick(self) -> None:
        """Sample if ``TICK_INTERVAL_S`` has passed since the last sample; for a
        block that calls this between the calls it times instead of being
        interrupted."""
        if time.perf_counter() - self.starts[-1] >= TICK_INTERVAL_S:
            self._sample()

    def __enter__(self) -> Sampler:
        self.starts.append(time.perf_counter())
        if self.interrupt:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.starts.pop()  # no segment after the exit sample
        u = self.units
        self._slowdowns = [(u[k] if k == 0 else 0.5 * (u[k - 1] + u[k])) / REFERENCE_S
                           for k in range(len(u))]

    def scaled(self, t0: float, t1: float) -> float:
        total = 0.0
        k = max(0, bisect.bisect_right(self.starts, t0) - 1)
        while k < len(self.starts) and self.starts[k] < t1:
            overlap = min(self.ends[k], t1) - max(self.starts[k], t0)
            if overlap > 0.0:
                total += overlap / self._slowdowns[k]
            k += 1
        return total
