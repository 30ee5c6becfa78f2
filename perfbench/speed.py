"""Timing at reference speed: wall time rescaled by how fast the machine ran.

The benchmark runs on a few cores of a shared host. Neighbours slow it down
by up to 2x, in episodes that last from a fraction of a second to minutes, and
the slowdown shows up as CPU time of our own process, not as steal time. A
median over one run cannot remove an episode that covers the whole run. So
while a call runs, a SIGALRM handler runs a fixed kernel every PERIOD_S, and
the call's wall time (less the handler's) is multiplied by REFERENCE_S over
the kernel's mean time during the call: seconds at reference speed.

The kernel mixes the three kinds of work the workloads do: a 128 x 128
Hermitian ``eigh`` and the exponential rebuilt from it (LAPACK), the same on
11 x 11 matrices in a Python loop (numpy call overhead), and a pure-Python
loop of dict access and ``%.17g`` formatting. Each part alone tracked some
workloads' slowdowns and missed others; the sum tracked all three. The kernel
calls numpy and Python only, never susyinv, so a change to the program cannot
change it. Python runs the handler between two bytecodes of the main thread,
never inside a numpy call.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# About one warm kernel run (6-6.5 ms) on the quiet 2-core Xeon VM the benchmark
# was defined on. Only ratios between runs matter, so it stays fixed.
REFERENCE_S = 0.0065
PERIOD_S = 0.15       # sampling period during a timed call
READING_S = 0.2       # length of a reading taken between two set-up probes

_rng = np.random.default_rng(0)
_LARGE = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_LARGE = _LARGE + _LARGE.conj().T
_SMALL = _LARGE[:11, :11].copy()


def _exp_i(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-0.01j * w)) @ v.conj().T


def _kernel() -> None:
    _exp_i(_LARGE)
    for _ in range(20):
        _exp_i(_SMALL)
    row = {"t": 0.0}
    for i in range(1500):
        row["t"] = i * 0.001
        "%.17g" % row["t"]


def _sample() -> float:
    """Wall time of one kernel run. A first, untimed run refills the caches
    that the interrupted code used, so the program's memory use cannot move
    the reading."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def reading_s() -> float:
    """Mean of samples taken back to back for READING_S, for intervals that run
    in another process."""
    samples, end = [], time.perf_counter() + READING_S
    while time.perf_counter() < end:
        samples.append(_sample())
    return statistics.fmean(samples)


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s at reference speed, given readings just before and after it."""
    return wall_s * REFERENCE_S / math.sqrt(before_s * after_s)


class Timer:
    """Times a block, sampling the kernel every PERIOD_S while it runs.

    After the block, ``wall_s`` is its wall time less the time spent in the
    handler, and ``scaled_s`` is ``wall_s`` at reference speed. With
    ``sample=False`` no handler runs and ``scaled_s`` is None.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.wall_s = 0.0
        self.scaled_s: float | None = None
        self._samples: list[float] = []
        self._spans: list[tuple[float, float]] = []   # (start, duration) of each handler run

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(_sample())
        self._spans.append((start, time.perf_counter() - start))

    def __enter__(self) -> Timer:
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, 1e-6, PERIOD_S)   # first sample at once
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        if not self.sample:
            self.wall_s = end - self._start
            return
        signal.signal(signal.SIGALRM, self._previous)
        # A handler that ran after `end` is not in the interval.
        spent = sum(d for s, d in self._spans if self._start <= s < end)
        self.wall_s = end - self._start - spent
        samples = self._samples or [_sample()]   # a block too short to be sampled
        self.scaled_s = self.wall_s * REFERENCE_S / statistics.fmean(samples)
