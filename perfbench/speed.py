"""Machine-speed probe that turns measured times into reference-speed times.

On a few shared cores the host's speed moves by a third or more in
phases of tens of seconds, while the benchmark process gets no less CPU
time (both wall and process time stretch, and no steal time shows).
Such a phase can outlast a whole run, so no statistic over one run's
calls removes it. The benchmark therefore runs a fixed probe between
calls: a small mix of the work svdet does (FFTs, medians, small
matrix-vector products with tanh, an interpreter loop) that uses no
svdet code, so no change to svdet can change it. A call's time is scaled
by REFERENCE_S over the mean of the probes just before and just after
it: the time the call would have taken while the probe took REFERENCE_S.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the probe's time on a 2-vCPU Xeon guest at 2.1 GHz, one BLAS thread.
REFERENCE_S = 0.008
PROBE_REPS = 8

_rng = np.random.default_rng(0)
_FRAMES = _rng.standard_normal((256, 1024))
_WEIGHTS = 0.1 * _rng.standard_normal((128, 128))
_STATE = _rng.standard_normal(128)


def _probe_once() -> float:
    start = perf_counter()
    mag = np.abs(np.fft.rfft(_FRAMES, axis=1))
    np.median(mag.reshape(8, 32, -1), axis=0)
    h = _STATE
    for _ in range(200):
        h = np.tanh(_WEIGHTS @ h)
    acc = 0
    for i in range(15000):
        acc += i * i
    return perf_counter() - start


def probe() -> float:
    """Median time of a few probe repetitions, seconds."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPS))


class SpeedClock:
    """Times calls and scales each by the probes on either side of it."""

    def __init__(self):
        _probe_once()  # first-use costs (FFT plans, allocations) stay out
        self.last = probe()
        self.probes = [self.last]

    def time(self, fn):
        """Runs fn(); returns (its result, raw seconds, reference seconds)."""
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        before, self.last = self.last, probe()
        self.probes.append(self.last)
        return result, raw, raw * REFERENCE_S / ((before + self.last) / 2.0)
