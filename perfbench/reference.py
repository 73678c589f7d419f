"""Host-speed reference that the benchmark's timings are scaled by.

The benchmark runs on shared machines. Their speed for the same
interpreter-bound work drifts by up to 2x over minutes, which is far more
than the regressions the benchmark must catch. The benchmark times this fixed
work, which calls nothing in dbvsim, between its operations (and in each
set-up probe) to measure the host's current speed. It then reports every
timing at the speed at which the work takes NOMINAL_S. A change to dbvsim
does not change the reference, so it still moves the scaled timings in full.
"""

import time

import numpy as np

#: Time of one work() call at the nominal host speed; fixed, so that scaled
#: timings from different runs and commits compare.
NOMINAL_S = 0.0025

#: Reference calls timed around each set-up probe, in the probe and in the
#: benchmark; the first SETUP_WARMUP_CALLS of each are not used.
SETUP_CALLS = 20
SETUP_WARMUP_CALLS = 3

_POLY, _TOP = (1 << 64) | 0x1B, 1 << 64
_ARRAY = np.random.default_rng(0).normal(size=1 << 15)


def work() -> float:
    """About two thirds interpreter-bound (a GF(2^64) bit-loop multiply, as in
    the MAC, and dict updates, as in per-trial bookkeeping), one third numpy
    passes over a 256 KiB array (as in the channel layer)."""
    a = 0x9E3779B97F4A7C15
    for _ in range(40):
        x, y, r = a, 0xC2B2AE3D27D4EB4F, 0
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x & _TOP:
                x ^= _POLY
        a = r | 1
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i & 511] = counts.get(i & 511, 0) + 1
    ordered = np.sort(_ARRAY)
    return float((ordered * 1.5 + _ARRAY >= 0).sum()) + a % 7 + len(counts)


def at_nominal(seconds: float, ref_seconds: float, exponent: float = 1.0) -> float:
    """A time measured while work() took ref_seconds, at the nominal host speed.

    exponent is how strongly the timed code follows the host's speed relative
    to work(): its time goes as ref_seconds**exponent.  Code made of many
    small interpreted calls slows more than work() on a contended core.
    """
    return seconds * (NOMINAL_S / ref_seconds) ** exponent


def call_times(calls: int) -> list[float]:
    """Wall time of each of ``calls`` consecutive work() calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return times


def seconds() -> float:
    """Wall time of one work() call."""
    return call_times(1)[0]
