"""Machine-speed calibration of the benchmark's timings.

The measured machine is a few vCPUs of a shared host, and its speed
changes by tens of per cent for seconds to minutes at a time, with
process CPU time moving together with wall time.  So a fixed piece of
reference work, timed next to every operation, tells how fast the
machine is running at that moment.  An operation's calibrated latency is
its wall time scaled to a machine on which the reference work takes
NOMINAL_S:

    calibrated = wall * NOMINAL_S / (reference time around the operation)

A change to kobex moves the wall time and not the reference time, so it
moves the calibrated figure by the same share.  The reference work is
interpreted float arithmetic and one numpy pass over 4 MiB of complex
numbers, in about equal shares of its time: of the mixes tried, this one
followed the speed of the scenario and batch operations most closely.
(Numpy calls on tiny arrays followed it worst.)
"""

import math
import time

import numpy as np

NOMINAL_S = 0.004   # the reference work's median time on the measured machine

_rng = np.random.default_rng(12345)
_LARGE = _rng.random((131072, 2)) + 1j * _rng.random((131072, 2))   # 4 MiB


def _reference_work():
    s = 0.0
    for i in range(20000):
        s += math.sqrt(i) * 0.5
    s += float(np.abs(_LARGE * 1.0001).sum())
    return s


def reference_s():
    """Wall time of one run of the reference work."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def timed(fn, *args, **kwargs):
    """(fn's result, its wall time, the reference time around it).

    The reference time is the mean of one run of the reference work just
    before the call and one just after; neither is part of the wall time.
    """
    before = reference_s()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return out, wall, 0.5 * (before + reference_s())


def calibrated(wall, reference):
    return wall * NOMINAL_S / reference
