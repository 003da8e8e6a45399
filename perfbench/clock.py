"""Calibrated time: wall seconds corrected for the speed of the host.

On a shared host the same Python code runs fast for a while and then a
third to a half slower for seconds or minutes, as other tenants come and
go; a fixed item can take anywhere from 1x to 1.6x its best time.  Runs
that land in different phases then disagree far more than any change to
gcb would move them.  To take that out, the benchmark runs a fixed
reference unit of work (``reference_unit``, no gcb code) every
PROBE_EVERY_S seconds between items, and scales each item's wall time by
REFERENCE_S over the median reference time measured around it:

    calibrated seconds = wall seconds * REFERENCE_S / median reference time

A calibrated second is the wall second of a host on which the reference
unit takes REFERENCE_S.  gcb work that gets faster shows in full, because
the reference unit does not change with gcb.  The wall times are kept in
each run's record next to the calibrated ones.

The reference unit is half interpreter work (dicts, tuples, int and
Fraction arithmetic, float math, a sort) and half small-array numpy
calls, the two kinds of work the workloads do.  Against items of all four
workloads, interleaved with it across slow and fast phases, the item time
moved by 0.8 to 1.1 times the reference time; the interpreter half alone
tracked the numpy-heavy workloads less well.
"""

from __future__ import annotations

import math
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 0.02    # nominal seconds of one reference unit
PYTHON_LOOPS = 10000  # interpreter half of the reference unit
NUMPY_LOOPS = 750     # numpy half of the reference unit
PROBE_EVERY_S = 0.3   # wall seconds between two probes in a run
WINDOW_S = 1.0        # probes this close to an item calibrate it
MIN_PROBES = 5        # widen the window until it holds this many
SETUP_PROBES = 8      # probes after a set-up


def _python_work(loops: int) -> int:
    table = {}
    acc = Fraction(0)
    x = 0.0
    rows = []
    for i in range(loops):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i
        if i % 8 == 0:
            acc += Fraction(i % 13 + 1, i % 11 + 1)
        x += math.exp(-(i % 50) / 10.0)
        rows.append((i * 7919) % 1009)
    rows.sort()
    return len(table) + acc.numerator % 7 + int(x) % 5 + rows[len(rows) // 2]


def _numpy_work(loops: int) -> float:
    import numpy as np

    m = np.full((6, 6), 0.1) + 6.0 * np.eye(6)
    x = np.ones(6)
    for _ in range(loops):
        x = np.linalg.solve(m, np.exp(-x)) + 1e-3 * x.sum()
    return float(x[0])


def reference_unit() -> float:
    """The fixed work a probe times."""
    return _python_work(PYTHON_LOOPS) + _numpy_work(NUMPY_LOOPS)


class Clock:
    """Reference probes along a run, and the scale they give each span."""

    def __init__(self):
        reference_unit()  # the first call imports numpy and warms caches
        self.starts, self.seconds = [], []
        self.last = -math.inf

    def probe(self) -> None:
        t0 = time.perf_counter()
        reference_unit()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)
        self.last = t0

    def maybe_probe(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe within WINDOW_S of [start, end]
        (the window widens until it holds MIN_PROBES probes)."""
        if not self.seconds:
            raise ValueError("no reference probes were taken")
        width = WINDOW_S
        while True:
            lo = bisect_left(self.starts, start - width)
            hi = bisect_right(self.starts, end + width)
            if hi - lo >= min(MIN_PROBES, len(self.seconds)):
                return REFERENCE_S / statistics.median(self.seconds[lo:hi])
            width *= 2

    def host_speed(self) -> float:
        """REFERENCE_S over the median probe of the whole run."""
        return REFERENCE_S / statistics.median(self.seconds)


def calibrated_setup(setup):
    """Run ``setup()``, then SETUP_PROBES probes (after it, so that its
    imports stay inside it); returns (its result, calibrated seconds,
    wall seconds)."""
    t0 = time.perf_counter()
    result = setup()
    wall = time.perf_counter() - t0
    clock = Clock()
    for _ in range(SETUP_PROBES):
        clock.probe()
    return result, wall * REFERENCE_S / statistics.median(clock.seconds), wall
