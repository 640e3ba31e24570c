"""Host speed, measured by a fixed calibration kernel run between tasks.

On a shared host the same code runs up to 40% slower while other tenants
load the machine, and the share of slow time drifts over minutes, so raw
times of the same code differ from one run to the next by more than a
benchmark bound can allow.  The calibration unit is fixed work that does not
use gpclab: a pure-Python loop and a run of small numpy calls, and for a
workload that asks for it, a streaming pass over 8 MB.  Units run between
tasks, in all about ``SHARE`` of the time the tasks take, so their mean time
follows the host's mean speed over the same minutes.  Dividing a time by
``factor()`` gives it in reference seconds: seconds on a host where one unit
takes its reference time.  A change to gpclab changes the task times and not
the units, so it shows in full.

Which workloads stream was decided by measurement, ten seeds per workload
with and without the streaming part on a shared 2-CPU host: it cut the
spread (interquartile range over median) of decoder_crosscheck's wall time
from 0.11 raw to 0.04, where without it the spread rose from 0.07 raw to
0.10; on the other three it left spreads of 0.07 to 0.11, and without it
they fell to 0.03 to 0.07.  The streaming pass tracks the large-array numpy
work of sampling, peeling and tree growth, and not the interpreter-bound DE
and simplex rounds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_UNIT_S = 0.008
REF_STREAM_S = 0.007
SHARE = 0.05


def unit(stream=None) -> None:
    """One calibration unit, 5 to 10 ms on a shared 2-CPU host (Python 3.11).

    ``stream``, two 4 MB arrays, adds 5 to 8 ms of streaming.
    """
    s = 0.0
    for i in range(60000):
        s += (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(400):
        a = np.exp(-a) + 0.1
    if stream is not None:
        src, dst = stream
        for _ in range(12):
            np.multiply(src, 1.0000001, out=dst)


class HostSpeed:
    """Wall times of the calibration units run so far."""

    def __init__(self, streaming: bool = False) -> None:
        self.stream = None
        self.ref = REF_UNIT_S
        if streaming:
            self.stream = (np.ones((512, 1024)), np.empty((512, 1024)))
            self.ref += REF_STREAM_S
            unit(self.stream)  # untimed: faults in the arrays
        self.units: list[float] = []

    def sample(self, after_s: float = 0.0, min_units: int = 1) -> None:
        """Run units for ``SHARE`` of ``after_s`` seconds, and at least ``min_units``."""
        spent = 0.0
        done = 0
        while done < min_units or spent < SHARE * after_s:
            t0 = time.perf_counter()
            unit(self.stream)
            dt = time.perf_counter() - t0
            self.units.append(dt)
            spent += dt
            done += 1

    def factor(self) -> float:
        """Mean unit time over the reference: above 1 on a slower host."""
        return statistics.fmean(self.units) / self.ref
