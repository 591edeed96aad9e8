"""Host-speed probe: how fast this host runs Python right now.

The reference host (a shared 2-vCPU VM) runs the same code 1.5-2.5x
slower or faster for minutes at a time, on both vCPUs, with no steal
time recorded; raw wall-clock figures of back-to-back runs spread
10-40% (interquartile range over median).  Every workload therefore
takes probe slices between its operations (before each cold start or
daemon spawn, each tune, each sweep and each serving miss) and reports
each timing scaled to the probe's reference speed: ``raw / factor`` for
times, ``raw * factor`` for rates, where ``factor`` is the run's mean
slice time over ``REFERENCE_SLICE_S``.  A slice is a fixed integer
loop followed by a fixed pointer chase through a 4 MB permutation:
neighbours' memory traffic varies the chase 3x within seconds while
the loop holds within 10%, and it moves the simulator's memory-bound
work.  The mean, not the median, because each vCPU flips between two
speeds and the work pays the time-average.  A change to the program
cannot move the probe, so a regression or a gain shows in full; the
raw figures and the factor are printed too.
"""

from __future__ import annotations

import os
import random
import time
from array import array
from statistics import fmean

LOOPS = 20_000
CHASE_STEPS = 4_000
#: entries of the chased permutation (4 bytes each)
CHASE_SIZE = 1 << 20
#: slice time on the reference host in a quiet spell
REFERENCE_SLICE_S = 3.0e-3

_chase = None


def _slice() -> float:
    global _chase
    if _chase is None:
        _chase = array("i", range(CHASE_SIZE))
        random.Random(0).shuffle(_chase)
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    j = 0
    for _ in range(CHASE_STEPS):
        j = _chase[j]
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    Each vCPU of the reference host flips between a fast and a ~1.45x
    slower state within seconds, independently of the other, and in
    some spells waking a process on the other vCPU costs twice as much.
    Pinned, the probe samples the CPU the work runs on and a request
    crosses no CPUs.  Only workloads that run one thing at a time (one
    tune, or one client and its daemon) are pinned; they lose no
    parallelism.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Probe slices taken during one run."""

    def __init__(self):
        self.samples = []

    def sample(self, slices: int = 1) -> None:
        for _ in range(slices):
            self.samples.append(_slice())

    @property
    def factor(self) -> float:
        """> 1 when the host ran slower than the reference."""
        return fmean(self.samples) / REFERENCE_SLICE_S

    def report(self, outcome, times=(), rates=()) -> None:
        """Record ``times``/``rates`` (``(name, raw value, unit, n)``)
        scaled to the reference speed, the raw values as rows, and the
        factor itself."""
        f = self.factor
        for name, raw, unit, n in times:
            outcome.metric(name, raw / f, unit, n)
            outcome.row(f"raw.{name}", raw, unit, n)
        for name, raw, unit, n in rates:
            outcome.metric(name, raw * f, unit, n)
            outcome.row(f"raw.{name}", raw, unit, n)
        outcome.row("host.speed_factor", f, "ratio", len(self.samples))
