"""Machine-speed probe: rescales host seconds to a fixed reference speed.

The benchmark's host is a shared VM whose speed drifts by up to 1.6x
over seconds to minutes, in CPU time as much as in wall time (see
README.md, "Noise").  No statistic of host seconds taken within one run
holds still across runs minutes apart.  So while the benchmark times
something, a :class:`SpeedProbe` runs a small fixed calibration kernel
from an interval timer (``SIGALRM``), in the same process, on the same
CPU, every :data:`INTERVAL_S` seconds.  Each stretch of work between
two probes is rescaled by ``reference / duration of the probe that
closes it``, where ``reference`` is the kernel's typical duration on
the development machine, and the probe's own time is left out.  The
result reads in seconds at that reference speed: close to host seconds
when the host runs at its typical speed, and unmoved when the host
slows everything down for a while.

The kernels are the benchmark's own code and never call the package,
so a change to the package moves the work timed but not the yardstick.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

#: Seconds between two probes while a probe is running.
INTERVAL_S = 0.025

#: Typical duration of one call of each kernel on the development
#: machine (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4), the median
#: over several minutes.  A change here rescales every timed metric.
REFERENCE_S = {
    "python": 2.3e-4,
    "mixed": 9.3e-4,
}


def python_kernel() -> Callable[[], int]:
    """Interpreter-bound work like the event kernel's: dict and list
    traffic, attribute-free integer arithmetic, in the L1 cache."""

    def run() -> int:
        table: Dict[int, int] = {}
        trail: List[int] = []
        acc = 0
        for i in range(1000):
            table[i & 63] = i
            acc += table.get((i * 7) & 63, 1) ^ i
            trail.append(acc)
        return len(trail)

    return run


def mixed_kernel() -> Callable[[], int]:
    """The python kernel plus numpy work like a batch-kernel cycle: a
    two-key sort, a gather from a 2 MB table and a weighted bincount
    on arrays of a few thousand elements."""
    import numpy

    rng = numpy.random.default_rng(0)
    keys = rng.integers(0, 1 << 20, 1 << 12)
    groups = rng.integers(0, 64, 1 << 12)
    table = rng.random(1 << 18)
    interpreted = python_kernel()

    def run() -> int:
        interpreted()
        order = numpy.lexsort((keys, groups))
        picked = table[keys[order] & ((1 << 18) - 1)]
        return int(numpy.bincount(groups, weights=picked).size)

    return run


KERNELS = {"python": python_kernel, "mixed": mixed_kernel}

#: ``(start, duration)`` of one probe, in ``time.perf_counter`` seconds.
Sample = Tuple[float, float]


def rescale(samples: Sequence[Sample], start: float, end: float,
            reference: float) -> Tuple[float, float, float]:
    """``(reference seconds, host seconds, probe seconds)`` of the
    interval ``[start, end]``.

    ``samples`` are the probes taken in it, in order, followed by one
    taken after ``end`` that closes the last stretch.  Host seconds are
    the interval minus the probes inside it; each stretch of work
    before a probe is scaled by ``reference`` over that probe's
    duration.
    """
    inside = [s for s in samples if start <= s[0] < end]
    after = [s for s in samples if s[0] >= end]
    if not after:
        raise ValueError("no probe closes the interval")
    closing = inside + after[:1]
    rescaled = host = probe = 0.0
    begin = start
    for at, duration in closing:
        stretch = min(at, end) - begin
        host += stretch
        rescaled += stretch * reference / duration
        if at < end:
            probe += duration
        begin = at + duration
    return rescaled, host, probe


class SpeedProbe:
    """Runs one calibration kernel every :data:`INTERVAL_S` seconds of
    wall time while :meth:`running`, and keeps every sample."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.reference = REFERENCE_S[kernel]
        self._run = KERNELS[kernel]()
        self._run()  # first call pays for allocation; not a sample
        self.samples: List[Sample] = []

    def sample(self) -> None:
        started = time.perf_counter()
        self._run()
        self.samples.append((started, time.perf_counter() - started))

    def _tick(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def running(self):
        """Probe from entry until exit, then take the closing sample."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def rescale(self, start: float, end: float) -> Tuple[float, float, float]:
        return rescale(self.samples, start, end, self.reference)
