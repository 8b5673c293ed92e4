"""Measurement machinery and result records.

Implements the paper's methodology (Section 3.2): warm up under load,
label the packets injected during a measurement interval, and run until
every labeled packet has exited.  Latency is measured from packet
creation (entering the source queue) to ejection of the tail flit;
accepted throughput is the flit ejection rate per terminal over the
measurement window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


# Two-sided 95% Student-t critical values for df = 1..30; beyond that
# the normal approximation (1.960) is within half a percent.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)


def t95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of
    freedom (normal approximation past df=30)."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return _T95[df - 1] if df <= len(_T95) else 1.960


def ci95_halfwidth(std: float, count: int) -> float:
    """Half-width of the 95% confidence interval on a mean estimated
    from ``count`` independent samples with sample standard deviation
    ``std`` (0.0 for a single sample: no spread estimate exists)."""
    if count < 2:
        return 0.0
    return t95(count - 1) * std / math.sqrt(count)


def _percentile(sorted_values: List[int], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


@dataclass
class LatencySummary:
    """Summary statistics over a set of packet latencies."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_samples(cls, samples: List[int]) -> "LatencySummary":
        if not samples:
            return cls(0, math.nan, math.nan, math.nan, math.nan, math.nan)
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
            max=float(ordered[-1]),
        )


@dataclass
class KernelStats:
    """Execution metrics of one simulation run.

    Produced by every run method so kernel speedups are measured, not
    asserted: ``router_phase_calls`` counts the route+switch and wire
    invocations the kernel actually executed (only routers holding
    work are visited), and ``events_dispatched`` counts channel-pipe
    wakeups (flit and credit deliveries pulled off the event wheel).

    Excluded from result equality (and from ``repr``) because
    ``wall_seconds`` varies run to run while the simulation outcome
    does not.
    """

    kernel: str
    cycles: int = 0
    idle_cycles_skipped: int = 0
    router_phase_calls: int = 0
    events_dispatched: int = 0
    wall_seconds: float = 0.0
    # Routing decisions made (one per packet per router visited).
    route_calls: int = 0
    # Flit free-list accounting: fresh allocations vs. recycled flits.
    flits_allocated: int = 0
    flits_reused: int = 0
    # Per-phase wall seconds when the run was profiled (see
    # repro.profiling), else None.
    phase_seconds: Optional[Dict[str, float]] = None

    @property
    def cycles_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return math.nan
        return self.cycles / self.wall_seconds


@dataclass
class ClassStats:
    """Per-message-class slice of one measurement window.

    Produced by workload runs whose source emits more than one message
    class (e.g. request/reply); ``throughput`` is accepted flits of
    this class per terminal per cycle over the window.
    """

    msg_class: int
    latency: LatencySummary
    network_latency: LatencySummary
    throughput: float
    packets: int


@dataclass
class OpenLoopResult:
    """Result of one open-loop (Bernoulli) simulation."""

    offered_load: float
    accepted_throughput: float
    latency: LatencySummary
    network_latency: LatencySummary
    saturated: bool
    cycles: int
    packets_labeled: int
    packets_delivered: int
    mean_hops: float
    packets_undeliverable: int = 0
    kernel: Optional[KernelStats] = field(default=None, compare=False, repr=False)
    # Per-message-class statistics, present only for workload runs with
    # num_classes > 1 (a tuple of ClassStats indexed by msg_class).
    per_class: Optional[tuple] = None

    @property
    def avg_latency(self) -> float:
        """Mean total latency; infinite once the network saturates."""
        return math.inf if self.saturated else self.latency.mean


@dataclass
class BatchResult:
    """Result of one batch (dynamic-response) simulation."""

    batch_size: int
    completion_cycles: int
    packets: int
    packets_undeliverable: int = 0
    kernel: Optional[KernelStats] = field(default=None, compare=False, repr=False)

    @property
    def normalized_latency(self) -> float:
        """Batch completion time divided by batch size (Figure 5's
        y-axis)."""
        return self.completion_cycles / self.batch_size


class MeasurementWindow:
    """Tracks labeling and throughput accounting for one run."""

    def __init__(self, start: int, end: int, num_classes: int = 1) -> None:
        if end <= start:
            raise ValueError(f"empty measurement window [{start}, {end})")
        self.start = start
        self.end = end
        self.ejected_flits = 0
        self.labeled_outstanding = 0
        self.labeled_total = 0
        self.latencies: List[int] = []
        self.network_latencies: List[int] = []
        self.hops: List[int] = []
        # Per-message-class accounting, allocated only for multi-class
        # workload runs so the single-class hot path stays unchanged.
        self.num_classes = num_classes
        if num_classes > 1:
            self.class_latencies: Optional[List[List[int]]] = [
                [] for _ in range(num_classes)
            ]
            self.class_network_latencies: Optional[List[List[int]]] = [
                [] for _ in range(num_classes)
            ]
            self.class_ejected: Optional[List[int]] = [0] * num_classes
        else:
            self.class_latencies = None
            self.class_network_latencies = None
            self.class_ejected = None

    def in_window(self, now: int) -> bool:
        return self.start <= now < self.end

    def label_if_in_window(self, packet, now: int) -> None:
        if self.in_window(now):
            packet.labeled = True
            self.labeled_outstanding += 1
            self.labeled_total += 1

    def record_ejected_flit(self, now: int) -> None:
        if self.in_window(now):
            self.ejected_flits += 1

    def record_delivery(self, packet) -> None:
        if packet.labeled:
            self.labeled_outstanding -= 1
            self.latencies.append(packet.total_latency)
            self.network_latencies.append(packet.network_latency)
            self.hops.append(packet.hops)
            if self.class_latencies is not None:
                self.class_latencies[packet.msg_class].append(
                    packet.total_latency
                )
                self.class_network_latencies[packet.msg_class].append(
                    packet.network_latency
                )

    def drained(self) -> bool:
        return self.labeled_outstanding == 0

    def throughput(self, num_terminals: int) -> float:
        """Accepted flits per terminal per cycle during the window."""
        return self.ejected_flits / ((self.end - self.start) * num_terminals)

    def per_class_stats(self, num_terminals: int) -> Optional[tuple]:
        """Per-class :class:`ClassStats`, or ``None`` for single-class
        windows."""
        if self.class_latencies is None:
            return None
        span = (self.end - self.start) * num_terminals
        return tuple(
            ClassStats(
                msg_class=cls,
                latency=LatencySummary.from_samples(self.class_latencies[cls]),
                network_latency=LatencySummary.from_samples(
                    self.class_network_latencies[cls]
                ),
                throughput=self.class_ejected[cls] / span,
                packets=len(self.class_latencies[cls]),
            )
            for cls in range(self.num_classes)
        )
