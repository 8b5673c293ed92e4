"""Time-series instrumentation for the simulator.

Tracers observe the network once per cycle and record the series the
paper's dynamic-response discussion reasons about: instantaneous
accepted throughput, per-channel utilization, and the occupancy of
individual output queues (the "minimal queue" that greedy allocation
overloads in Figure 5).

Attach tracers before running::

    sim = Simulator(topology, algorithm, pattern)
    trace = ThroughputTrace(interval=10)
    sim.attach_tracer(trace)
    sim.run_batch(32)
    print(trace.series)
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topologies.base import Channel
    from .simulator import Simulator


class Tracer(abc.ABC):
    """Base class for per-cycle observers."""

    #: Whether this tracer can summarize a quiescent stretch via
    #: :meth:`on_idle_gap` instead of being called every cycle.  The
    #: event kernel only skips idle cycles when *every* attached tracer
    #: declares support; the conservative default is False.
    supports_idle_skip = False

    def attach(self, simulator: "Simulator") -> None:
        """Bind to a simulator (called by ``attach_tracer``)."""
        self.simulator = simulator

    @abc.abstractmethod
    def on_cycle(self, now: int) -> None:
        """Observe the network at the end of cycle ``now``."""

    def on_idle_gap(self, start: int, end: int) -> None:
        """Observe the quiescent cycles ``start .. end - 1`` at once.

        Called by the event kernel instead of per-cycle ``on_cycle``
        when it jumps over a stretch with no flits anywhere.  The
        fallback replays ``on_cycle`` for every skipped cycle, which is
        always correct; subclasses that set ``supports_idle_skip``
        override this with an O(1) summary.
        """
        for now in range(start, end):
            self.on_cycle(now)


class ThroughputTrace(Tracer):
    """Accepted flits per terminal per cycle, averaged over fixed
    intervals."""

    supports_idle_skip = True

    def __init__(self, interval: int = 10) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.interval = interval
        self.series: List[float] = []
        self._last_ejected = 0

    def attach(self, simulator: "Simulator") -> None:
        super().attach(simulator)
        self._last_ejected = simulator.flits_ejected

    def on_cycle(self, now: int) -> None:
        if (now + 1) % self.interval:
            return
        sim = self.simulator
        delta = sim.flits_ejected - self._last_ejected
        self._last_ejected = sim.flits_ejected
        self.series.append(delta / (self.interval * sim.topology.num_terminals))

    def on_idle_gap(self, start: int, end: int) -> None:
        # No flit is ejected during a quiescent gap, so the first
        # interval boundary inside it flushes whatever was ejected
        # earlier in that interval and every later boundary reads 0.
        interval = self.interval
        first = start + ((interval - 1 - start) % interval)
        if first >= end:
            return
        self.on_cycle(first)
        remaining = (end - 1 - first) // interval
        if remaining:
            self.series.extend([0.0] * remaining)


class QueueTrace(Tracer):
    """Occupancy of selected output channels, sampled every cycle.

    This is the estimate adaptive routing sees (staged + downstream +
    committed flits); watching the overloaded minimal channel next to
    an idle non-minimal one is Figure 5's transient in the raw.
    """

    def __init__(self, channels: List["Channel"]) -> None:
        if not channels:
            raise ValueError("need at least one channel to trace")
        self.channels = list(channels)
        self.series: Dict[int, List[int]] = {c.index: [] for c in self.channels}

    def on_cycle(self, now: int) -> None:
        sim = self.simulator
        for channel in self.channels:
            engine = sim.engines[channel.src]
            self.series[channel.index].append(engine.channel_occupancy(channel))

    def peak(self, channel: "Channel") -> int:
        """Highest occupancy seen on ``channel``."""
        values = self.series[channel.index]
        return max(values) if values else 0


class PacketJourneyTrace(Tracer):
    """Record the router path of selected packets.

    Pass a predicate over packets (default: trace everything — fine
    for small runs); after the run, ``journey(pid)`` returns the
    ordered list of ``(cycle, router)`` visits, reconstructed from
    channel arrivals.  A debugging tool: a suspect route (e.g. CLOS AD
    supposedly exceeding its folded-Clos hop bound) can be inspected
    hop by hop.
    """

    supports_idle_skip = True  # no flits in flight => nothing to record

    def __init__(self, predicate=None) -> None:
        self.predicate = predicate or (lambda packet: True)
        self.visits: Dict[int, List[Tuple[int, int]]] = {}

    def attach(self, simulator: "Simulator") -> None:
        super().attach(simulator)
        self._channel_dst = {
            pipe.index: pipe.dst_router for pipe in simulator.pipes
        }
        self._seen_in_flight: Dict[int, int] = {}

    def on_cycle(self, now: int) -> None:
        sim = self.simulator
        due = now + sim.config.channel_latency
        for pipe in sim._wheel.get(due, ()):
            for arrival, flit, _vc in pipe.flits:
                if arrival != due:
                    continue
                if not flit.is_head:
                    continue
                packet = flit.packet
                if not self.predicate(packet):
                    continue
                self.visits.setdefault(
                    packet.pid,
                    [(packet.time_injected or 0,
                      sim.topology.injection_router(packet.src))],
                ).append((arrival, pipe.dst_router))

    def on_idle_gap(self, start: int, end: int) -> None:
        """Nothing is in flight during a quiescent gap."""

    def journey(self, pid: int) -> List[Tuple[int, int]]:
        """Ordered ``(cycle, router)`` visits of packet ``pid``."""
        return self.visits.get(pid, [])

    def hops(self, pid: int) -> int:
        """Inter-router hops the packet took."""
        visits = self.visits.get(pid)
        return len(visits) - 1 if visits else 0


class ChannelLoadTrace(Tracer):
    """Cumulative flits carried per channel; ``utilization`` divides by
    elapsed cycles to give each channel's duty factor."""

    supports_idle_skip = True

    def __init__(self) -> None:
        self.flits: Dict[int, int] = {}
        self.cycles = 0

    def attach(self, simulator: "Simulator") -> None:
        super().attach(simulator)
        self.flits = {pipe.index: 0 for pipe in simulator.pipes}

    def on_cycle(self, now: int) -> None:
        # Channel pipes buffer (arrival, flit, vc); flits pushed this
        # cycle are those arriving one channel latency from now, on the
        # pipes filed (each once) in that wheel slot.
        sim = self.simulator
        self.cycles += 1
        due = now + sim.config.channel_latency
        for pipe in sim._wheel.get(due, ()):
            for arrival, _flit, _vc in pipe.flits:
                if arrival == due:
                    self.flits[pipe.index] += 1

    def on_idle_gap(self, start: int, end: int) -> None:
        # Quiescent cycles still elapse; no channel carries anything.
        self.cycles += end - start

    def utilization(self, channel_index: int) -> float:
        """Fraction of cycles ``channel_index`` carried a flit."""
        if self.cycles == 0:
            return 0.0
        return self.flits.get(channel_index, 0) / self.cycles

    def max_utilization(self) -> float:
        """Duty factor of the busiest channel."""
        if self.cycles == 0:
            return 0.0
        return max(self.flits.values(), default=0) / self.cycles
