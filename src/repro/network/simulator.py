"""The cycle-accurate network simulator.

Ties together topology, routing algorithm and traffic source, and
advances the network one cycle at a time:

1. deliver flits and credits that complete their channel traversal,
2. create the packets of the run's workload for this cycle and move
   source-queue flits into injection buffers (one flit per cycle per
   terminal, matching unit terminal bandwidth),
3. routing phase at every active router (greedy or sequential
   allocator),
4. switch phase at every active router (one flit per output channel
   per cycle).

The exact kernel (``kernel="event"``, the default) keeps per-cycle
work proportional to the flits in flight: routers register themselves
in activation sets when they hold work (``_busy_engines`` for
routing/switch, ``_wire_engines`` for staged output flits), channel
pipes schedule their own delivery cycles on an event wheel instead of
being scanned, and fully quiescent stretches at low load are skipped
by jumping straight to the next scheduled injection.  Active routers
are visited in ascending index within each switch sub-iteration, so
every shared-RNG draw and round-robin pointer is fixed and runs are
fully deterministic given ``SimulationConfig.seed``.

``kernel="batch"`` hands the open-loop run methods to the vectorized
backend in :mod:`repro.network.batch`.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.routing.base import RoutingAlgorithm
from ..profiling import PhaseProfile, profiling_enabled
from ..topologies.base import Topology
from ..traffic.patterns import TrafficPattern
from .buffers import CHANNEL_PORT
from .channel import ChannelPipe
from .config import SimulationConfig, derive_seed
from .injection import BatchInjection, BernoulliInjection
from .packet import Flit, Packet
from .router import RouterEngine
from .stats import (
    BatchResult,
    KernelStats,
    LatencySummary,
    MeasurementWindow,
    OpenLoopResult,
    _window_end,
)
from .workload import (
    SyntheticWorkload,
    UnsupportedWorkloadError,
    Workload,
    batch_refusal,
)

#: Recognized kernel names: the exact event kernel, and ``"batch"``,
#: the vectorized structure-of-arrays backend
#: (:mod:`repro.network.batch`), which is validated statistically
#: rather than bit-exactly against the event kernel and requires numpy
#: (``pip install repro[batch]``).
KERNELS = ("event", "batch")


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Kernel name: the explicit argument, else the event kernel.

    No environment variable selects a kernel, so a job spec built
    without ``kernel=`` runs, and is cached as, the event kernel."""
    if kernel is None:
        return "event"
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; pick one of {', '.join(KERNELS)}"
        )
    return kernel


class Simulator:
    """A single simulation instance.

    Build one per (topology, routing algorithm, traffic source,
    config) combination; run methods may be invoked once per instance
    (construct a fresh simulator for each measurement point).

    The traffic source is either a classic
    :class:`~repro.traffic.patterns.TrafficPattern` (driven by the
    open-loop run methods) or a
    :class:`~repro.network.workload.Workload` — passed in the same
    positional slot, or described by ``config.workload`` (in which
    case pass ``None``) — driven by :meth:`run_workload`.  Every
    event-kernel run drives a workload: the pattern methods wrap the
    pattern as a :class:`~repro.network.workload.SyntheticWorkload`.

    Args:
        kernel: ``"event"`` or ``"batch"``; ``None`` (default) is the
            event kernel.  A batch simulator builds no event-kernel
            routers, ports or pipes, and refuses the methods that drive
            or inspect them (:meth:`step`, :meth:`attach_tracer`,
            :meth:`flits_accounted`, :meth:`quiescent`,
            :meth:`check_activation_invariants`).
        profile: enable per-phase wall timers (see
            :mod:`repro.profiling`); ``None`` (default) reads
            ``$REPRO_PROFILE_PHASES``.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: RoutingAlgorithm,
        pattern: Optional[TrafficPattern],
        config: Optional[SimulationConfig] = None,
        kernel: Optional[str] = None,
        profile: Optional[bool] = None,
    ) -> None:
        self.topology = topology
        self.algorithm = algorithm
        self.config = config or SimulationConfig()
        # Resolve the traffic source: a Workload may ride the pattern
        # argument, or a WorkloadSpec may come in through the config.
        workload = None
        if isinstance(pattern, Workload):
            workload = pattern
            pattern = None
        spec = self.config.workload
        if spec is not None:
            if workload is not None or pattern is not None:
                raise ValueError(
                    "pass the traffic source either as the pattern/workload "
                    "argument or via config.workload, not both"
                )
            workload = spec.build()
        if pattern is None and workload is None:
            raise ValueError(
                "a traffic source is required: pass a TrafficPattern or a "
                "Workload (or set config.workload)"
            )
        self.pattern = pattern
        self.workload = workload
        self._num_vc_classes = 1 if workload is None else workload.num_classes
        if self._num_vc_classes < 1:
            raise ValueError(
                f"workload {workload.name!r} declares num_classes="
                f"{self._num_vc_classes}; must be >= 1"
            )
        # The running workload, set when a run starts: the source of
        # every packet (see _enqueue_messages).  The delivery hook is
        # non-None only when it overrides Workload.on_delivered.
        self._source: Optional[Workload] = None
        self._on_delivered = None
        self.kernel = resolve_kernel(kernel)
        self._profile = PhaseProfile() if profiling_enabled(profile) else None

        seed = self.config.seed
        if self.config.rng_streams == "legacy":
            self.traffic_rng = random.Random(seed * 2654435761 % (2**31) + 1)
            self.route_rng = random.Random(seed * 2654435761 % (2**31) + 2)
            self.injection_rng = random.Random(seed * 2654435761 % (2**31) + 3)
        else:
            self.traffic_rng = random.Random(derive_seed(seed, "traffic"))
            self.route_rng = random.Random(derive_seed(seed, "route"))
            self.injection_rng = random.Random(derive_seed(seed, "injection"))

        if self.pattern is not None:
            self.pattern.bind(topology)

        # Fault injection: sample the configured fault model against
        # the topology before the algorithm attaches (fault-aware
        # algorithms read ``fault_set`` during attach).  A trivial
        # model is treated exactly like no model, so fault-aware
        # wrappers degrade to their fault-free behavior bit-for-bit.
        self.fault_set = None
        faults = self.config.faults
        if faults is not None and not faults.trivial:
            if not algorithm.fault_aware:
                raise TypeError(
                    f"{algorithm.name} is not fault-aware; running it under a "
                    f"non-trivial FaultModel would route packets into failed "
                    f"channels (wrap it with a repro.faults algorithm)"
                )
            self.fault_set = faults.sample(topology)

        self.now = 0
        self.packets_created = 0
        self.packets_delivered = 0
        self.packets_undeliverable = 0
        self.flits_ejected = 0
        self.in_flight = 0

        # Activation sets (router id -> engine), maintained by the
        # engines themselves on every idle<->busy transition.
        self._busy_engines: Dict[int, RouterEngine] = {}
        self._wire_engines: Dict[int, RouterEngine] = {}
        # Event wheel: cycle -> pipes with a delivery due that cycle.
        # Channel/credit latencies are fixed, so arrivals cluster on a
        # handful of future cycles; a calendar dict beats a heap.  The
        # wheel is the only record of busy pipes: every flit or credit
        # put on a pipe files the pipe under its delivery cycle.  Each
        # slot is an insertion-ordered dict, so a pipe that gets a
        # credit and a flit due the same cycle is filed, and visited,
        # once, in the position of its first filing.
        self._wheel: Dict[int, Dict[ChannelPipe, None]] = {}

        # Kernel metrics (materialized into KernelStats by run methods).
        self.kernel_stats: Optional[KernelStats] = None
        self._phase_calls = 0
        self._events_dispatched = 0
        self._idle_skipped = 0
        self._route_calls = 0

        # Flit free list: flits are unreachable once ejected, so they
        # are recycled instead of re-allocated (identical simulation —
        # a flit's identity never influences a decision).
        self._flit_pool: List[Flit] = []
        self._flits_allocated = 0
        self._flits_reused = 0

        self.algorithm.attach(self)
        # The batch kernel compiles its own arrays from the topology
        # and the shared route table, so only the event kernel needs
        # the engines, ports and pipes.
        if self.kernel == "event":
            self._build()
        self._window: Optional[MeasurementWindow] = None
        self._tracers: List = []
        self._consumed = False

    def _consume(self) -> None:
        """Mark this instance as used by a run method.

        Each simulator carries warm state (buffers, RNG positions,
        statistics) from its run; measuring twice on one instance
        would silently mix them, so run methods are single-use.
        """
        if self._consumed:
            raise RuntimeError(
                "this Simulator has already executed a run; build a fresh "
                "Simulator for each measurement"
            )
        self._consumed = True

    def _require_event(self, method: str) -> None:
        """Refuse an event-kernel-only method on a batch simulator,
        which has no routers or pipes to drive or inspect."""
        if self.kernel != "event":
            raise ValueError(
                f"{method}() needs the event kernel's routers and pipes, "
                f"which a kernel={self.kernel!r} simulator does not build; "
                f"use kernel='event'"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        topo = self.topology
        cfg = self.config
        # Message-class VC partitioning: each class gets its own full
        # copy of the algorithm's VC set on every channel, so request
        # and reply traffic can never block each other's buffers
        # (protocol deadlock freedom).  Single-class sources (all
        # legacy traffic) multiply by 1 and build identical networks.
        num_vcs = self.algorithm.num_vcs * self._num_vc_classes
        vc_depth = cfg.vc_depth(num_vcs)

        self.engines: List[RouterEngine] = [
            RouterEngine(self, r) for r in range(topo.num_routers)
        ]
        # Output side first so channel pipes know their source port.
        src_port: Dict[int, int] = {}
        for r, engine in enumerate(self.engines):
            for channel in topo.out_channels(r):
                src_port[channel.index] = engine.add_channel_output(
                    channel.index, num_vcs, vc_depth
                )
            for terminal in topo.ejecting_terminals(r):
                engine.add_ejection_output(terminal, num_vcs)
        # Input side.
        dst_in_port: Dict[int, int] = {}
        self._injection_port: Dict[int, Tuple[int, int]] = {}
        for r, engine in enumerate(self.engines):
            for channel in topo.in_channels(r):
                dst_in_port[channel.index] = engine.add_channel_input(
                    channel.index, num_vcs, vc_depth
                )
            for terminal in topo.injecting_terminals(r):
                port = engine.add_injection_input(terminal)
                self._injection_port[terminal] = (r, port)

        self.pipes: List[ChannelPipe] = [
            ChannelPipe(
                channel.index,
                channel.src,
                channel.dst,
                src_port[channel.index],
                dst_in_port[channel.index],
            )
            for channel in topo.channels
        ]
        for pipe in self.pipes:
            pipe.dst_vcs = self.engines[pipe.dst_router].in_ports[pipe.dst_in_port]
            pipe.src_out = self.engines[pipe.src_router].out_ports[pipe.src_port]
        for engine in self.engines:
            engine.finalize()
        # Bind the shared per-topology route table (if the algorithm
        # opted in during attach): records the channel->port map on the
        # first simulator for a topology and verifies it on every later
        # one, so table ports always mean what this engine set thinks
        # they mean.
        table = getattr(self.algorithm, "_route_table", None)
        if table is not None:
            table.bind(self)
        # Source queues: (packet, next_flit_index) per terminal.
        self._sources: List[Deque[Packet]] = [
            deque() for _ in range(topo.num_terminals)
        ]
        self._source_cursor: List[int] = [0] * topo.num_terminals
        self._active_sources: Dict[int, None] = {}
        # Event-kernel parking lot: active terminals whose injection
        # FIFO was full at the last attempt.  Woken by the switch move
        # that frees a FIFO slot instead of re-polled every cycle.
        self._stalled_sources: Dict[int, None] = {}
        # The on_packet_created hook, or None when the algorithm does
        # not override the base no-op (skips a call per packet).
        self._on_created = (
            self.algorithm.on_packet_created
            if type(self.algorithm).on_packet_created
            is not RoutingAlgorithm.on_packet_created
            else None
        )
        # Injection fast path: terminal -> (engine, injection InputVC),
        # resolved once so the per-cycle injection loop does no port
        # lookups.
        self._injection_engine: List[Optional[RouterEngine]] = [
            None
        ] * topo.num_terminals
        self._injection_invc: List = [None] * topo.num_terminals
        for terminal, (r, port) in self._injection_port.items():
            self._injection_engine[terminal] = self.engines[r]
            self._injection_invc[terminal] = self.engines[r].in_ports[port][0]
        # Terminal -> ejection router, for the packets
        # ``_enqueue_messages`` creates (indexed after a range check).
        self._ejection_router: List[int] = [
            topo.ejection_router(t) for t in range(topo.num_terminals)
        ]

    # ------------------------------------------------------------------
    # Hooks used by RouterEngine / ChannelPipe
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Register a :class:`repro.network.trace.Tracer` to observe
        every subsequent cycle."""
        self._require_event("attach_tracer")
        tracer.attach(self)
        self._tracers.append(tracer)

    def on_flit_ejected(self, flit: Flit, now: int) -> None:
        self.flits_ejected += 1
        window = self._window
        if window is not None and window.start <= now < window.end:
            window.ejected_flits += 1
            if window.class_ejected is not None:
                window.class_ejected[flit.packet.msg_class] += 1
        if flit.is_tail:
            packet = flit.packet
            packet.time_ejected = now
            self.packets_delivered += 1
            self.in_flight -= 1
            if window is not None and packet.labeled:
                window.labeled_outstanding -= 1
                window.latencies.append(now - packet.time_created)
                window.network_latencies.append(now - packet.time_injected)
                window.hops.append(packet.hops)
                if window.class_latencies is not None:
                    window.class_latencies[packet.msg_class].append(
                        now - packet.time_created
                    )
                    window.class_network_latencies[packet.msg_class].append(
                        now - packet.time_injected
                    )
            hook = self._on_delivered
            if hook is not None:
                hook(packet, now)
        # The flit is dead: nothing downstream of ejection holds a
        # reference, so recycle it.  The stale ``packet`` reference is
        # left in place (overwritten on reuse) so observers wrapping
        # this method can still inspect the ejected flit.
        if len(self._flit_pool) < 65536:
            self._flit_pool.append(flit)

    # ------------------------------------------------------------------
    # Cycle execution
    # ------------------------------------------------------------------
    def _deliver(self, now: int) -> None:
        """Delivery: visit exactly the pipes with something due at
        ``now`` on the event wheel."""
        batch = self._wheel.pop(now, None)
        if batch is None:
            return
        engines = self.engines
        busy_engines = self._busy_engines
        self._events_dispatched += len(batch)
        for pipe in batch:
            flits = pipe.flits
            if flits:
                engine = engines[pipe.dst_router]
                # Inline of engine.deliver(port, vc, flit), saving a
                # method call per arriving flit.
                in_vcs = pipe.dst_vcs
                while flits and flits[0][0] <= now:
                    _, flit, vc = flits.popleft()
                    invc = in_vcs[vc]
                    fifo = invc.fifo
                    if len(fifo) >= invc.depth:
                        raise AssertionError(
                            f"buffer overflow at router {engine.router_id} "
                            f"port {pipe.dst_in_port} vc {vc}: "
                            f"credit protocol violated"
                        )
                    if fifo:
                        fifo.append(flit)
                        continue
                    fifo.append(flit)
                    port = invc.route_port
                    if port is None:
                        engine._unrouted[invc] = None
                    else:
                        requests = engine._requests
                        out = engine.out_ports[port]
                        members = requests.get(out)
                        if members is None:
                            requests[out] = {invc: None}
                        else:
                            members[invc] = None
                    eng_active = engine.active
                    if not eng_active:
                        busy_engines[engine.router_id] = engine
                    eng_active[invc] = None
            credits = pipe.credits
            if credits:
                out = pipe.src_out
                out_credits = out.credits
                arrived = 0
                while credits and credits[0][0] <= now:
                    out_credits[credits.popleft()[1]] += 1
                    arrived += 1
                out.occ -= arrived

    def _flush_events_through(self, target: int) -> None:
        """Drain every wheel slot up to and including ``target`` (used
        when idle-skipping jumps over several cycles at once)."""
        wheel = self._wheel
        for cycle in sorted(c for c in wheel if c <= target):
            self._deliver(cycle)

    def _enqueue_messages(self, now: int) -> None:
        """Create the packets for the running workload's cycle-``now``
        messages and append them to their source queues: the event
        kernel's one packet source.

        Messages are unpacked positionally, so a workload may emit
        :class:`~repro.network.workload.Message` tuples or bare
        ``(src, dst, msg_class, size)`` tuples.  Packets are numbered
        in message order.  The destination is range-checked before it
        indexes the ejection-router list, since a workload's
        destinations come from outside the simulator.  Under faults each pair is then
        checked for deliverability: undeliverable packets are counted
        and dropped before entering the source queue — never labeled
        and never in flight, which is what lets the drain phase
        terminate on a disconnected network.  The destination was
        still drawn, so a fault set never perturbs the destination
        sequence.  Outside a run (``step()`` before any run method)
        nothing is created.
        """
        workload = self._source
        if workload is None:
            return
        msgs = workload.messages(now)
        if not msgs:
            return
        sources = self._sources
        active_sources = self._active_sources
        window = self._window
        algorithm = self.algorithm
        check_faults = self.fault_set is not None
        ejection_router = self._ejection_router
        num_terminals = len(ejection_router)
        default_size = self.config.packet_size
        on_created = self._on_created
        labeling = window is not None and window.start <= now < window.end
        pid = self.packets_created
        pid0 = pid
        for src, dst, msg_class, size in msgs:
            if not 0 <= dst < num_terminals:
                raise ValueError(
                    f"workload {workload.name!r} sent a message from "
                    f"terminal {src} to terminal {dst}, outside "
                    f"0..{num_terminals - 1}"
                )
            if check_faults and not algorithm.deliverable(src, dst):
                self.packets_undeliverable += 1
                continue
            packet = Packet(
                pid,
                src,
                dst,
                ejection_router[dst],
                default_size if size is None else size,
                now,
                msg_class,
            )
            pid += 1
            if labeling:
                packet.labeled = True
                window.labeled_outstanding += 1
                window.labeled_total += 1
            if on_created is not None:
                on_created(packet)
            queue = sources[src]
            if not queue:
                # Empty -> non-empty: activate the terminal.  A stalled
                # terminal always has a non-empty queue, so this can
                # never double-book a terminal as active and stalled.
                active_sources[src] = None
            queue.append(packet)
        if pid != pid0:
            self.packets_created = pid
            self.in_flight += pid - pid0

    def _inject(self, now: int) -> None:
        """Injection: move at most one source-queue flit per terminal
        into its injection FIFO.

        The flit delivery is ``RouterEngine.deliver`` for an injection
        input, inlined, minus the overflow assertion (the has-space
        check here is that assertion).  Terminals whose injection FIFO
        was full at the last attempt wait in ``_stalled_sources``
        instead of being re-polled every cycle; the switch move that
        frees a FIFO slot moves them back (see the injection-input
        branch of ``route_switch``).  The per-terminal injection work
        is independent — no RNG, no shared state beyond the
        order-insensitive activation sets — so the iteration order over
        terminals does not affect results.
        """
        active_sources = self._active_sources
        if not active_sources:
            return
        sources = self._sources
        invcs = self._injection_invc
        engines = self._injection_engine
        cursors = self._source_cursor
        pool = self._flit_pool
        busy_engines = self._busy_engines
        stalled = self._stalled_sources
        done = None
        for terminal in active_sources:
            invc = invcs[terminal]
            fifo = invc.fifo
            if len(fifo) < invc.depth:
                queue = sources[terminal]
                packet = queue[0]
                cursor = cursors[terminal]
                if cursor == 0:
                    is_head = True
                    is_tail = packet.size == 1
                    packet.time_injected = now
                else:
                    is_head = False
                    is_tail = cursor == packet.size - 1
                if pool:
                    flit = pool.pop()
                    flit.packet = packet
                    flit.is_head = is_head
                    flit.is_tail = is_tail
                    self._flits_reused += 1
                else:
                    flit = Flit(packet, is_head, is_tail)
                    self._flits_allocated += 1
                if not fifo:
                    # Empty -> non-empty: the engine's activation
                    # bookkeeping, inlined.  An injection VC may carry a
                    # locked route (multi-flit packet whose source queue
                    # ran dry mid-packet), hence the request refiling.
                    engine = engines[terminal]
                    if invc.route_port is None:
                        engine._unrouted[invc] = None
                    else:
                        requests = engine._requests
                        out = engine.out_ports[invc.route_port]
                        members = requests.get(out)
                        if members is None:
                            requests[out] = {invc: None}
                        else:
                            members[invc] = None
                    active = engine.active
                    if not active:
                        busy_engines[engine.router_id] = engine
                    active[invc] = None
                fifo.append(flit)
                if is_tail:
                    queue.popleft()
                    cursors[terminal] = 0
                    if not queue:
                        if done is None:
                            done = [terminal]
                        else:
                            done.append(terminal)
                else:
                    cursors[terminal] = cursor + 1
            else:
                # FIFO full: park the terminal until a switch move
                # frees a slot (no point retrying it every cycle).
                stalled[terminal] = None
                if done is None:
                    done = [terminal]
                else:
                    done.append(terminal)
        if done is not None:
            for terminal in done:
                del active_sources[terminal]

    def step(self) -> None:
        """Advance the network by one cycle: deliver, inject (create
        the running workload's packets for this cycle, then move source
        queues into injection FIFOs), fused route+switch
        sub-iterations until no flit can move (the paper's sufficient
        switch speedup), wire.

        Only routers that can possibly do something are visited, in
        ascending router id per sub-iteration, so every shared-RNG draw
        and arbitration decision is fixed.  Routing and switching are
        fused per engine (:meth:`RouterEngine.route_switch`); within one
        cycle an engine that fails to move any flit in a sub-iteration
        cannot move one in a later sub-iteration (its state only changes
        through its own switch progress — engines are independent until
        the wire phase), so each sweep narrows to the engines that moved
        in the previous one.

        With profiling on, a ``perf_counter`` fence around each phase
        adds its wall time to ``self._profile``; the fences do no
        simulation work, so a profiled run is bit-identical.
        """
        if self.kernel != "event":
            self._require_event("step")
        now = self.now
        profile = self._profile
        if profile is not None:
            perf = time.perf_counter
            t0 = perf()
        self._deliver(now)
        if profile is not None:
            t1 = perf()
        self._enqueue_messages(now)
        self._inject(now)
        if profile is not None:
            t2 = perf()
        busy = self._busy_engines
        if busy:
            if len(busy) == 1:
                movers: List[RouterEngine] = list(busy.values())
            else:
                movers = [busy[r] for r in sorted(busy)]
            phase_calls = 0
            while movers:
                # Only engines reporting possible follow-up work (2)
                # are swept again: one reporting 0 or 1 would route and
                # switch nothing in a further sub-iteration.
                phase_calls += len(movers)
                movers = [e for e in movers if e.route_switch(now) == 2]
            self._phase_calls += phase_calls
        if profile is not None:
            t3 = perf()
        wire = self._wire_engines
        if wire:
            if len(wire) == 1:
                targets = list(wire.values())
            else:
                targets = [wire[r] for r in sorted(wire)]
            for engine in targets:
                engine.wire_event(now)
            self._phase_calls += len(targets)
        if profile is not None:
            t4 = perf()
            seconds = profile.seconds
            seconds["deliver"] += t1 - t0
            seconds["inject"] += t2 - t1
            seconds["route_switch"] += t3 - t2
            seconds["wire"] += t4 - t3
        for tracer in self._tracers:
            tracer.on_cycle(now)
        self.now = now + 1

    # ------------------------------------------------------------------
    # Idle skipping
    # ------------------------------------------------------------------
    def _skip_ok(self) -> bool:
        """Whether quiescent stretches may be jumped over: every
        attached tracer can summarize idle gaps."""
        return all(tracer.supports_idle_skip for tracer in self._tracers)

    def _skip_idle_to(self, target: int) -> None:
        """Jump ``now`` over the quiescent cycles ``[now, target)``.

        Only valid when no flit exists anywhere (network and source
        queues empty) and no injection is scheduled before ``target``:
        then the skipped cycles are no-ops apart from credits still
        returning upstream, which are flushed here — by ``target`` they
        would have arrived anyway, and nothing could have observed them
        earlier because nothing was routed or switched.
        """
        start = self.now
        for tracer in self._tracers:
            tracer.on_idle_gap(start, target)
        self._idle_skipped += target - start
        self.now = target
        self._flush_events_through(target)

    def _finish_stats(self, started: float) -> KernelStats:
        stats = KernelStats(
            kernel=self.kernel,
            cycles=self.now,
            idle_cycles_skipped=self._idle_skipped,
            router_phase_calls=self._phase_calls,
            events_dispatched=self._events_dispatched,
            wall_seconds=time.perf_counter() - started,
            route_calls=self._route_calls,
            flits_allocated=self._flits_allocated,
            flits_reused=self._flits_reused,
            phase_seconds=(
                None if self._profile is None else self._profile.as_dict()
            ),
        )
        self.kernel_stats = stats
        return stats

    # ------------------------------------------------------------------
    # Invariants (used by the test suite)
    # ------------------------------------------------------------------
    def flits_accounted(self) -> int:
        """Flits currently buffered in routers or in flight on channels
        (excludes source queues).

        Deliberately scans *every* engine and pipe rather than trusting
        the activation sets, so tests can use it to catch flits the
        kernel lost track of.
        """
        self._require_event("flits_accounted")
        buffered = sum(
            len(invc.fifo)
            for engine in self.engines
            for port in engine.in_ports
            for invc in port
        )
        staged = sum(engine.staged_flits() for engine in self.engines)
        flying = sum(len(pipe.flits) for pipe in self.pipes)
        return buffered + staged + flying

    def quiescent(self) -> bool:
        """No flits anywhere: sources, buffers, or channels.  Credits
        still returning upstream do not count — they carry no data."""
        self._require_event("quiescent")
        return (
            self.in_flight == 0
            and not self._active_sources
            and not self._stalled_sources
            and not self._busy_engines
            and not self._wire_engines
            and not any(
                pipe.flits for slot in self._wheel.values() for pipe in slot
            )
        )

    def check_activation_invariants(self) -> None:
        """Assert the activation sets agree with the ground truth.

        ``_busy_engines`` must be exactly the engines with buffered
        flits, ``_wire_engines`` exactly those with staged flits, and
        every pipe with an item in flight must be filed on the event
        wheel."""
        self._require_event("check_activation_invariants")
        busy_truth = {
            e.router_id for e in self.engines
            if any(invc.fifo for port in e.in_ports for invc in port)
        }
        if busy_truth != set(self._busy_engines):
            raise AssertionError(
                f"busy set {sorted(self._busy_engines)} != engines with "
                f"buffered flits {sorted(busy_truth)}"
            )
        wire_truth = {e.router_id for e in self.engines if e.staged_flits()}
        if wire_truth != set(self._wire_engines):
            raise AssertionError(
                f"wire set {sorted(self._wire_engines)} != engines with "
                f"staged flits {sorted(wire_truth)}"
            )
        for engine in self.engines:
            for out in engine.out_ports:
                if out.kind == CHANNEL_PORT and out.occ != out.occupancy():
                    raise AssertionError(
                        f"router {engine.router_id} port {out.index}: occ "
                        f"counter {out.occ} != computed occupancy "
                        f"{out.occupancy()}"
                    )
        for terminal in self._stalled_sources:
            invc = self._injection_invc[terminal]
            if not self._sources[terminal]:
                raise AssertionError(
                    f"terminal {terminal} stalled with an empty source queue"
                )
            if terminal in self._active_sources:
                raise AssertionError(
                    f"terminal {terminal} both active and stalled"
                )
            if invc is not None and len(invc.fifo) < invc.depth:
                raise AssertionError(
                    f"terminal {terminal} stalled with injection-FIFO space"
                )
        busy_pipes = {pipe for pipe in self.pipes if pipe.busy()}
        scheduled = {pipe for slot in self._wheel.values() for pipe in slot}
        if not busy_pipes.issubset(scheduled):
            raise AssertionError("pipe with in-flight items has no event")
        for engine in self.engines:
            unrouted_truth = {
                invc for invc in engine.active if invc.route_port is None
            }
            if unrouted_truth != set(engine._unrouted):
                raise AssertionError(
                    f"router {engine.router_id}: unrouted set out of sync"
                )
            request_truth = {
                invc for invc in engine.active if invc.route_port is not None
            }
            filed = {
                invc
                for members in engine._requests.values()
                for invc in members
            }
            if request_truth != filed:
                raise AssertionError(
                    f"router {engine.router_id}: standing requests out of sync"
                )

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run_open_loop(
        self,
        load: float,
        warmup: int = 1000,
        measure: int = 1000,
        drain_max: int = 100_000,
    ) -> OpenLoopResult:
        """Warm up, label a measurement interval, and drain.

        Args:
            load: offered load in flits per terminal per cycle.
            warmup: warm-up cycles before labeling starts.
            measure: length of the labeling window in cycles.
            drain_max: hard cycle cap; if labeled packets remain beyond
                it the run is reported as saturated.  Must exceed
                ``warmup + measure`` or labeling could never complete.
        """
        self._require_pattern("run_open_loop")
        end = _window_end(warmup, measure, drain_max)
        if self.kernel == "batch":
            return self._batch_backend("run_open_loop").run_load_grid(
                [load], (self.config.seed,), warmup=warmup,
                measure=measure, drain_max=drain_max,
            )[0].results[0]
        return self._run_measured(
            SyntheticWorkload(BernoulliInjection(load), self.pattern),
            warmup, end, drain_max,
        )

    def _run_measured(
        self, workload: Workload, warmup: int, end: int, drain_max: int
    ) -> OpenLoopResult:
        """Run ``workload`` with the measurement window ``[warmup,
        end)`` and assemble the result of :meth:`run_open_loop` and
        :meth:`run_workload`."""
        window = MeasurementWindow(warmup, end, num_classes=workload.num_classes)
        saturated = self._drive(workload, window, drain_max)
        num_terminals = self.topology.num_terminals
        return OpenLoopResult(
            offered_load=workload.offered_load,
            accepted_throughput=window.throughput(num_terminals),
            latency=LatencySummary.from_samples(window.latencies),
            network_latency=LatencySummary.from_samples(window.network_latencies),
            saturated=saturated,
            cycles=self.now,
            packets_labeled=window.labeled_total,
            packets_delivered=self.packets_delivered,
            mean_hops=(
                sum(window.hops) / len(window.hops) if window.hops else float("nan")
            ),
            packets_undeliverable=self.packets_undeliverable,
            kernel=self.kernel_stats,
            per_class=window.per_class_stats(num_terminals),
        )

    def _drive(
        self, workload: Workload, window: MeasurementWindow, drain_max: int
    ) -> bool:
        """The drive loop of every event-kernel run: start ``workload``
        on the shared traffic and injection RNG streams, then step until
        the window's labeled packets have drained, or the workload is
        exhausted and the network empty, or ``drain_max`` cycles have
        run; jump quiescent stretches on the way.

        Returns whether ``drain_max`` cut the run with labeled packets
        outstanding (saturated).  The kernel counters land in
        :attr:`kernel_stats`.
        """
        self._consume()
        started = time.perf_counter()
        workload.start(
            self.topology,
            self.config.packet_size,
            self.traffic_rng,
            self.injection_rng,
        )
        # Resolve the delivery hook only for workloads that override
        # the base no-op, so open-loop workloads pay nothing per tail.
        if type(workload).on_delivered is not Workload.on_delivered:
            self._on_delivered = workload.on_delivered
        self._source = workload
        self._window = window
        end = window.end
        next_cycle = workload.next_message_cycle
        exhausted = workload.exhausted
        saturated = False
        skip_ok = self._skip_ok()
        step = self.step
        while True:
            step()
            if self.now >= end and window.drained():
                break
            if self.in_flight == 0 and exhausted():
                # Finite workload fully delivered before the window
                # closed (every labeled packet is out: drained()).
                break
            if self.now >= drain_max:
                saturated = not window.drained()
                break
            if skip_ok and self.in_flight == 0 and not self._active_sources:
                # Quiescent network: with nothing in flight there is no
                # pending delivery, so no on_delivered callback can
                # schedule anything a workload's own calendars don't
                # already know about — next_cycle bounds every future
                # packet even for closed loops.
                nxt = next_cycle(self.now)
                bound = end if self.now < end else drain_max
                target = bound if nxt is None else min(nxt, bound)
                if target > self.now:
                    self._skip_idle_to(target)
                    if self.now >= end and window.drained():
                        break
                    if self.now >= drain_max:
                        saturated = not window.drained()
                        break
        self._finish_stats(started)
        return saturated

    def _require_pattern(self, method: str) -> None:
        if self.pattern is None:
            raise ValueError(
                f"{method}() drives a TrafficPattern, but this simulator "
                f"was built with the workload {self.workload.name!r}; use "
                f"run_workload() instead"
            )

    def run_workload(
        self,
        warmup: int = 1000,
        measure: int = 1000,
        drain_max: int = 100_000,
    ) -> OpenLoopResult:
        """Drive this simulator's :class:`~repro.network.workload.Workload`
        through the measurement methodology of :meth:`run_open_loop`:
        warm up, label the packets created during the measurement
        window, and drain.

        Two behaviors extend the open-loop contract:

        * **Closed loops.**  If the workload overrides ``on_delivered``
          it receives a callback for every delivered packet and may
          schedule dependent messages (request→reply).  Idle-skipping
          stays exact because a quiescent network implies no
          outstanding delivery, so ``next_message_cycle`` bounds all
          future messages.
        * **Finite workloads** (bounded request counts)
          may end the run before the window closes: the run stops as
          soon as the workload is exhausted and the network drained.

        For workloads with ``num_classes > 1`` the result carries
        per-message-class latency/throughput in ``per_class``.

        Under ``kernel="batch"`` only workloads reducible to the
        open-loop Bernoulli×pattern form run (via their
        ``batch_delegate``); closed-loop and timed sources raise
        :class:`~repro.network.workload.UnsupportedWorkloadError`.
        """
        wl = self.workload
        if wl is None:
            raise ValueError(
                "this simulator was built with a TrafficPattern; "
                "run_workload() needs a Workload (pass one in place of the "
                "pattern, or set config.workload)"
            )
        end = _window_end(warmup, measure, drain_max)
        if self.kernel == "batch":
            delegate = wl.batch_delegate()
            if delegate is None:
                raise UnsupportedWorkloadError(batch_refusal(wl))
            load, pattern = delegate
            return self._batch_backend("run_workload", pattern).run_load_grid(
                [load], (self.config.seed,), warmup=warmup,
                measure=measure, drain_max=drain_max,
            )[0].results[0]
        return self._run_measured(wl, warmup, end, drain_max)

    def run_batch(self, batch_size: int, max_cycles: int = 1_000_000) -> BatchResult:
        """Deliver a batch of ``batch_size`` packets per terminal and
        report the completion time (Figure 5)."""
        self._require_pattern("run_batch")
        if self.kernel == "batch":
            raise NotImplementedError(
                "kernel='batch' does not implement the dynamic-response "
                "(Figure 5) batch run; use the event kernel"
            )
        # Every packet of the batch is labeled, so the window drains
        # exactly when the batch has been delivered; a run the cycle
        # cap cuts is the saturated one.
        saturated = self._drive(
            SyntheticWorkload(BatchInjection(batch_size), self.pattern),
            MeasurementWindow(0, max_cycles),
            max_cycles,
        )
        if saturated:
            raise RuntimeError(
                f"batch of {batch_size} not drained within {max_cycles} cycles"
            )
        return BatchResult(
            batch_size=batch_size,
            completion_cycles=self.now,
            packets=self.packets_created,
            packets_undeliverable=self.packets_undeliverable,
            kernel=self.kernel_stats,
        )

    def measure_saturation_throughput(
        self, warmup: int = 1000, measure: int = 1000
    ) -> float:
        """Accepted throughput at an offered load of 1.0 — the
        throughput plateau of the latency-load curves."""
        self._require_pattern("measure_saturation_throughput")
        if self.kernel == "batch":
            return self._batch_backend(
                "measure_saturation_throughput"
            ).measure_saturation((self.config.seed,), warmup, measure)[0]
        # The drain cap is the window's end: the run stops there,
        # drained or not, and reports the window's throughput.
        end = warmup + measure
        window = MeasurementWindow(warmup, end)
        self._drive(
            SyntheticWorkload(BernoulliInjection(1.0), self.pattern), window, end
        )
        return window.throughput(self.topology.num_terminals)

    # ------------------------------------------------------------------
    # Batched runs (kernel="batch")
    # ------------------------------------------------------------------
    def _batch_backend(self, method: str, pattern=None):
        """Consume this simulator and compile its one batch run: the
        only place a :class:`Simulator` builds a
        :class:`~repro.network.batch.BatchBackend`.  ``method`` names
        the caller in refusals; ``pattern`` (a workload's batch
        delegate) stands in for the simulator's own pattern."""
        if pattern is None:
            self._require_pattern(method)
            pattern = self.pattern
        if self.kernel != "batch":
            raise ValueError(
                f"{method}() requires kernel='batch', this simulator was "
                f"built with kernel={self.kernel!r}"
            )
        self._consume()
        from .batch import BatchBackend

        return BatchBackend(self.topology, self.algorithm, pattern, self.config)

    def _batch_seeds(self, replicas, seeds) -> Tuple[int, ...]:
        from .config import replica_seeds

        if (replicas is None) == (seeds is None):
            raise ValueError("pass exactly one of replicas= or seeds=")
        if seeds is not None:
            return tuple(seeds)
        return replica_seeds(self.config.seed, replicas)

    def run_open_loop_grid(
        self,
        loads: Sequence[float],
        replicas: Optional[int] = None,
        seeds: Optional[Tuple[int, ...]] = None,
        warmup: int = 1000,
        measure: int = 1000,
        drain_max: int = 100_000,
    ):
        """Batched :meth:`run_open_loop` over a ``(load x seed)`` grid:
        every pair advances in lockstep as one array program, and the
        result is one :class:`repro.network.batch.BatchRunResult` per
        load — element ``i`` bit-identical to the one-load grid
        ``run_open_loop_grid([loads[i]], seeds=...)`` (per-run purity),
        so per-point cache keys and downstream consumers are
        unaffected by the grid batching.

        Pass either ``replicas`` (seeds come from
        :func:`repro.network.config.replica_seeds`, so replica 0 uses
        this config's own seed) or an explicit ``seeds`` tuple.
        """
        run_seeds = self._batch_seeds(replicas, seeds)
        return self._batch_backend("run_open_loop_grid").run_load_grid(
            loads, run_seeds, warmup=warmup, measure=measure,
            drain_max=drain_max,
        )

    def measure_saturation_throughput_batch(
        self,
        replicas: Optional[int] = None,
        seeds: Optional[Tuple[int, ...]] = None,
        warmup: int = 1000,
        measure: int = 1000,
    ) -> List[float]:
        """Batched :meth:`measure_saturation_throughput`: one
        accepted-throughput value per replica seed."""
        run_seeds = self._batch_seeds(replicas, seeds)
        return self._batch_backend(
            "measure_saturation_throughput_batch"
        ).measure_saturation(run_seeds, warmup=warmup, measure=measure)
