"""The input-queued virtual-channel router engine.

Implements the single-cycle router of Section 3.2: per-input VC
buffers, credit-based flow control, per-packet routing decisions made
under a greedy or sequential allocator, per-output switch arbitration,
and switch speedup.

Each cycle consists of one or more *switch sub-iterations* (the
speedup): in each, every output port accepts at most one flit from the
head of a requesting input VC into its per-VC output staging FIFO, and
newly exposed heads are routed between sub-iterations.  Afterwards the
*wire phase* moves at most one staged flit per channel onto the wire
(the channel is the serialization point).  Sub-iterations repeat until
no flit can move, so the router is never the bottleneck, which is the
paper's stated configuration ("we use input-queued routers but provide
sufficient switch speedup").  The speedup is not configurable, and
neither are the two buffer sizes below.

Engines are not polled: they publish their activation transitions to
the simulator — ``sim._busy_engines`` tracks routers holding buffered
flits (routing/switch work) and ``sim._wire_engines`` tracks routers
with staged output flits (wire work) — so the active-set kernel visits
only routers that can possibly do something each cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, List, Optional, TYPE_CHECKING

from .buffers import (
    CHANNEL_INPUT,
    CHANNEL_PORT,
    EJECTION_PORT,
    INJECTION_INPUT,
    InputVC,
    OutPort,
)
from .packet import Flit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topologies.base import Channel
    from .simulator import Simulator

_order = attrgetter("order")

#: Per-VC output staging FIFO depth (flits): decouples the sped-up
#: switch from the one-flit-per-cycle channel.
STAGING_DEPTH = 32

#: Flit capacity of each injection-port buffer inside the router (the
#: terminal-side source queue is unbounded, per the open-loop
#: methodology).
INJECTION_QUEUE_CAPACITY = 4


def round_robin_order(
    heads: List[InputVC], port_order: List[int], offset: int
) -> List[InputVC]:
    """``heads`` in round-robin routing order: input ports from
    ``offset`` upward and wrapping, then VC.

    ``order`` is dense in (in_port, vc) and ``port_order[p]`` is the
    order of port ``p``'s first VC, so sorting by ``order`` and
    rotating at the first head of port ``offset`` or later gives
    exactly the ``((in_port - offset) % num_ports, vc)`` key order.
    Sorts ``heads`` in place.
    """
    heads.sort(key=_order)
    if offset:
        split = bisect_left(list(map(_order, heads)), port_order[offset])
        if split:
            return heads[split:] + heads[:split]
    return heads


class RouterEngine:
    """Cycle-by-cycle state of one router."""

    __slots__ = (
        "sim",
        "router_id",
        "in_ports",
        "in_port_kind",
        "in_port_source",
        "out_ports",
        "_port_of_channel",
        "_ej_port_of_terminal",
        "active",
        "_unrouted",
        "_requests",
        "_staged_ports",
        "_rr_offset",
        "_num_invcs",
        "_port_order",
        "_resweep",
        "_resweep_cycle",
        "_pipes",
        "_wheel",
        "_credit_latency",
        "_channel_latency",
        "_period",
        "_base_vcs",
    )

    def __init__(self, sim: "Simulator", router_id: int) -> None:
        self.sim = sim
        self.router_id = router_id
        # Input ports: per port, a list of InputVC (channel inputs get
        # the algorithm's VC count; injection inputs are single-FIFO).
        self.in_ports: List[List[InputVC]] = []
        self.in_port_kind: List[int] = []
        # For channel inputs: the feeding channel index (credit return
        # path); for injection inputs: the terminal id.
        self.in_port_source: List[int] = []
        self.out_ports: List[OutPort] = []
        self._port_of_channel: Dict[int, int] = {}
        self._ej_port_of_terminal: Dict[int, int] = {}
        # Ordered set of non-empty input VCs.
        self.active: Dict[InputVC, None] = {}
        # Incremental views of ``active``: input VCs whose head still
        # needs a routing decision, and per-output-port sets of input
        # VCs with a locked route (the standing switch requests).
        self._unrouted: Dict[InputVC, None] = {}
        self._requests: Dict[OutPort, Dict[InputVC, None]] = {}
        # Ordered set of output ports with staged flits.
        self._staged_ports: Dict[OutPort, None] = {}
        self._rr_offset = 0
        self._num_invcs = 0
        # Per input port, the ``order`` of its first VC: ``order`` is
        # dense in (in_port, vc), so the heads of ports >= p are exactly
        # those with order >= _port_order[p].
        self._port_order: List[int] = []
        # Narrow re-sweep state for route_switch: the outputs worth
        # re-examining in a follow-up sub-iteration, valid only while
        # ``_resweep_cycle`` matches the current cycle.
        self._resweep: Dict[OutPort, None] = {}
        self._resweep_cycle = -1

    # ------------------------------------------------------------------
    # Construction (called by the Simulator)
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Snapshot stable simulator references once construction is
        complete, so the per-cycle phases don't re-derive them on every
        call."""
        sim = self.sim
        self._pipes = sim.pipes
        self._wheel = sim._wheel
        for port, kind, source in zip(
            self.in_ports, self.in_port_kind, self.in_port_source
        ):
            if kind == CHANNEL_INPUT:
                feed = sim.pipes[source]
                for invc in port:
                    invc.feed = feed
        cfg = sim.config
        self._credit_latency = cfg.credit_latency
        self._channel_latency = cfg.channel_latency
        self._period = cfg.channel_period
        # VCs per message class: routing algorithms pick a vc within
        # their own count, and a packet's msg_class shifts it into that
        # class's disjoint VC partition on inter-router channels.
        self._base_vcs = sim.algorithm.num_vcs

    def add_channel_input(self, channel_index: int, num_vcs: int, depth: int) -> int:
        port = len(self.in_ports)
        vcs = [InputVC(port, vc, depth, self._num_invcs + vc) for vc in range(num_vcs)]
        self._port_order.append(self._num_invcs)
        self._num_invcs += num_vcs
        self.in_ports.append(vcs)
        self.in_port_kind.append(CHANNEL_INPUT)
        self.in_port_source.append(channel_index)
        return port

    def add_injection_input(
        self, terminal: int, depth: int = INJECTION_QUEUE_CAPACITY
    ) -> int:
        port = len(self.in_ports)
        self.in_ports.append([InputVC(port, 0, depth, self._num_invcs)])
        self._port_order.append(self._num_invcs)
        self._num_invcs += 1
        self.in_port_kind.append(INJECTION_INPUT)
        self.in_port_source.append(terminal)
        return port

    def add_channel_output(
        self, channel_index: int, num_vcs: int, vc_depth: int
    ) -> int:
        port = len(self.out_ports)
        self.out_ports.append(
            OutPort(
                port,
                CHANNEL_PORT,
                num_vcs,
                vc_depth,
                STAGING_DEPTH,
                channel_index=channel_index,
            )
        )
        self._port_of_channel[channel_index] = port
        return port

    def add_ejection_output(self, terminal: int, num_vcs: int) -> int:
        port = len(self.out_ports)
        self.out_ports.append(
            OutPort(port, EJECTION_PORT, num_vcs, 0, STAGING_DEPTH, terminal=terminal)
        )
        self._ej_port_of_terminal[terminal] = port
        return port

    # ------------------------------------------------------------------
    # Lookup helpers for routing algorithms
    # ------------------------------------------------------------------
    def port_for_channel(self, channel: "Channel") -> int:
        """Output-port index realizing ``channel`` (which must leave
        this router)."""
        return self._port_of_channel[channel.index]

    def ejection_port(self, terminal: int) -> int:
        """Output-port index of the ejection port serving ``terminal``."""
        return self._ej_port_of_terminal[terminal]

    def channel_occupancy(self, channel: "Channel") -> int:
        """Estimated queue length (all VCs) of the output channel.

        Reads the incrementally maintained counter; O(1) per call
        (routing algorithms poll this for every candidate of every
        decision)."""
        return self.out_ports[self._port_of_channel[channel.index]].occ

    def port_occupancy(self, port: int) -> int:
        """Estimated queue length (all VCs) of output ``port``."""
        out = self.out_ports[port]
        return 0 if out.kind == EJECTION_PORT else out.occ

    # ------------------------------------------------------------------
    # Per-cycle phases
    # ------------------------------------------------------------------
    def deliver(self, in_port: int, vc: int, flit: Flit) -> None:
        """Accept a flit arriving from a channel (or injection).

        The simulator's delivery and injection loops inline this body;
        it stays as the reference for direct engine-level driving."""
        invc = self.in_ports[in_port][vc]
        fifo = invc.fifo
        if len(fifo) >= invc.depth:
            raise AssertionError(
                f"buffer overflow at router {self.router_id} port {in_port} vc {vc}: "
                f"credit protocol violated"
            )
        if fifo:
            fifo.append(flit)
            return
        fifo.append(flit)
        # The VC just went non-empty: a head awaiting a route, or the
        # next flits of a packet whose route is already locked.
        port = invc.route_port
        if port is None:
            self._unrouted[invc] = None
        else:
            requests = self._requests
            out = self.out_ports[port]
            members = requests.get(out)
            if members is None:
                requests[out] = {invc: None}
            else:
                members[invc] = None
        active = self.active
        if not active:
            # Idle -> busy transition: tell the kernel this router now
            # has routing/switch work.
            self.sim._busy_engines[self.router_id] = self
        active[invc] = None

    def route_switch(self, now: int) -> int:
        """One fused routing + switch sub-iteration: route every head
        awaiting a decision, then let every output port accept at most
        one flit from a requesting input head into its staging FIFO.

        Returns 0 if no flit moved, 1 if flits moved but another
        sub-iteration provably cannot move more (every output that
        moved has no remaining requester and no new head was exposed —
        blocked outputs stay blocked because nothing else mutates this
        engine's state within the cycle), and 2 if flits moved and a
        further sub-iteration might move more.

        Pending heads are routed in round-robin order over input ports
        (the rotating ``_rr_offset``, then VC), so the shared route RNG
        is drawn in a fixed order; switch winners are picked by a total
        order on the round-robin key (so candidate enumeration order is
        irrelevant).

        Follow-up sub-iterations within one cycle (the calls after a
        return of 2) sweep only the outputs that moved a flit in the
        previous sub-iteration plus outputs gaining a newly routed
        head: within a cycle an output's requesters, staging and
        ownership change only through its *own* switch progress, so a
        blocked output stays blocked and re-examining it would mutate
        nothing and draw nothing — skipping it is bit-identical.
        """
        sim = self.sim
        unrouted = self._unrouted
        requests = self._requests
        # The narrow re-sweep set, valid only for follow-up calls in
        # the same cycle (a 2-return from an earlier sub-iteration).
        sweep = self._resweep if self._resweep_cycle == now else None
        if unrouted:
            pending = list(unrouted)
            unrouted.clear()
            if pending:
                offset = self._rr_offset
                self._rr_offset = (offset + 1) % max(len(self.in_ports), 1)
                if len(pending) > 1:
                    pending = round_robin_order(
                        pending, self._port_order, offset
                    )
                algorithm = sim.algorithm
                route = algorithm.route_event
                inline_eject = algorithm.inline_eject
                eject_ports = self._ej_port_of_terminal
                rid = self.router_id
                out_ports = self.out_ports
                sim._route_calls += len(pending)
                # The allocator's pending debits are applied inline:
                # immediately for a sequential allocator (each decision
                # sees the previous ones), en masse afterwards for a
                # greedy one — exactly begin_cycle/record/end_cycle.
                debits = None if algorithm.sequential else []
                for invc in pending:
                    packet = invc.fifo[0].packet
                    if inline_eject and packet.dst_router == rid:
                        # An at-destination head ejects unconditionally
                        # (no RNG draw, no packet mutation) for every
                        # algorithm advertising inline_eject; resolving
                        # it here skips the route_event dispatch.
                        port = eject_ports[packet.dst]
                        vc = 0
                        out = out_ports[port]
                    else:
                        port, vc = route(self, packet)
                        out = out_ports[port]
                        if packet.msg_class and out.kind == CHANNEL_PORT:
                            # Message-class VC partitioning: the choice
                            # lands in the packet's own class partition.
                            # Ejection ports are exempt (the sink always
                            # drains, so classes cannot deadlock through
                            # it — and the inline ejection above uses
                            # vc 0).
                            vc += packet.msg_class * self._base_vcs
                        if not 0 <= vc < out.num_vcs:
                            raise AssertionError(
                                f"{algorithm.name} chose vc {vc} outside "
                                f"0..{out.num_vcs - 1}"
                            )
                    invc.route_port = port
                    invc.route_vc = vc
                    size = packet.size
                    if debits is None:
                        out.pending[vc] += size
                        out.occ += size
                    else:
                        debits.append((out, vc, size))
                    members = requests.get(out)
                    if members is None:
                        requests[out] = {invc: None}
                    else:
                        members[invc] = None
                    if sweep is not None:
                        sweep[out] = None
                if debits:
                    for out, vc, size in debits:
                        out.pending[vc] += size
                        out.occ += size
        if not requests:
            self._resweep_cycle = -1
            return 0
        moved = 0
        more = False
        total = self._num_invcs
        active = self.active
        now_credit = now + self._credit_latency
        wheel = self._wheel
        staged = self._staged_ports
        wire_engines = sim._wire_engines
        busy_engines = sim._busy_engines
        stalled_sources = sim._stalled_sources
        active_sources = sim._active_sources
        router_id = self.router_id
        resweep = {}
        if sweep is None:
            targets = list(requests.items())
        else:
            # An output may have left ``requests`` since it was noted
            # (its last member moved out) — skip it.
            targets = [
                (out, requests[out]) for out in sweep if out in requests
            ]
        for out, members in targets:
            owner = out.owner
            staging = out.staging
            depth = out.staging_depth
            if len(members) == 1:
                # Overwhelmingly common: a single standing requester.
                (winner,) = members
                vc = winner.route_vc
                if len(staging[vc]) >= depth:
                    continue
                holder = owner[vc]
                flit = winner.fifo[0]
                if flit.is_head:
                    if holder is not None:
                        continue
                elif holder is not flit.packet:
                    continue
            else:
                sendable = []
                for invc in members:
                    vc = invc.route_vc
                    if len(staging[vc]) >= depth:
                        continue
                    holder = owner[vc]
                    flit = invc.fifo[0]
                    if flit.is_head:
                        if holder is not None:
                            continue
                    elif holder is not flit.packet:
                        continue
                    sendable.append(invc)
                if not sendable:
                    continue
                winner = sendable[0]
                if len(sendable) > 1:
                    # Manual argmin over the round-robin key (the same
                    # total order min() walks; orders are distinct per
                    # input VC, so there are no ties to break).
                    pointer = out.rr_pointer
                    best = (winner.order - pointer) % total
                    for cand in sendable:
                        key = (cand.order - pointer) % total
                        if key < best:
                            best = key
                            winner = cand
            out.rr_pointer = (winner.order + 1) % total
            # Move the winner's head flit into output staging.
            fifo = winner.fifo
            flit = fifo.popleft()
            vc = winner.route_vc
            out.pending[vc] -= 1
            if flit.is_tail:
                # A head-and-tail flit leaves ``owner[vc]`` as it found
                # it: None.
                if not flit.is_head:
                    owner[vc] = None
                winner.route_port = None
                winner.route_vc = None
                del members[winner]
                if members:
                    more = True
                else:
                    del requests[out]
                if fifo:
                    # The next packet's head is exposed.
                    unrouted[winner] = None
                    more = True
            else:
                if flit.is_head:
                    owner[vc] = flit.packet
                if not fifo:
                    # Mid-packet stall: the rest is still upstream.
                    del members[winner]
                    if members:
                        more = True
                    else:
                        del requests[out]
                elif members:
                    more = True
            if members:
                # This output moved and still has standing requesters:
                # it is the only kind of output (besides one gaining a
                # newly routed head) that can move again next
                # sub-iteration.
                resweep[out] = None
            staging[vc].append(flit)
            if not staged:
                wire_engines[router_id] = self
            staged[out] = None
            # Return a credit upstream for the freed input slot.
            feed = winner.feed
            if feed is not None:
                feed.credits.append((now_credit, winner.vc))
                slot = wheel.get(now_credit)
                if slot is None:
                    wheel[now_credit] = {feed: None}
                else:
                    slot[feed] = None
            elif stalled_sources:
                # An injection-FIFO slot was freed: wake the terminal
                # if its source queue is parked on a full FIFO.
                terminal = self.in_port_source[winner.in_port]
                if terminal in stalled_sources:
                    del stalled_sources[terminal]
                    active_sources[terminal] = None
            if not fifo:
                del active[winner]
                if not active:
                    del busy_engines[router_id]
            moved = 1
        if moved and more:
            self._resweep = resweep
            self._resweep_cycle = now
            return 2
        self._resweep_cycle = -1
        return moved

    def wire_event(self, now: int) -> None:
        """Wire phase: move at most one staged flit per output port onto
        the wire (or into the ejection sink), pushing its delivery cycle
        onto the event wheel.

        A port whose staged flits cannot move this cycle — every VC
        credit-starved, or the channel still paced by ``next_free`` —
        simply stays in the staged set and is retried on later cycles;
        it leaves the set only once its staging FIFOs are empty.
        """
        staged_ports = self._staged_ports
        if not staged_ports:
            return
        sim = self.sim
        period = self._period
        arrival = now + self._channel_latency
        pipes = self._pipes
        wheel = self._wheel
        eject = sim.on_flit_ejected
        done = None
        for out in staged_ports:
            is_channel = out.kind == CHANNEL_PORT
            if is_channel and now < out.next_free:
                continue
            staging = out.staging
            num_vcs = out.num_vcs
            credits = out.credits
            for vc in out.rotations[out.wire_pointer]:
                queue = staging[vc]
                if not queue or credits[vc] <= 0:
                    continue
                flit = queue.popleft()
                out.wire_pointer = (vc + 1) % num_vcs
                if is_channel:
                    credits[vc] -= 1
                    out.next_free = now + period
                    if flit.is_head:
                        flit.packet.hops += 1
                    pipe = pipes[out.channel_index]
                    # Inline of pipe.push_flit(flit, vc, arrival).
                    pipe.flits.append((arrival, flit, vc))
                    slot = wheel.get(arrival)
                    if slot is None:
                        wheel[arrival] = {pipe: None}
                    else:
                        slot[pipe] = None
                else:
                    eject(flit, now)
                break
            if not any(staging):
                if done is None:
                    done = [out]
                else:
                    done.append(out)
        if done is not None:
            for out in done:
                del staged_ports[out]
            if not staged_ports:
                del sim._wire_engines[self.router_id]

    def staged_flits(self) -> int:
        """Flits currently staged at this router's output ports."""
        return sum(out.staged_flits() for out in self.out_ports)

    def quiescent(self) -> bool:
        """True when no flits are buffered or staged at this router."""
        return not self.active and not self._staged_ports

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RouterEngine {self.router_id} active={len(self.active)}>"
