"""UGAL and UGAL-S on the flattened butterfly.

"UGAL chooses between MIN AD and VAL on a packet-by-packet basis to
minimize the estimated delay for each packet.  The product of queue
length and hop count is used as an estimate of delay." (Section 3.1)

The choice is made once, at the packet's source router.  Minimal
packets are thereafter routed exactly like MIN AD (adaptive, VC =
hops-remaining - 1); non-minimal packets are routed exactly like VAL
(dimension order to a random intermediate router on a dedicated
top-priority VC, then dimension order to the destination on the
hops-remaining VCs).  ``n' + 1`` virtual channels suffice: VC priority
strictly decreases along every route, so the channel-dependency graph
is acyclic.  For the paper's one-dimensional evaluation network this is
the familiar two-VC configuration.

UGAL uses a greedy allocator; UGAL-S is identical but with a
sequential allocator, which removes the transient load imbalance of
greedy allocation (Figure 5).
"""

from __future__ import annotations

from typing import Tuple

from ...topologies.hyperx import HyperX
from .base import RoutingAlgorithm
from .dor import dor_next_channel
from .min_adaptive import MinimalAdaptive, pick_min_cost
from .table import shared_route_table

PHASE_TO_INTERMEDIATE = 0
PHASE_TO_DESTINATION = 1


class UGAL(RoutingAlgorithm):
    """UGAL with a greedy allocator.

    Args:
        threshold: minimal-path bias in flits.  The packet routes
            minimally unless the Valiant estimate undercuts the minimal
            estimate by more than this margin, preventing misroutes on
            marginal (single-flit) queue differences at low load.
    """

    name = "UGAL"
    sequential = False
    # Packets sent the Valiant way may pass through their destination
    # router en route to the intermediate (see Valiant.inline_eject).
    inline_eject = False

    def __init__(self, threshold: int = 1) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, HyperX):
            raise TypeError(f"{self.name} requires a HyperX-family topology")
        # One VC per remaining-hop level plus a dedicated VC for the
        # Valiant to-intermediate phase.
        self.num_vcs = self.topology.num_dims + 1
        self._minimal = MinimalAdaptive()
        self._minimal.attach(simulator)
        self._route_table = shared_route_table(self.topology)

    # ------------------------------------------------------------------
    def _decide(self, engine, packet) -> None:
        """Source-router choice between minimal and Valiant routing:
        the reference that :meth:`route_event`'s table decision must
        reproduce exactly, draws included."""
        topo = self.topology
        current = engine.router_id
        dst = packet.dst_router
        rng = self.rng
        # Minimal candidate: MIN AD's channel choice.
        h_min = topo.min_router_hops(current, dst)
        min_channel = pick_min_cost(
            (
                (engine.channel_occupancy(ch), 0, ch)
                for ch in self._minimal.productive_channels(current, dst)
            ),
            rng,
        )
        q_min = engine.channel_occupancy(min_channel)
        # Valiant candidate: one uniformly random intermediate router.
        intermediate = rng.randrange(topo.num_routers)
        if intermediate in (current, dst):
            # Degenerate intermediate: the non-minimal path collapses
            # onto the minimal one, so route minimally.
            packet.minimal = True
            return
        h_val = topo.min_router_hops(current, intermediate) + topo.min_router_hops(
            intermediate, dst
        )
        val_channel, _ = dor_next_channel(topo, current, intermediate)
        q_val = engine.channel_occupancy(val_channel)
        if q_min * h_min <= q_val * h_val + self.threshold:
            packet.minimal = True
        else:
            packet.minimal = False
            packet.intermediate = intermediate

    def route(self, engine, packet) -> Tuple[int, int]:
        topo = self.topology
        current = engine.router_id
        if packet.minimal is None:
            if current == packet.dst_router:
                return engine.ejection_port(packet.dst), 0
            self._decide(engine, packet)
        if packet.minimal:
            return self._minimal.route(engine, packet)
        # Valiant mode.
        if packet.phase == PHASE_TO_INTERMEDIATE and current == packet.intermediate:
            packet.phase = PHASE_TO_DESTINATION
        if packet.phase == PHASE_TO_DESTINATION and current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        if packet.phase == PHASE_TO_INTERMEDIATE:
            channel, _ = dor_next_channel(topo, current, packet.intermediate)
            return engine.port_for_channel(channel), topo.num_dims
        channel, remaining = dor_next_channel(topo, current, packet.dst_router)
        return engine.port_for_channel(channel), remaining - 1

    def route_event(self, engine, packet) -> Tuple[int, int]:
        """Same decision as :meth:`route`, served from the shared route
        table.

        The source-router decision reads the minimal row and the
        Valiant DOR hop once and returns the chosen hop directly.  It
        compares the same occupancies in the same order as
        :meth:`_decide`, and takes the same draws from the shared route
        RNG: the reservoir tie-breaks of the minimal estimate, then the
        intermediate (``_randbelow`` is exactly ``randrange``'s draw).
        Later hops use MIN AD's event path or the table's DOR hops."""
        table = self._route_table
        current = engine.router_id
        minimal = packet.minimal
        if minimal is None:
            dst = packet.dst_router
            if current == dst:
                return engine.ejection_port(packet.dst), 0
            vc_min, candidates = table.minimal(current, dst)
            out_ports = engine.out_ports
            rng = self.rng
            # pick_min_cost over (occ, 0, port): constant secondary
            # key, so comparing the raw occupancies performs the same
            # comparisons and draws.  Only the best cost matters here.
            best = -1
            q_min = None
            tied = False
            for p, _ch in candidates:
                cost = out_ports[p].occ
                if q_min is None or cost < q_min:
                    q_min = cost
                    best = p
                elif cost == q_min:
                    rng.random()
                    tied = True
            topo = self.topology
            intermediate = rng._randbelow(topo.num_routers)
            if intermediate != current and intermediate != dst:
                val_port, _ch, h_val = table.dor_next(current, intermediate)
                h_val += table.hops(intermediate, dst)
                if (
                    q_min * (vc_min + 1)
                    > out_ports[val_port].occ * h_val + self.threshold
                ):
                    packet.minimal = False
                    packet.intermediate = intermediate
                    return val_port, topo.num_dims
            packet.minimal = True
            if tied:
                # MIN AD's pick redraws the ties at unchanged
                # occupancies; without ties it draws nothing and picks
                # ``best``.
                return self._minimal.route_event(engine, packet)
            return best, vc_min
        if minimal:
            if current == packet.dst_router:
                # MIN AD's at-destination answer, without the hand-off.
                return engine._ej_port_of_terminal[packet.dst], 0
            return self._minimal.route_event(engine, packet)
        if packet.phase == PHASE_TO_INTERMEDIATE and current == packet.intermediate:
            packet.phase = PHASE_TO_DESTINATION
        if packet.phase == PHASE_TO_DESTINATION and current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        if packet.phase == PHASE_TO_INTERMEDIATE:
            return (
                table.dor_next(current, packet.intermediate)[0],
                self.topology.num_dims,
            )
        port, _channel, remaining = table.dor_next(current, packet.dst_router)
        return port, remaining - 1


class UGALSequential(UGAL):
    """UGAL-S: UGAL with a sequential allocator (Section 3.1)."""

    name = "UGAL-S"
    sequential = True
