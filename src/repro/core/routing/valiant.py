"""VAL: Valiant's non-minimal oblivious algorithm on the flattened
butterfly.

"Valiant's algorithm load balances traffic by converting any traffic
pattern into two phases of random traffic.  It operates by picking a
random intermediate node b, routing minimally from s to b, and then
routing minimally from b to d. ... our evaluation uses dimension order
routing.  Two VCs, one for each phase, are needed to avoid deadlock."
(Section 3.1)

The intermediate is drawn uniformly over routers; visiting a specific
terminal of the intermediate router is unnecessary since the packet
never leaves the network there.  Phase 0 (towards the intermediate)
uses VC 1 and phase 1 (towards the destination) uses VC 0, so VC
priority strictly decreases along any route, which together with
dimension order within each phase keeps the channel-dependency graph
acyclic for any number of dimensions.
"""

from __future__ import annotations

from typing import Tuple

from ...topologies.hyperx import HyperX
from .base import RoutingAlgorithm
from .dor import dor_next_channel
from .table import shared_route_table

PHASE_TO_INTERMEDIATE = 0
PHASE_TO_DESTINATION = 1


class Valiant(RoutingAlgorithm):
    """VAL on a flattened butterfly (oblivious, greedy allocator)."""

    name = "VAL"
    num_vcs = 2
    sequential = False
    # A Valiant-phase packet may pass *through* its destination router
    # on the way to the intermediate, so at-destination heads cannot be
    # ejected without consulting the phase.
    inline_eject = False

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, HyperX):
            raise TypeError(f"{self.name} requires a HyperX-family topology")
        self._route_table = shared_route_table(self.topology)

    def on_packet_created(self, packet) -> None:
        packet.intermediate = self.rng.randrange(self.topology.num_routers)
        packet.phase = PHASE_TO_INTERMEDIATE

    def route(self, engine, packet) -> Tuple[int, int]:
        current = engine.router_id
        if packet.phase == PHASE_TO_INTERMEDIATE and current == packet.intermediate:
            packet.phase = PHASE_TO_DESTINATION
        if packet.phase == PHASE_TO_DESTINATION and current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        if packet.phase == PHASE_TO_INTERMEDIATE:
            target = packet.intermediate
            vc = 1
        else:
            target = packet.dst_router
            vc = 0
        channel, _ = dor_next_channel(self.topology, current, target)
        return engine.port_for_channel(channel), vc

    def route_event(self, engine, packet) -> Tuple[int, int]:
        """Same decision as :meth:`route` with the dimension-order hop
        looked up in the shared route table (DOR is oblivious: no draws,
        no cost reads, so the table hit is trivially bit-identical)."""
        table = self._route_table
        current = engine.router_id
        if packet.phase == PHASE_TO_INTERMEDIATE and current == packet.intermediate:
            packet.phase = PHASE_TO_DESTINATION
        if packet.phase == PHASE_TO_DESTINATION and current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        if packet.phase == PHASE_TO_INTERMEDIATE:
            return table.dor_next(current, packet.intermediate)[0], 1
        return table.dor_next(current, packet.dst_router)[0], 0
