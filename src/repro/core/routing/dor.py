"""Dimension-order helpers for the flattened butterfly.

Dimension-order routing (DOR) corrects differing address digits in
ascending dimension order.  On a flattened butterfly each dimension is
traversed at most once and dimensions are visited in a fixed order, so
the channel-dependency graph is acyclic and DOR is deadlock-free on a
single virtual channel.  Valiant's algorithm uses DOR within each of
its two phases (Section 3.1).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...topologies.hyperx import HyperX
from ...topologies.base import Channel
from .base import RoutingAlgorithm


def first_differing_dim(
    topology: HyperX, current: int, target: int
) -> Optional[int]:
    """Lowest paper dimension (1-based) in which ``current`` and
    ``target`` routers differ, or None if equal."""
    for d in range(1, topology.num_dims + 1):
        if topology.coord_digit(current, d) != topology.coord_digit(target, d):
            return d
    return None


def dor_next_channel(
    topology: HyperX, current: int, target: int
) -> Tuple[Channel, int]:
    """Next DOR channel from ``current`` towards ``target`` and the
    number of inter-router hops remaining (including this one)."""
    remaining = topology.min_router_hops(current, target)
    d = first_differing_dim(topology, current, target)
    if d is None:
        raise ValueError(f"router {current} is already the target")
    channel = topology.channel_to(current, d, topology.coord_digit(target, d))
    return channel, remaining


class DimensionOrder(RoutingAlgorithm):
    """Oblivious minimal dimension-order routing on a flattened
    butterfly.

    Not one of the paper's five evaluated algorithms, but the natural
    "MIN" reference: on the worst-case pattern it exhibits exactly the
    1/k throughput collapse that motivates non-minimal routing, and it
    matches the conventional butterfly's behaviour (Section 3.3).
    """

    name = "DOR"
    num_vcs = 1
    sequential = False

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, HyperX):
            raise TypeError(f"{self.name} requires a HyperX-family topology")
        from .table import shared_route_table

        self._route_table = shared_route_table(self.topology)

    def route(self, engine, packet):
        current = engine.router_id
        if current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        channel, _ = dor_next_channel(self.topology, current, packet.dst_router)
        return engine.port_for_channel(channel), 0

    def route_event(self, engine, packet):
        """:meth:`route` with the unique DOR hop looked up in the
        shared route table (oblivious — no draws to preserve)."""
        current = engine.router_id
        if current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        return self._route_table.dor_next(current, packet.dst_router)[0], 0
