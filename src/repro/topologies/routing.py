"""Routing algorithms for the baseline topologies (Table 1).

* Conventional butterfly — destination-based (destination-tag)
  routing, the unique path, one VC.
* Folded Clos — adaptive sequential routing per Kim et al. [13]: the
  up-path picks the least-occupied uplink under a sequential
  allocator, the down-path is deterministic; one VC (the up/down
  discipline is acyclic).
* Hypercube — e-cube (dimension order), one VC.
"""

from __future__ import annotations

from typing import Tuple

from ..core.routing.base import RoutingAlgorithm
from ..core.routing.min_adaptive import pick_min_cost
from ..core.routing.table import shared_route_table
from .butterfly import Butterfly
from .folded_clos import FoldedClos
from .hypercube import Hypercube


class DestinationTag(RoutingAlgorithm):
    """Destination-based routing on a conventional butterfly."""

    name = "dest-tag"
    num_vcs = 1
    sequential = False

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, Butterfly):
            raise TypeError(f"{self.name} requires a Butterfly")
        self._route_table = shared_route_table(self.topology)

    def route(self, engine, packet) -> Tuple[int, int]:
        topo = self.topology
        current = engine.router_id
        if topo.stage_of(current) == topo.n - 1:
            return engine.ejection_port(packet.dst), 0
        channel = topo.destination_tag_next(current, packet.dst)
        return engine.port_for_channel(channel), 0

    def route_event(self, engine, packet) -> Tuple[int, int]:
        """:meth:`route` with the unique destination-tag hop looked up
        in the shared route table (deterministic, so trivially
        bit-identical; valid under faults too — the butterfly has no
        alternative path to mask, undeliverable pairs are dropped at
        creation)."""
        table = self._route_table
        topo = self.topology
        current = engine.router_id
        if topo.stage_of(current) == topo.n - 1:
            return engine.ejection_port(packet.dst), 0
        return table.destination_tag_next(current, packet.dst), 0


class FoldedClosAdaptive(RoutingAlgorithm):
    """Adaptive up / deterministic down routing on a two-level folded
    Clos, with a sequential allocator [13]."""

    name = "clos-adaptive"
    num_vcs = 1
    sequential = True

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, FoldedClos):
            raise TypeError(f"{self.name} requires a FoldedClos")

    def route(self, engine, packet) -> Tuple[int, int]:
        topo = self.topology
        current = engine.router_id
        dst_leaf = topo.leaf_of_terminal(packet.dst)
        if topo.is_spine(current):
            return engine.port_for_channel(topo.downlink(current, dst_leaf)), 0
        if current == dst_leaf:
            return engine.ejection_port(packet.dst), 0
        uplink = pick_min_cost(
            (
                (engine.channel_occupancy(ch), 0, ch)
                for ch in topo.uplinks(current)
            ),
            self.rng,
        )
        return engine.port_for_channel(uplink), 0


class ECube(RoutingAlgorithm):
    """e-cube (dimension order) routing on a binary hypercube."""

    name = "e-cube"
    num_vcs = 1
    sequential = False

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, Hypercube):
            raise TypeError(f"{self.name} requires a Hypercube")

    def route(self, engine, packet) -> Tuple[int, int]:
        current = engine.router_id
        if current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        channel = self.topology.ecube_next(current, packet.dst_router)
        return engine.port_for_channel(channel), 0
