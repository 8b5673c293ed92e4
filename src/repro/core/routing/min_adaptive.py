"""MIN AD: minimal adaptive routing on the flattened butterfly.

"The minimal adaptive algorithm operates by choosing for the next hop
the productive channel with the shortest queue.  To prevent deadlock,
n' virtual channels are used with the VC channel selected based on the
number of hops remaining to the destination." (Section 3.1)

The VC index is ``hops_remaining - 1``, which strictly decreases along
any route, making the channel-dependency graph acyclic.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ...topologies.hyperx import HyperX
from ...topologies.base import Channel
from .base import RoutingAlgorithm
from .table import shared_route_table


def pick_min_cost(candidates, rng: random.Random):
    """Choose the candidate with the smallest ``(cost, tie)`` pair,
    breaking exact ties uniformly at random.

    ``candidates`` yields ``(cost, tie, payload)`` tuples; ``tie`` is a
    secondary deterministic criterion (typically hop count).
    """
    best = None
    best_key = None
    ties = 0
    for cost, tie, payload in candidates:
        key = (cost, tie)
        if best_key is None or key < best_key:
            best_key = key
            best = payload
            ties = 1
        elif key == best_key:
            # Reservoir sampling over equal-cost candidates.
            ties += 1
            if rng.random() * ties < 1.0:
                best = payload
    if best is None:
        raise ValueError("no candidates to choose from")
    return best


class MinimalAdaptive(RoutingAlgorithm):
    """MIN AD on a flattened butterfly (greedy allocator)."""

    name = "MIN AD"
    sequential = False

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, HyperX):
            raise TypeError(f"{self.name} requires a HyperX-family topology")
        self.num_vcs = self.topology.num_dims
        # Minimal-route candidates and hop counts are pure functions of
        # the topology, so they are computed once per router pair in the
        # shared per-topology RouteTable; only the occupancy comparison
        # (and its RNG tie-breaks) runs per routing decision.
        self._route_table = shared_route_table(self.topology)

    def productive_channels(self, current: int, dst_router: int) -> List[Channel]:
        """All channels that are part of a minimal route from
        ``current`` to ``dst_router``."""
        topo = self.topology
        channels: List[Channel] = []
        for d in topo.differing_dims(current, dst_router):
            nbr = topo.neighbor(current, d, topo.coord_digit(dst_router, d))
            channels.extend(topo.channels_between(current, nbr))
        return channels

    def route(self, engine, packet) -> Tuple[int, int]:
        current = engine.router_id
        if current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        hops_remaining = self.topology.min_router_hops(current, packet.dst_router)
        vc = hops_remaining - 1
        channel = pick_min_cost(
            (
                (engine.channel_occupancy(ch), 0, ch)
                for ch in self.productive_channels(current, packet.dst_router)
            ),
            self.rng,
        )
        return engine.port_for_channel(channel), vc

    def route_event(self, engine, packet) -> Tuple[int, int]:
        """Same decision as :meth:`route`, with the per-pair candidate
        set read from the shared route table.

        The costs compared, their order, and the tie-break draws from
        the shared route RNG are identical to :meth:`route`
        (``pick_min_cost`` draws nothing for a lone candidate, so the
        single-candidate fast path is RNG-transparent)."""
        current = engine.router_id
        if current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        vc, candidates = self._route_table.minimal(current, packet.dst_router)
        if len(candidates) == 1:
            return candidates[0][0], vc
        # Inline of pick_min_cost over (occ, 0, port) triples: the
        # secondary tie key is constant, so comparing the raw costs
        # performs the identical comparisons and reservoir draws.
        out_ports = engine.out_ports
        rng = self.rng
        best = -1
        best_cost = None
        ties = 0
        for p, _ch in candidates:
            cost = out_ports[p].occ
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = p
                ties = 1
            elif cost == best_cost:
                ties += 1
                if rng.random() * ties < 1.0:
                    best = p
        return best, vc
