"""Fault-masked topology view and connectivity analysis.

A :class:`FaultedTopologyView` presents the surviving structure of a
topology under the failed links of a :class:`~repro.faults.model.
FaultSet`.  It answers the graph-level questions — which channels
survive, which router pairs stay connected, which terminal pairs are
severed — that the resilience experiments report alongside the
routing-level undeliverable-packet accounting.

Graph connectivity is necessary but not sufficient for deliverability:
a minimal-only algorithm may be unable to reach a destination that is
still connected through non-minimal paths.  The routing-level answer
lives with the fault-aware algorithms
(:meth:`~repro.core.routing.base.RoutingAlgorithm.deliverable`); this
module is the algorithm-independent upper bound.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from ..topologies.base import Channel, Topology
from .model import FaultSet


class FaultedTopologyView:
    """The surviving structure of ``topology`` under ``fault_set``."""

    def __init__(self, topology: Topology, fault_set: FaultSet) -> None:
        self.topology = topology
        self.fault_set = fault_set
        failed = fault_set.failed_channels
        self.alive_channels: List[Channel] = [
            channel
            for channel in topology.channels
            if channel.index not in failed
        ]
        self._out_alive: List[List[Channel]] = [
            [] for _ in range(topology.num_routers)
        ]
        for channel in self.alive_channels:
            self._out_alive[channel.src].append(channel)
        self._reach_cache: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def out_channels(self, router: int) -> Sequence[Channel]:
        """Surviving channels leaving ``router``."""
        return self._out_alive[router]

    def channel_alive(self, channel: Channel) -> bool:
        return channel.index not in self.fault_set.failed_channels

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def reachable_routers(self, src_router: int) -> FrozenSet[int]:
        """Routers reachable from ``src_router`` over surviving
        channels (BFS; memoized per source)."""
        cached = self._reach_cache.get(src_router)
        if cached is not None:
            return cached
        seen = {src_router}
        frontier = deque((src_router,))
        out = self._out_alive
        while frontier:
            here = frontier.popleft()
            for channel in out[here]:
                if channel.dst not in seen:
                    seen.add(channel.dst)
                    frontier.append(channel.dst)
        result = frozenset(seen)
        self._reach_cache[src_router] = result
        return result

    def connected(self, src_router: int, dst_router: int) -> bool:
        """Whether any surviving path links the two routers."""
        return dst_router in self.reachable_routers(src_router)

    def terminal_pair_connected(
        self, src_terminal: int, dst_terminal: int
    ) -> bool:
        """Whether traffic from ``src_terminal`` can structurally reach
        ``dst_terminal``: the ejection router is reachable from the
        injection router."""
        return self.connected(
            self.topology.injection_router(src_terminal),
            self.topology.ejection_router(dst_terminal),
        )

    def disconnected_terminal_pairs(self) -> int:
        """Number of ordered terminal pairs ``(s, d)``, ``s != d``,
        that the surviving network cannot connect.

        Aggregated over router pairs (one BFS per injection router), so
        the cost is terminals + routers * channels, not terminals**2
        BFS runs.
        """
        topo = self.topology
        disconnected = 0
        # Terminals grouped by injection / ejection router.
        inject_count: Dict[int, int] = {}
        eject_count: Dict[int, int] = {}
        for t in range(topo.num_terminals):
            inject_count[topo.injection_router(t)] = (
                inject_count.get(topo.injection_router(t), 0) + 1
            )
            eject_count[topo.ejection_router(t)] = (
                eject_count.get(topo.ejection_router(t), 0) + 1
            )
        for src_router, n_src in inject_count.items():
            reach = self.reachable_routers(src_router)
            for dst_router, n_dst in eject_count.items():
                if dst_router in reach:
                    continue
                disconnected += n_src * n_dst
        # Unreachable self-pairs were never counted: (s, s) is excluded
        # by definition, and same-terminal injection/ejection routers
        # are reachable from themselves (hop count 0), for every
        # topology in this library.
        return disconnected

    def severed_pairs(self) -> Iterator[Tuple[int, int]]:
        """Ordered terminal pairs the surviving network cannot connect
        (the explicit enumeration of
        :meth:`disconnected_terminal_pairs`; quadratic in terminals)."""
        topo = self.topology
        for s in range(topo.num_terminals):
            for d in range(topo.num_terminals):
                if s != d and not self.terminal_pair_connected(s, d):
                    yield (s, d)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FaultedTopologyView {self.topology.name}: "
            f"{len(self.alive_channels)}/{len(self.topology.channels)} "
            f"channels alive>"
        )
