"""Fault-aware routing: candidate filtering around failed links.

Each class here wraps one of the library's routing algorithms with the
minimum machinery needed to survive a :class:`~repro.faults.model.
FaultSet`:

* **Failed channels** are excluded from every candidate set, and
  candidates are additionally filtered to next-hops from which the
  destination remains reachable under the algorithm's own path
  discipline (minimal for MIN AD, dimension-order per phase for
  UGAL's Valiant mode, up/down for the folded Clos) — a packet is
  never routed into a dead end.  Routing is the only place an output
  channel is chosen, so no flit ever crosses a failed channel.
* :meth:`~repro.core.routing.base.RoutingAlgorithm.deliverable`
  reports whether the algorithm can route a terminal pair at all under
  the failures.  The simulator consults it at packet creation and
  accounts an undeliverable packet instead of injecting it, which is
  what keeps the drain phase terminating on disconnected networks.

Every wrapper degrades to its base algorithm bit-for-bit when the
simulation carries no fault set, so a trivial
:class:`~repro.faults.model.FaultModel` reproduces fault-free results
exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.routing.base import RoutingAlgorithm
from ..core.routing.dor import first_differing_dim
from ..core.routing.min_adaptive import MinimalAdaptive, pick_min_cost
from ..core.routing.table import shared_route_table
from ..core.routing.ugal import (
    PHASE_TO_DESTINATION,
    PHASE_TO_INTERMEDIATE,
    UGAL,
)
from ..topologies.base import Channel
from ..topologies.routing import DestinationTag, FoldedClosAdaptive
from .model import FaultSet


def _fault_set(simulator) -> Optional[FaultSet]:
    """The simulator's fault set, if any (None on fault-free runs)."""
    return getattr(simulator, "fault_set", None)


class _DorFaultHelper:
    """Dimension-order path analysis under failed links (UGAL's
    Valiant mode).

    DOR visits dimensions in ascending order and uses, per hop, the
    first *surviving* channel toward the required digit.  The path is
    therefore unique given the fault set, and a path is alive iff every
    hop has at least one surviving channel.
    """

    def _dor_init(self, topology, faults: FaultSet) -> None:
        self._dor_topology = topology
        self._dor_faults = faults
        self._dor_alive_cache: Dict[Tuple[int, int], bool] = {}
        self._feasible_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # (current, target) -> (channel | None, remaining): the masked
        # counterpart of RouteTable.dor_next.  The failures are fixed
        # for the simulation, so the surviving hop is a pure function
        # of the pair and safe to memoize.
        self._dor_hop_cache: Dict[Tuple[int, int], Tuple[Optional[Channel], int]] = {}

    def _alive_channel_to(
        self, current: int, dim: int, value: int
    ) -> Optional[Channel]:
        """First surviving channel from ``current`` toward digit
        ``value`` of ``dim``, or None if all parallels failed."""
        topo = self._dor_topology
        failed = self._dor_faults.failed_channels
        for channel in topo.channels_between(
            current, topo.neighbor(current, dim, value)
        ):
            if channel.index not in failed:
                return channel
        return None

    def _dor_next_alive(
        self, current: int, target: int
    ) -> Tuple[Optional[Channel], int]:
        """Next surviving DOR channel toward ``target`` and the hops
        remaining, or ``(None, hops)`` when the required hop is dead."""
        topo = self._dor_topology
        remaining = topo.min_router_hops(current, target)
        d = first_differing_dim(topo, current, target)
        if d is None:
            raise ValueError(f"router {current} is already the target")
        return (
            self._alive_channel_to(current, d, topo.coord_digit(target, d)),
            remaining,
        )

    def _dor_hop(
        self, current: int, target: int
    ) -> Tuple[Optional[Channel], int]:
        """Memoized :meth:`_dor_next_alive` (identical return value)."""
        key = (current, target)
        entry = self._dor_hop_cache.get(key)
        if entry is None:
            entry = self._dor_next_alive(current, target)
            self._dor_hop_cache[key] = entry
        return entry

    def _dor_alive(self, src_router: int, dst_router: int) -> bool:
        """Whether the unique DOR route survives the failures."""
        key = (src_router, dst_router)
        cached = self._dor_alive_cache.get(key)
        if cached is not None:
            return cached
        alive = True
        current = src_router
        while alive and current != dst_router:
            channel, _ = self._dor_next_alive(current, dst_router)
            if channel is None:
                alive = False
            else:
                current = channel.dst
        self._dor_alive_cache[key] = alive
        return alive

    def _feasible_intermediates(
        self, src_router: int, dst_router: int
    ) -> Tuple[int, ...]:
        """Routers usable as a Valiant intermediate: both DOR phases
        survive the failures."""
        key = (src_router, dst_router)
        cached = self._feasible_cache.get(key)
        if cached is None:
            cached = tuple(
                i
                for i in range(self._dor_topology.num_routers)
                if self._dor_alive(src_router, i)
                and self._dor_alive(i, dst_router)
            )
            self._feasible_cache[key] = cached
        return cached


class FaultAwareMinimalAdaptive(MinimalAdaptive):
    """MIN AD restricted to surviving minimal paths.

    A productive channel is a candidate only if it survives and the
    destination stays minimally reachable from its far end; pairs with
    no surviving minimal path are undeliverable (minimal routing buys
    no fault tolerance beyond the minimal path diversity itself —
    exactly the contrast the resilience experiment measures against
    UGAL's non-minimal fallback).
    """

    name = "MIN AD (FT)"
    fault_aware = True

    def attach(self, simulator) -> None:
        super().attach(simulator)
        self._faults = _fault_set(simulator)
        self._reach_cache: Dict[Tuple[int, int], bool] = {}
        # (current, dst_router) -> (vc, ((port, channel), ...)): the
        # fault mask over RouteTable.minimal — surviving, non-dead-end
        # candidates in the table's order.  Only the candidate *set* is
        # cached; costs are still read per decision.
        self._masked_cache: Dict[Tuple[int, int], Tuple[int, tuple]] = {}

    # ------------------------------------------------------------------
    def minimally_reachable(self, current: int, dst_router: int) -> bool:
        """Whether a surviving minimal route links the two routers."""
        if self._faults is None:
            return True
        if current == dst_router:
            return True
        key = (current, dst_router)
        cached = self._reach_cache.get(key)
        if cached is None:
            # Memoize False during the walk so the recursion (depth <=
            # num_dims, strictly decreasing hop count) stays linear.
            self._reach_cache[key] = cached = any(
                self.minimally_reachable(ch.dst, dst_router)
                for ch in self._surviving_productive(current, dst_router)
            )
        return cached

    def _surviving_productive(
        self, current: int, dst_router: int
    ) -> List[Channel]:
        failed = self._faults.failed_channels
        return [
            ch
            for ch in self.productive_channels(current, dst_router)
            if ch.index not in failed
        ]

    def _masked_minimal(self, current: int, dst_router: int):
        """``(vc, ((port, channel), ...))``: the shared table's minimal
        entry masked by the failures — the surviving candidates
        that do not dead-end, in the table's order."""
        key = (current, dst_router)
        entry = self._masked_cache.get(key)
        if entry is None:
            vc, candidates = self._route_table.minimal(current, dst_router)
            failed = self._faults.failed_channels
            kept = tuple(
                (port, ch)
                for port, ch in candidates
                if ch.index not in failed
                and self.minimally_reachable(ch.dst, dst_router)
            )
            entry = (vc, kept)
            self._masked_cache[key] = entry
        return entry

    def route(self, engine, packet) -> Tuple[int, int]:
        if self._faults is None:
            return super().route(engine, packet)
        current = engine.router_id
        if current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        vc, pairs = self._masked_minimal(current, packet.dst_router)
        if not pairs:
            raise AssertionError(
                f"router {current}: no surviving minimal route to "
                f"{packet.dst_router}; packet {packet.pid} should have been "
                f"accounted undeliverable at creation"
            )
        occupancy = engine.channel_occupancy
        return (
            pick_min_cost(
                ((occupancy(ch), 0, port) for port, ch in pairs), self.rng
            ),
            vc,
        )

    def route_event(self, engine, packet) -> Tuple[int, int]:
        # The table fast path serves the healthy candidate row; under
        # faults take the masked reference ``route()`` decision.
        if self._faults is None:
            return super().route_event(engine, packet)
        return self.route(engine, packet)

    def deliverable(self, src_terminal: int, dst_terminal: int) -> bool:
        if self._faults is None:
            return True
        return self.minimally_reachable(
            self.topology.injection_router(src_terminal),
            self.topology.ejection_router(dst_terminal),
        )


class FaultAwareUGAL(UGAL, _DorFaultHelper):
    """UGAL choosing among the *surviving* minimal and Valiant options.

    The source-router decision compares the fault-filtered MIN AD
    candidate against a feasible Valiant intermediate, falling back to
    whichever mode survives when the other is severed — this is where
    the flattened butterfly's path diversity turns into measured fault
    tolerance.
    """

    name = "UGAL (FT)"
    fault_aware = True

    def attach(self, simulator) -> None:
        RoutingAlgorithm.attach(self, simulator)
        from ..topologies.hyperx import HyperX

        if not isinstance(self.topology, HyperX):
            raise TypeError(f"{self.name} requires a HyperX-family topology")
        self.num_vcs = self.topology.num_dims + 1
        self._minimal = FaultAwareMinimalAdaptive()
        self._minimal.attach(simulator)
        self._faults = _fault_set(simulator)
        self._route_table = shared_route_table(self.topology)
        if self._faults is not None:
            self._dor_init(self.topology, self._faults)
            # (current, dst) -> feasible intermediates minus the
            # degenerate endpoints, as _decide enumerates them.
            self._feasible_proper_cache: Dict[
                Tuple[int, int], List[int]
            ] = {}

    # ------------------------------------------------------------------
    def _feasible_proper(self, current: int, dst: int) -> List[int]:
        """Feasible intermediates excluding the degenerate endpoints,
        memoized (pure function of the failures)."""
        key = (current, dst)
        feasible = self._feasible_proper_cache.get(key)
        if feasible is None:
            feasible = [
                i
                for i in self._feasible_intermediates(current, dst)
                if i not in (current, dst)
            ]
            self._feasible_proper_cache[key] = feasible
        return feasible

    def _decide(self, engine, packet) -> None:
        if self._faults is None:
            return super()._decide(engine, packet)
        topo = self.topology
        current = engine.router_id
        dst = packet.dst_router
        occupancy = engine.channel_occupancy
        min_candidates = [
            ch for _port, ch in self._minimal._masked_minimal(current, dst)[1]
        ]
        feasible = self._feasible_proper(current, dst)
        if not min_candidates and not feasible:
            raise AssertionError(
                f"packet {packet.pid} has neither a minimal nor a Valiant "
                f"route from router {current}; deliverable() should have "
                f"gated it"
            )
        if not feasible:
            packet.minimal = True
            return
        if not min_candidates:
            packet.minimal = False
            packet.intermediate = feasible[
                self.rng.randrange(len(feasible))
            ]
            return
        # Both modes survive: the paper's queue-times-hops comparison,
        # over fault-filtered candidates.
        h_min = topo.min_router_hops(current, dst)
        min_channel = pick_min_cost(
            ((occupancy(ch), 0, ch) for ch in min_candidates),
            self.rng,
        )
        q_min = occupancy(min_channel)
        intermediate = feasible[self.rng.randrange(len(feasible))]
        h_val = topo.min_router_hops(current, intermediate) + topo.min_router_hops(
            intermediate, dst
        )
        val_channel, _ = self._dor_hop(current, intermediate)
        q_val = occupancy(val_channel)
        if q_min * h_min <= q_val * h_val + self.threshold:
            packet.minimal = True
        else:
            packet.minimal = False
            packet.intermediate = intermediate

    def route(self, engine, packet) -> Tuple[int, int]:
        if self._faults is None:
            return super().route(engine, packet)
        topo = self.topology
        current = engine.router_id
        if packet.minimal is None:
            if current == packet.dst_router:
                return engine.ejection_port(packet.dst), 0
            self._decide(engine, packet)
        if packet.minimal:
            return self._minimal.route(engine, packet)
        if packet.phase == PHASE_TO_INTERMEDIATE and current == packet.intermediate:
            packet.phase = PHASE_TO_DESTINATION
        if packet.phase == PHASE_TO_DESTINATION and current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        if packet.phase == PHASE_TO_INTERMEDIATE:
            channel, _ = self._dor_hop(current, packet.intermediate)
            if channel is None:
                raise AssertionError(
                    f"router {current}: severed DOR hop toward intermediate "
                    f"{packet.intermediate}"
                )
            return engine.port_for_channel(channel), topo.num_dims
        channel, remaining = self._dor_hop(current, packet.dst_router)
        if channel is None:
            raise AssertionError(
                f"router {current}: severed DOR hop toward destination "
                f"{packet.dst_router}"
            )
        return engine.port_for_channel(channel), remaining - 1

    def route_event(self, engine, packet) -> Tuple[int, int]:
        # UGAL's table route_event decides over the *healthy* minimal
        # row and takes healthy DOR hops for the Valiant phase; under
        # faults the masked path in route() must run instead (its
        # minimal branch still hits the masked-table candidate cache
        # through self._minimal).
        if self._faults is None:
            return super().route_event(engine, packet)
        return self.route(engine, packet)

    def deliverable(self, src_terminal: int, dst_terminal: int) -> bool:
        if self._faults is None:
            return True
        src_router = self.topology.injection_router(src_terminal)
        dst_router = self.topology.ejection_router(dst_terminal)
        if self._minimal.minimally_reachable(src_router, dst_router):
            return True
        return any(
            i not in (src_router, dst_router)
            for i in self._feasible_intermediates(src_router, dst_router)
        )


class FaultAwareDestinationTag(DestinationTag):
    """Destination-tag routing on a faulted conventional butterfly.

    The butterfly has exactly one path per terminal pair, so there is
    nothing to filter: the wrapper merely *detects* that the unique
    path died and reports the pair undeliverable — the zero-path-
    diversity baseline of the resilience comparison.
    """

    name = "dest-tag (FT)"
    fault_aware = True

    def attach(self, simulator) -> None:
        super().attach(simulator)
        self._faults = _fault_set(simulator)
        self._path_cache: Dict[Tuple[int, int], bool] = {}

    def _path_alive(self, src_router: int, dst_terminal: int) -> bool:
        topo = self.topology
        # The path depends only on the destination's position address.
        key = (src_router, dst_terminal // topo.k)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        failed_channels = self._faults.failed_channels
        current = src_router
        alive = True
        while alive and topo.stage_of(current) < topo.n - 1:
            channel = topo.destination_tag_next(current, dst_terminal)
            if channel.index in failed_channels:
                alive = False
            else:
                current = channel.dst
        self._path_cache[key] = alive
        return alive

    def deliverable(self, src_terminal: int, dst_terminal: int) -> bool:
        if self._faults is None:
            return True
        return self._path_alive(
            self.topology.injection_router(src_terminal), dst_terminal
        )


class FaultAwareFoldedClosAdaptive(FoldedClosAdaptive):
    """Folded-Clos adaptive routing over the surviving spines.

    An uplink is a candidate only if it survives and its spine still
    has a surviving downlink to the destination leaf.
    """

    name = "clos-adaptive (FT)"
    fault_aware = True

    def attach(self, simulator) -> None:
        super().attach(simulator)
        self._faults = _fault_set(simulator)
        # (leaf, dst_leaf) -> surviving uplinks; the candidate set
        # depends only on the failures, so it is computed once
        # per pair (costs stay per-decision).
        self._uplink_cache: Dict[Tuple[int, int], List[Channel]] = {}

    def _usable_uplinks(self, leaf: int, dst_leaf: int) -> List[Channel]:
        key = (leaf, dst_leaf)
        usable = self._uplink_cache.get(key)
        if usable is not None:
            return usable
        topo = self.topology
        failed_channels = self._faults.failed_channels
        usable = [
            uplink
            for uplink in topo.uplinks(leaf)
            if uplink.index not in failed_channels
            and topo.downlink(uplink.dst, dst_leaf).index not in failed_channels
        ]
        self._uplink_cache[key] = usable
        return usable

    def route(self, engine, packet) -> Tuple[int, int]:
        if self._faults is None:
            return super().route(engine, packet)
        topo = self.topology
        current = engine.router_id
        dst_leaf = topo.leaf_of_terminal(packet.dst)
        if topo.is_spine(current):
            return engine.port_for_channel(topo.downlink(current, dst_leaf)), 0
        if current == dst_leaf:
            return engine.ejection_port(packet.dst), 0
        usable = self._usable_uplinks(current, dst_leaf)
        if not usable:
            raise AssertionError(
                f"leaf {current}: no surviving spine reaches leaf {dst_leaf}; "
                f"packet {packet.pid} should have been accounted "
                f"undeliverable at creation"
            )
        occupancy = engine.channel_occupancy
        uplink = pick_min_cost(
            ((occupancy(ch), 0, ch) for ch in usable),
            self.rng,
        )
        return engine.port_for_channel(uplink), 0

    def deliverable(self, src_terminal: int, dst_terminal: int) -> bool:
        if self._faults is None:
            return True
        topo = self.topology
        src_leaf = topo.leaf_of_terminal(src_terminal)
        dst_leaf = topo.leaf_of_terminal(dst_terminal)
        if src_leaf == dst_leaf:
            return True
        return bool(self._usable_uplinks(src_leaf, dst_leaf))
