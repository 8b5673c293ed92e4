"""CLOS AD: adaptive routing of a flattened Clos (Section 3.1).

"If the router chooses to route a packet non-minimally, the packet is
routed as if it were adaptively routing to the middle stage of a Clos
network.  A non-minimal packet arrives at the intermediate node b by
traversing each dimension using the channel with the shortest queue for
that dimension (including a 'dummy queue' for staying at the current
coordinate in that dimension). ... the intermediate node is chosen from
the closest common ancestors and not among all nodes.  As a result,
even though CLOS AD is non-minimal routing, the hop count is always
equal or less than that of a corresponding folded-Clos network."

Implementation notes:

* The route has two phases, mirroring a folded Clos.  In the *ascent*
  phase the packet visits the dimensions in which source and
  destination differ, in ascending order, and in each picks the digit
  (middle-stage position) whose channel has the lowest estimated
  delay — queue length times the 1 or 2 hops that choice implies for
  the dimension.  Dimensions already agreeing with the destination are
  left untouched: that is the closest-common-ancestor restriction.
* "Staying at the current coordinate" of an unaligned dimension defers
  its correction to the descent phase; the locally visible estimate of
  that deferred hop is the same productive-channel queue as correcting
  it immediately, with the same hop cost, so the dummy-queue option is
  dominated by the direct correction and collapses into it.  The
  minimal route therefore emerges naturally whenever the productive
  channels have the shortest queues — CLOS AD's per-packet
  minimal/non-minimal choice.
* The *descent* phase corrects the remaining dimensions in ascending
  dimension order, deterministically, exactly like the down-path of a
  folded Clos.  Two VCs (ascent, descent) keep the
  (phase, dimension)-ordered channel dependencies acyclic.
* CLOS AD uses a sequential allocator, which together with the
  adaptive intermediate choice removes both sources of transient load
  imbalance (Figure 5).
"""

from __future__ import annotations

from typing import Tuple

from ...topologies.hyperx import HyperX
from .base import RoutingAlgorithm
from .min_adaptive import pick_min_cost
from .table import shared_route_table

PHASE_ASCENT = 0
PHASE_DESCENT = 1
VC_ASCENT = 1
VC_DESCENT = 0


class ClosAD(RoutingAlgorithm):
    """CLOS AD on a flattened butterfly (sequential allocator).

    Args:
        threshold: minimal-path bias in flits, added to the estimated
            delay of every non-minimal (middle-stage) candidate so the
            productive channel wins marginal comparisons at low load.
    """

    name = "CLOS AD"
    num_vcs = 2
    sequential = True

    def __init__(self, threshold: int = 1) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, HyperX):
            raise TypeError(f"{self.name} requires a HyperX-family topology")
        self._route_table = shared_route_table(self.topology)

    def on_packet_created(self, packet) -> None:
        packet.phase = PHASE_ASCENT
        # Next dimension the ascent phase must consider.
        packet.scratch = {"next_dim": 1}

    def _ascent_choice(self, engine, packet) -> Tuple[int, int]:
        """Adaptive middle-stage choice for the next unaligned
        dimension; returns ``(port, vc)`` or falls through to descent
        when the ascent is complete."""
        topo = self.topology
        current = engine.router_id
        dst = packet.dst_router
        state = packet.scratch
        d = state["next_dim"]
        while d <= topo.num_dims and topo.coord_digit(current, d) == topo.coord_digit(
            dst, d
        ):
            d += 1
        if d > topo.num_dims:
            packet.phase = PHASE_DESCENT
            return self._descent_choice(engine, packet)
        state["next_dim"] = d + 1
        own = topo.coord_digit(current, d)
        want = topo.coord_digit(dst, d)

        def candidates():
            for value in range(topo.dims[d - 1]):
                if value == own:
                    continue  # the dummy option, dominated (see module docstring)
                hops = 1 if value == want else 2
                bias = 0 if value == want else self.threshold
                for channel in topo.channels_between(
                    current, topo.neighbor(current, d, value)
                ):
                    yield (
                        engine.channel_occupancy(channel) * hops + bias,
                        hops,
                        channel,
                    )

        channel = pick_min_cost(candidates(), self.rng)
        return engine.port_for_channel(channel), VC_ASCENT

    def _descent_choice(self, engine, packet) -> Tuple[int, int]:
        """Deterministic down-path: fix remaining digits in ascending
        dimension order."""
        topo = self.topology
        current = engine.router_id
        dst = packet.dst_router
        for d in range(1, topo.num_dims + 1):
            want = topo.coord_digit(dst, d)
            if topo.coord_digit(current, d) != want:
                channel = topo.channels_between(
                    current, topo.neighbor(current, d, want)
                )[0]
                return engine.port_for_channel(channel), VC_DESCENT
        raise AssertionError("descent called with no differing dimensions")

    def route(self, engine, packet) -> Tuple[int, int]:
        if engine.router_id == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        if packet.phase == PHASE_ASCENT:
            return self._ascent_choice(engine, packet)
        return self._descent_choice(engine, packet)

    def route_event(self, engine, packet) -> Tuple[int, int]:
        """Same decision as :meth:`route`, with the ascent candidates
        read from the shared route table's CLOS AD rows and the descent
        hop from its DOR entries.

        The ascent compares the same ``(occupancy * hops + bias, hops)``
        keys in the same candidate order as :meth:`route`'s
        ``pick_min_cost`` call, with the same reservoir draws on exact
        ties, so the shared route RNG advances identically."""
        table = self._route_table
        current = engine.router_id
        dst = packet.dst_router
        if current == dst:
            return engine.ejection_port(packet.dst), 0
        if packet.phase == PHASE_ASCENT:
            topo = self.topology
            strides = topo._strides
            dims = topo.dims
            num_dims = topo.num_dims
            state = packet.scratch
            d = state["next_dim"]
            while d <= num_dims:
                stride = strides[d - 1]
                extent = dims[d - 1]
                want = (dst // stride) % extent
                if (current // stride) % extent != want:
                    break
                d += 1
            else:
                packet.phase = PHASE_DESCENT
                return table.dor_next(current, dst)[0], VC_DESCENT
            state["next_dim"] = d + 1
            out_ports = engine.out_ports
            threshold = self.threshold
            rng = self.rng
            best = -1
            best_cost = None
            best_hops = 0
            ties = 0
            for port, hops in table.clos_ascent(current, d, want):
                if hops == 1:
                    cost = out_ports[port].occ
                else:
                    cost = out_ports[port].occ * hops + threshold
                if (
                    best_cost is None
                    or cost < best_cost
                    or (cost == best_cost and hops < best_hops)
                ):
                    best = port
                    best_cost = cost
                    best_hops = hops
                    ties = 1
                elif cost == best_cost and hops == best_hops:
                    ties += 1
                    if rng.random() * ties < 1.0:
                        best = port
            return best, VC_ASCENT
        return table.dor_next(current, dst)[0], VC_DESCENT
