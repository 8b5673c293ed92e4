"""Routing-algorithm interface.

A routing algorithm is consulted once per packet per router, when the
packet's head flit reaches the front of an input virtual channel.  It
returns the output port and output VC the packet commits to at that
router; the decision is then locked until the packet's tail flit has
left (wormhole routing).

Adaptive algorithms estimate output queue lengths through
:class:`repro.network.router.RouterEngine` helpers, which expose the
credit-count view of downstream occupancy described in Section 3.1 of
the paper, plus the pending commitments governed by the greedy or
sequential allocator.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...network.packet import Packet
    from ...network.router import RouterEngine
    from ...network.simulator import Simulator


class RoutingAlgorithm(abc.ABC):
    """Base class for all routing algorithms.

    Attributes:
        name: short display name used in experiment output.
        num_vcs: virtual channels per physical channel the algorithm
            requires for deadlock freedom.
        sequential: whether the router should use a sequential
            allocator (UGAL-S, CLOS AD) instead of a greedy one.
        fault_aware: whether the algorithm understands fault state
            (``repro.faults``).  The simulator refuses to run a
            non-trivial fault model under an unaware algorithm, which
            would dead-end packets into failed channels.
    """

    name: str = "routing"
    num_vcs: int = 1
    sequential: bool = False
    fault_aware: bool = False
    #: Whether the event kernel may resolve a head that is already at
    #: its destination router straight to the ejection port ``(port,
    #: vc=0)`` without consulting :meth:`route_event`.  True for every
    #: algorithm whose first action on such a head is exactly
    #: ``return engine.ejection_port(packet.dst), 0`` with no RNG draw
    #: and no packet mutation.  Algorithms that may *pass through* the
    #: destination router (Valiant-phase traffic) set this False.
    inline_eject: bool = True

    def attach(self, simulator: "Simulator") -> None:
        """Bind the algorithm to a simulator (topology, RNG).

        Called once before simulation; override to validate the
        topology type and cache lookups.
        """
        self.simulator = simulator
        self.topology = simulator.topology
        self.rng = simulator.route_rng

    def on_packet_created(self, packet: "Packet") -> None:
        """Hook invoked when a packet enters its source queue.

        Oblivious algorithms (e.g. Valiant) pick their intermediate
        node here.
        """

    @abc.abstractmethod
    def route(self, engine: "RouterEngine", packet: "Packet") -> Tuple[int, int]:
        """Choose ``(output_port, output_vc)`` for ``packet`` at the
        router driven by ``engine``."""

    def deliverable(self, src_terminal: int, dst_terminal: int) -> bool:
        """Whether this algorithm can route the terminal pair under the
        simulation's failed links.

        Consulted at packet creation: a ``False`` answer makes the
        simulator account the packet as *undeliverable* instead of
        injecting it, so the drain phase terminates on disconnected
        networks.  Fault-free algorithms can always deliver; fault-aware
        subclasses override this with their path-discipline-specific
        reachability test.
        """
        return True

    def route_event(self, engine: "RouterEngine", packet: "Packet") -> Tuple[int, int]:
        """Routing decision used by the event kernel's fused
        route-and-switch phase.

        Defaults to :meth:`route`.  Algorithms may override with a
        faster implementation served from the shared route table
        (``repro.core.routing.table``), but it must be *bit-identical*
        to :meth:`route` — the same port and VC, the same packet
        state, and the same number and order of draws from the shared
        route RNG.  :meth:`route` is the reference and reads no table:
        the decision-level property tests and ``TestRouteTableParity``
        compare the two.
        """
        return self.route(engine, packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} vcs={self.num_vcs}>"
