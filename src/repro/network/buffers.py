"""Input virtual-channel buffers and output-port state.

These are the router's flow-control data structures:

* :class:`InputVC` — one FIFO flit buffer per (input port, VC), holding
  the locked routing decision of the packet at its head.
* :class:`OutPort` — per-VC output staging FIFOs fed by the switch,
  per-VC credit counters (mirroring the downstream input buffer, as in
  credit-based flow control), the VC-ownership table that keeps
  wormhole packets from interleaving on a virtual channel, and the
  *pending* counters that make committed-but-unsent flits visible to
  the routing allocators (Section 3.1's greedy vs. sequential
  distinction).

The output staging FIFOs exist because the paper's routers are
input-queued *with sufficient switch speedup* so that "routers do not
become the bottleneck of the network" (Section 3.2).  Without speedup
an input-queued router saturates at the ~59% head-of-line-blocking
limit on uniform traffic; the switch therefore moves multiple flits per
cycle from input heads into the staging FIFOs, and each channel drains
its staging FIFOs at one flit per cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .packet import Flit, Packet

# Output-port kinds.
CHANNEL_PORT = 0
EJECTION_PORT = 1

# Input-port kinds.
CHANNEL_INPUT = 0
INJECTION_INPUT = 1

# Effectively-infinite credits for ejection (sink) ports.
_SINK_CREDITS = 1 << 30

# Shared VC rotation tables, one per VC count (see vc_rotations).
_ROTATIONS: Dict[int, Tuple[Tuple[int, ...], ...]] = {}


def vc_rotations(num_vcs: int) -> Tuple[Tuple[int, ...], ...]:
    """``vc_rotations(n)[start]`` is the VC visiting order
    ``(start + i) % n`` for ``i`` in ``0..n-1``.

    The wire phase walks one of these per staged port instead of
    computing the modulo per VC; every port with ``n`` VCs shares the
    same table.
    """
    table = _ROTATIONS.get(num_vcs)
    if table is None:
        table = tuple(
            tuple((start + i) % num_vcs for i in range(num_vcs))
            for start in range(num_vcs)
        )
        _ROTATIONS[num_vcs] = table
    return table


class InputVC:
    """One virtual-channel FIFO at a router input port."""

    __slots__ = (
        "in_port", "vc", "depth", "fifo", "route_port", "route_vc", "order", "feed"
    )

    def __init__(self, in_port: int, vc: int, depth: int, order: int) -> None:
        self.in_port = in_port
        self.vc = vc
        self.depth = depth
        self.fifo: Deque[Flit] = deque()
        # Locked routing decision of the packet currently at the head
        # (None until the head flit has been routed).
        self.route_port: Optional[int] = None
        self.route_vc: Optional[int] = None
        # Dense index used for round-robin arbitration ordering.
        self.order = order
        # Channel inputs: the pipe that returns this VC's credits
        # upstream (set by ``RouterEngine.finalize``); None for
        # injection inputs.
        self.feed = None

    def head(self) -> Flit:
        return self.fifo[0]

    def occupancy(self) -> int:
        return len(self.fifo)

    def has_space(self) -> bool:
        return len(self.fifo) < self.depth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<InputVC port={self.in_port} vc={self.vc} "
            f"{len(self.fifo)}/{self.depth} route={self.route_port}>"
        )


class OutPort:
    """Credit, staging, and allocation state for one output port."""

    __slots__ = (
        "index",
        "kind",
        "channel_index",
        "terminal",
        "num_vcs",
        "vc_depth",
        "staging_depth",
        "staging",
        "credits",
        "pending",
        "owner",
        "rr_pointer",
        "wire_pointer",
        "rotations",
        "next_free",
        "occ",
    )

    def __init__(
        self,
        index: int,
        kind: int,
        num_vcs: int,
        vc_depth: int,
        staging_depth: int,
        channel_index: int = -1,
        terminal: int = -1,
    ) -> None:
        self.index = index
        self.kind = kind
        self.channel_index = channel_index
        self.terminal = terminal
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.staging_depth = staging_depth
        self.staging: List[Deque[Flit]] = [deque() for _ in range(num_vcs)]
        if kind == EJECTION_PORT:
            self.credits = [_SINK_CREDITS] * num_vcs
        else:
            self.credits = [vc_depth] * num_vcs
        # Flits committed to this port by a locked route but still
        # sitting in an input buffer.  Greedy allocators apply the
        # debit of a routing cycle "en masse" after all inputs decide;
        # sequential allocators apply it between decisions.
        self.pending = [0] * num_vcs
        # Wormhole ownership: the packet currently streaming into each
        # staging VC (flits of two packets must not interleave on one
        # virtual channel).
        self.owner: List[Optional[Packet]] = [None] * num_vcs
        self.rr_pointer = 0
        self.wire_pointer = 0
        self.rotations = vc_rotations(num_vcs)
        # Earliest cycle the (possibly sub-unit-bandwidth) channel can
        # accept its next flit.
        self.next_free = 0
        # Incrementally maintained mirror of :meth:`occupancy` for
        # channel ports — the derived value routing polls constantly.
        # It changes at exactly two points: a routing commit adds the
        # packet size (``pending`` grows) and a returning credit
        # subtracts one (``credits`` grows).  The switch move
        # (pending -> staging) and the wire send (staging -> in
        # flight) are occupancy-neutral, so nothing else touches it.
        # Ejection ports never maintain it (their occupancy reads as 0
        # regardless).  :meth:`occupancy` still *computes* its answer,
        # so tests can cross-check the counter against ground truth
        # (see ``Simulator.check_activation_invariants``).
        self.occ = 0

    def occupancy(self) -> int:
        """Estimated queue length, summed over VCs: staged flits plus
        downstream/in-flight flits plus committed-but-unsent flits.

        Computed from first principles; the hot paths read the
        incrementally maintained ``occ`` mirror instead.
        """
        if self.kind == EJECTION_PORT:
            return 0
        total = 0
        depth = self.vc_depth
        credits = self.credits
        pending = self.pending
        staging = self.staging
        for vc in range(self.num_vcs):
            total += depth - credits[vc] + pending[vc] + len(staging[vc])
        return total

    def occupancy_vc(self, vc: int) -> int:
        """Estimated queue length of a single output VC."""
        if self.kind == EJECTION_PORT:
            return 0
        return (
            self.vc_depth
            - self.credits[vc]
            + self.pending[vc]
            + len(self.staging[vc])
        )

    def staged_flits(self) -> int:
        """Flits currently in this port's staging FIFOs."""
        return sum(len(q) for q in self.staging)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "ej" if self.kind == EJECTION_PORT else f"ch{self.channel_index}"
        return f"<OutPort {self.index} {kind} credits={self.credits}>"
