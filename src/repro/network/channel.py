"""Channel pipelines: flits one way, credits the other.

A :class:`ChannelPipe` models one unidirectional inter-router channel
with a fixed flit latency and bandwidth of one flit per cycle (the
switch allocator enforces the bandwidth by granting each output port at
most once per cycle), plus the reverse credit path used by credit-based
flow control.

The router engine pushes a flit or credit together with its delivery
cycle and registers the pipe on the simulator's event wheel for that
cycle, so the kernel wakes a pipe exactly when something is due instead
of scanning every busy pipe every cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from .packet import Flit


class ChannelPipe:
    """In-flight flits and credits of one channel.

    Attributes:
        index: the topology channel index this pipe realizes.
        src_router / dst_router: endpoints.
        src_port: output-port index at the source router.
        dst_in_port: input-port index at the destination router.
        dst_vcs: the destination input port's ``InputVC`` list, and
        src_out: the source ``OutPort`` (both bound by the simulator
            once its engines exist, so delivery skips the lookups).
    """

    __slots__ = (
        "index",
        "src_router",
        "dst_router",
        "src_port",
        "dst_in_port",
        "dst_vcs",
        "src_out",
        "flits",
        "credits",
    )

    def __init__(
        self,
        index: int,
        src_router: int,
        dst_router: int,
        src_port: int,
        dst_in_port: int,
    ) -> None:
        self.index = index
        self.src_router = src_router
        self.dst_router = dst_router
        self.src_port = src_port
        self.dst_in_port = dst_in_port
        self.dst_vcs = None
        self.src_out = None
        # (arrival_cycle, flit/vc) with monotonically non-decreasing
        # arrival cycles, so delivery pops from the left only.
        self.flits: Deque[Tuple[int, Flit, int]] = deque()
        self.credits: Deque[Tuple[int, int]] = deque()

    def busy(self) -> bool:
        """Whether anything is still in flight on this pipe."""
        return bool(self.flits) or bool(self.credits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ChannelPipe {self.index} {self.src_router}->{self.dst_router} "
            f"flits={len(self.flits)} credits={len(self.credits)}>"
        )
