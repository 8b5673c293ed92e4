"""Simulation configuration.

Defaults follow Section 3.2 of the paper: single-cycle input-queued
routers, 32 flits of buffering per port (divided evenly among the
routing algorithm's virtual channels), single-flit packets, and
Bernoulli packet injection.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional


def derive_seed(base: int, *components: object) -> int:
    """Derive an independent, reproducible RNG seed from ``base``.

    The derivation hashes the base seed together with an arbitrary
    tuple of identifying components (experiment id, point index,
    replica number, ...), so every point of a sweep gets its own
    stream while remaining a pure function of its description — the
    same seed is produced no matter which process runs the point or in
    what order.

    Components must have a stable ``repr`` (ints, floats, strings,
    bools, or tuples thereof).

    >>> derive_seed(1, "fig04", 0.5) == derive_seed(1, "fig04", 0.5)
    True
    >>> derive_seed(1, "fig04", 0.5) != derive_seed(2, "fig04", 0.5)
    True
    """
    for component in _flatten((base,) + components):
        if not isinstance(component, (bool, int, float, str)):
            raise TypeError(
                f"seed components must be primitives or tuples of them, "
                f"got {type(component).__name__}"
            )
    canonical = repr((int(base),) + components).encode("utf-8")
    digest = hashlib.sha256(canonical).digest()
    return int.from_bytes(digest[:8], "big")


def _flatten(components):
    for component in components:
        if isinstance(component, (tuple, list)):
            yield from _flatten(component)
        else:
            yield component


def replica_seeds(base: int, count: int) -> tuple:
    """The canonical per-replica seed family rooted at ``base``.

    Replica 0 **is** the base seed — a single replica is byte-identical
    to a plain run with ``seed=base`` — and replica ``i > 0`` gets the
    independent stream ``derive_seed(base, "replica", i)``.  Every
    layer that fans one configuration out into replicas (the event
    kernel's ``replicate_jobs``, the batch backend's run axis) must
    draw its seeds from this function so replica ``i`` consumes the
    same stream family no matter which backend executes it.

    >>> replica_seeds(7, 2)[0]
    7
    >>> replica_seeds(7, 3) == replica_seeds(7, 3)
    True
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return (int(base),) + tuple(
        derive_seed(base, "replica", i) for i in range(1, count)
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the cycle-accurate simulator.

    The router itself has no knobs: it has the paper's "sufficient
    switch speedup" (switch sub-iterations repeat until no flit can
    move), with fixed staging and injection buffers (see
    :mod:`repro.network.router`).

    Attributes:
        buffer_per_port: total flit buffering per input port, divided
            evenly among the virtual channels (the paper holds this
            product constant when comparing VC counts).
        packet_size: flits per packet.
        channel_latency: cycles a flit spends on an inter-router
            channel.
        credit_latency: cycles for a credit to return upstream.
        channel_period: cycles per flit on inter-router channels.  The
            default 1 is a full-bandwidth channel; 2 models a
            half-bandwidth channel, which is how the paper's
            equal-bisection hypercube is configured (its natural
            bisection is twice the flattened butterfly's).
        seed: base RNG seed; every stochastic component derives its own
            stream from it, so runs are reproducible.
        rng_streams: how the traffic / route / injection RNG streams
            are derived from ``seed``.  ``"legacy"`` (default) keeps
            the historical ``seed * 2654435761 % 2**31 + k`` scheme
            that all committed golden results were produced with, even
            though it degenerates at seed 0 (the multiplier contributes
            nothing, so stream k is just ``Random(k)``) and lets
            distinct seeds collide modulo 2**31.  ``"mixed"`` derives
            each stream via :func:`derive_seed` (SHA-256 of the seed
            plus a stream label), which has neither defect.
        faults: optional :class:`repro.faults.model.FaultModel`
            describing permanent and transient failures to inject.
            ``None`` (default) simulates a fault-free network.  Being a
            config field, the fault scenario travels through
            ``SimSpec`` pickling and into the result-cache key like any
            other knob.
        workload: optional :class:`repro.network.workload.WorkloadSpec`
            describing the traffic source for workload-driven runs
            (``Simulator.run_workload``).  ``None`` (default) leaves
            traffic to the classic pattern argument, so default-path
            cache keys are unchanged.  Like ``faults``, the spec is a
            frozen dataclass of primitives and travels through
            ``SimSpec`` pickling and the result-cache key.
    """

    buffer_per_port: int = 32
    packet_size: int = 1
    channel_latency: int = 1
    credit_latency: int = 1
    channel_period: int = 1
    seed: int = 1
    rng_streams: str = "legacy"
    faults: Optional[object] = None
    workload: Optional[object] = None

    def __post_init__(self) -> None:
        if self.buffer_per_port < 1:
            raise ValueError(f"buffer_per_port must be >= 1, got {self.buffer_per_port}")
        if self.packet_size < 1:
            raise ValueError(f"packet_size must be >= 1, got {self.packet_size}")
        if self.channel_latency < 1:
            raise ValueError(f"channel_latency must be >= 1, got {self.channel_latency}")
        if self.credit_latency < 1:
            raise ValueError(f"credit_latency must be >= 1, got {self.credit_latency}")
        if self.channel_period < 1:
            raise ValueError(f"channel_period must be >= 1, got {self.channel_period}")
        if self.rng_streams not in ("legacy", "mixed"):
            raise ValueError(
                f"rng_streams must be 'legacy' or 'mixed', got {self.rng_streams!r}"
            )
        if self.faults is not None:
            # Imported lazily: repro.faults derives its sampling seeds
            # from this module's derive_seed.
            from ..faults.model import FaultModel

            if not isinstance(self.faults, FaultModel):
                raise TypeError(
                    f"faults must be a repro.faults.FaultModel or None, "
                    f"got {type(self.faults).__name__}"
                )
        if self.workload is not None:
            # Lazy import: repro.network.workload imports this module.
            from .workload import WorkloadSpec

            if not isinstance(self.workload, WorkloadSpec):
                raise TypeError(
                    f"workload must be a repro.network.workload."
                    f"WorkloadSpec or None, got {type(self.workload).__name__}"
                )

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Copy of this config with a different base seed."""
        return dataclasses.replace(self, seed=seed)

    def with_faults(self, faults) -> "SimulationConfig":
        """Copy of this config with a different fault model (or
        ``None`` for a fault-free network)."""
        return dataclasses.replace(self, faults=faults)

    def with_workload(self, workload) -> "SimulationConfig":
        """Copy of this config with a different workload spec (or
        ``None`` for classic pattern-driven traffic)."""
        return dataclasses.replace(self, workload=workload)

    def derived(self, *components: object) -> "SimulationConfig":
        """Copy of this config whose seed is derived from the current
        seed and ``components`` via :func:`derive_seed` — the standard
        way to give every point of a sweep its own deterministic RNG
        stream."""
        return self.with_seed(derive_seed(self.seed, *components))

    def vc_depth(self, num_vcs: int) -> int:
        """Flit depth of each VC buffer given the algorithm's VC count."""
        if num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {num_vcs}")
        depth = self.buffer_per_port // num_vcs
        if depth < 1:
            raise ValueError(
                f"buffer_per_port={self.buffer_per_port} cannot hold even one "
                f"flit in each of {num_vcs} VCs"
            )
        if depth < self.packet_size:
            raise ValueError(
                f"VC depth {depth} smaller than packet size {self.packet_size}; "
                f"a packet must fit in a single VC buffer"
            )
        return depth
