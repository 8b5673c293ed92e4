"""Deterministic fault models and sampled fault sets.

A :class:`FaultModel` *describes* a failure scenario — what fraction of
links fail permanently at t=0 — without referencing any concrete
topology.  It is a frozen dataclass of primitives, so it travels inside
:class:`~repro.network.SimulationConfig`, pickles across process
boundaries, and hashes into the sweep runner's cache key like every
other simulation knob.

:meth:`FaultModel.sample` instantiates the model against a topology,
producing a :class:`FaultSet`: the concrete channels that failed.
Sampling is a pure function of ``(model, topology)`` — the RNG stream
is derived from the model's own seed via
:func:`~repro.network.config.derive_seed`, never from the simulation
seed — so the same model yields the same fault set no matter which
process samples it or what traffic runs over it, and different
simulation seeds can be averaged over one fixed fault set.

Semantics (also documented in ``docs/FAULTS.md``): a **failed
channel** exists structurally but never carries a flit.  Fault-aware
routing algorithms exclude it from every candidate set, and routing is
the only place an output channel is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from ..network.config import derive_seed
from ..topologies.base import Topology

import random


@dataclass(frozen=True)
class FaultModel:
    """A topology-independent description of a failure scenario.

    Attributes:
        link_failure_fraction: fraction of inter-router channels failed
            permanently at t=0, sampled without replacement.
        seed: base seed of the sampling stream.  Independent of the
            simulation seed so one fault set can be held fixed while
            traffic seeds vary.
    """

    link_failure_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.link_failure_fraction < 1.0:
            raise ValueError(
                f"link_failure_fraction must be in [0, 1), "
                f"got {self.link_failure_fraction}"
            )

    @property
    def trivial(self) -> bool:
        """Whether this model injects no fault at all."""
        return self.link_failure_fraction == 0.0

    def sample(self, topology: Topology) -> "FaultSet":
        """Instantiate the model against ``topology`` deterministically."""
        num_channels = len(topology.channels)
        failed = ()
        if self.link_failure_fraction > 0.0:
            count = round(self.link_failure_fraction * num_channels)
            rng = random.Random(derive_seed(self.seed, "faults", "links"))
            failed = sorted(rng.sample(range(num_channels), count))
        return FaultSet(
            failed_channels=frozenset(failed), num_channels=num_channels
        )


@dataclass(frozen=True)
class FaultSet:
    """The concrete channels a model failed on one topology."""

    failed_channels: FrozenSet[int] = frozenset()
    num_channels: int = 0

    @property
    def empty(self) -> bool:
        """No failed channel."""
        return not self.failed_channels

    def describe(self) -> str:
        return (
            f"{len(self.failed_channels)}/{self.num_channels} channels failed"
        )
