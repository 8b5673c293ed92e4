"""Synthetic traffic patterns.

The paper's evaluation uses two patterns: benign *uniform random* (UR)
traffic and the *worst-case adversarial* pattern in which every node
attached to router ``R_i`` sends to a randomly selected node attached
to router ``R_{i+1}`` (Section 3.2).  The standard synthetic suite
(bit permutations, tornado, hotspot, fixed random permutation) is also
provided for the examples and for wider testing.

A pattern maps a source terminal to a destination terminal, possibly
randomly per packet.  Patterns that depend on network structure are
bound to a topology before use.
"""

from __future__ import annotations

import abc
import random
from typing import List, Optional

from ..topologies.base import Topology


class TrafficPattern(abc.ABC):
    """Maps source terminals to destination terminals."""

    name: str = "traffic"

    def bind(self, topology: Topology) -> None:
        """Associate the pattern with a topology (terminal count,
        router grouping).  Idempotent."""
        self.topology = topology
        self.num_terminals = topology.num_terminals

    @abc.abstractmethod
    def destination(self, src: int, rng: random.Random) -> int:
        """Destination terminal for a packet sourced at ``src``."""


class UniformRandom(TrafficPattern):
    """Benign uniform-random traffic: every other terminal equally
    likely."""

    name = "UR"

    def destination(self, src: int, rng: random.Random) -> int:
        # rng._randbelow(n) is exactly what rng.randrange(n) returns
        # for a positive stop (identical draw, same generator state);
        # calling it directly skips randrange's argument plumbing on
        # the hottest draw in the simulator.
        dst = rng._randbelow(self.num_terminals - 1)
        return dst + 1 if dst >= src else dst


class GroupShift(TrafficPattern):
    """Traffic from the terminals of router group ``g`` to random
    terminals of group ``g + shift``.

    With ``shift=1`` this is the paper's worst-case adversarial
    pattern: minimal routing concentrates all of a router's traffic on
    the single channel to the next router, limiting throughput to
    ``1/k`` (Figure 4(b)).
    """

    name = "WC"

    def __init__(self, shift: int = 1) -> None:
        if shift == 0:
            raise ValueError("shift must be non-zero")
        self.shift = shift

    def bind(self, topology: Topology) -> None:
        super().bind(topology)
        groups: List[List[int]] = []
        seen = {}
        for t in range(topology.num_terminals):
            router = topology.injection_router(t)
            if router not in seen:
                seen[router] = len(groups)
                groups.append([])
            groups[seen[router]].append(t)
        self._groups = groups
        self._group_of = [0] * topology.num_terminals
        for g, members in enumerate(groups):
            for t in members:
                self._group_of[t] = g
        # Each source's destination group, resolved once.
        self._target = [
            groups[(g + self.shift) % len(groups)] for g in self._group_of
        ]

    def destination(self, src: int, rng: random.Random) -> int:
        # _randbelow(n) is randrange(n)'s draw (see UniformRandom).
        group = self._target[src]
        return group[rng._randbelow(len(group))]


def adversarial(shift: int = 1) -> GroupShift:
    """The paper's worst-case pattern (Section 3.2)."""
    return GroupShift(shift)


def tornado_for(topology: Topology) -> GroupShift:
    """Tornado traffic: shift halfway around the router groups."""
    groups = len({topology.injection_router(t) for t in range(topology.num_terminals)})
    pattern = GroupShift(max(1, (groups + 1) // 2 - 1) or 1)
    pattern.name = "tornado"
    return pattern


class _BitPattern(TrafficPattern):
    """Base for permutations defined on the bits of the terminal id;
    requires a power-of-two terminal count."""

    def bind(self, topology: Topology) -> None:
        super().bind(topology)
        n = self.num_terminals
        if n & (n - 1):
            raise ValueError(f"{self.name} requires a power-of-two N, got {n}")
        self.bits = n.bit_length() - 1


class BitComplement(_BitPattern):
    """dst = ~src."""

    name = "bitcomp"

    def destination(self, src: int, rng: random.Random) -> int:
        return ~src & (self.num_terminals - 1)


class BitReverse(_BitPattern):
    """dst = reverse of src's bits."""

    name = "bitrev"

    def destination(self, src: int, rng: random.Random) -> int:
        out = 0
        for i in range(self.bits):
            out |= ((src >> i) & 1) << (self.bits - 1 - i)
        return out


class Transpose(_BitPattern):
    """dst swaps the high and low halves of src's bits (matrix
    transpose); requires an even bit count."""

    name = "transpose"

    def bind(self, topology: Topology) -> None:
        super().bind(topology)
        if self.bits % 2:
            raise ValueError(f"transpose requires an even number of address bits")

    def destination(self, src: int, rng: random.Random) -> int:
        half = self.bits // 2
        low = src & ((1 << half) - 1)
        high = src >> half
        return (low << half) | high


class Shuffle(_BitPattern):
    """dst rotates src's bits left by one (perfect shuffle)."""

    name = "shuffle"

    def destination(self, src: int, rng: random.Random) -> int:
        top = (src >> (self.bits - 1)) & 1
        return ((src << 1) & (self.num_terminals - 1)) | top


class RandomPermutation(TrafficPattern):
    """A fixed permutation drawn once from ``seed``."""

    name = "perm"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def bind(self, topology: Topology) -> None:
        super().bind(topology)
        perm = list(range(self.num_terminals))
        random.Random(self.seed).shuffle(perm)
        self._perm = perm

    def destination(self, src: int, rng: random.Random) -> int:
        return self._perm[src]


class HotSpot(TrafficPattern):
    """Uniform random, except a ``fraction`` of packets target one hot
    terminal."""

    name = "hotspot"

    def __init__(self, hot_terminal: int = 0, fraction: float = 0.1) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.hot_terminal = hot_terminal
        self.fraction = fraction
        self._uniform = UniformRandom()

    def bind(self, topology: Topology) -> None:
        super().bind(topology)
        if not 0 <= self.hot_terminal < topology.num_terminals:
            raise ValueError(f"hot terminal {self.hot_terminal} out of range")
        self._uniform.bind(topology)

    def destination(self, src: int, rng: random.Random) -> int:
        if rng.random() < self.fraction:
            return self.hot_terminal
        return self._uniform.destination(src, rng)
