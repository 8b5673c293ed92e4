"""Datacenter-style workloads: skewed hot-spot senders, incast fan-in,
and permutation churn.

These model the traffic regimes that stress flat topologies in
datacenter deployments (cf. "RNG: Flat Datacenter Networks at Scale"):
demand concentrated on *router pairs* rather than spread uniformly.
Terminals are grouped into ``racks`` — contiguous index blocks of
``num_terminals / racks`` terminals, which line up with the terminals
concentrated on one router in the flattened butterfly, one stage-0
router in the conventional butterfly, and one leaf switch in the
folded Clos, so "rack" skew is the same physical skew in all three.

Determinism: every source here is calendar-driven — shared-RNG draws
happen only on cycles that emit messages (see the contract in
:mod:`repro.network.workload`), and epoch-scoped state (the churn
permutation) is a pure function of a private per-epoch seed — so
results stay bit-identical whether or not the event kernel skips
quiescent stretches.

Messages: each source emits bare ``(src, dst, msg_class, size)``
tuples, the positional form of :class:`~repro.network.workload.Message`
that the simulator unpacks, because every tuple becomes a packet on
the kernel's hot path.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from ..network.workload import Message, Workload, register_workload

_NO_MESSAGES: List[Message] = []


class _GapCalendar:
    """Per-terminal Bernoulli firing via geometric inter-arrival gaps —
    the :class:`~repro.network.injection.BernoulliInjection` scheme
    generalized to heterogeneous per-terminal rates.

    Work per cycle is proportional to the number of firings, and RNG
    draws happen only when a terminal fires (rescheduling it), so the
    event kernel can skip quiescent stretches exactly.
    """

    def __init__(self, rates: List[float]) -> None:
        for terminal, rate in enumerate(rates):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"terminal {terminal}: packet rate {rate} outside [0, 1]"
                )
        self.rates = rates

    def start(self, rng: random.Random) -> None:
        self._rng = rng
        self._calendar: Dict[int, List[int]] = {}
        self._log_q = [
            None if rate in (0.0, 1.0) else math.log1p(-rate)
            for rate in self.rates
        ]
        for terminal, rate in enumerate(self.rates):
            if rate > 0.0:
                self._schedule(terminal, -1)

    def _schedule(self, terminal: int, now: int) -> None:
        log_q = self._log_q[terminal]
        if log_q is None:  # rate 1.0: fires every cycle, no draw
            gap = 1
        else:
            gap = 1 + int(math.log(1.0 - self._rng.random()) / log_q)
        cycle = now + gap
        slot = self._calendar.get(cycle)
        if slot is None:
            self._calendar[cycle] = [terminal]
        else:
            slot.append(terminal)

    def fires(self, now: int) -> List[int]:
        """Terminals firing at ``now`` (rescheduled as they fire)."""
        terminals = self._calendar.pop(now, None)
        if not terminals:
            return []
        for terminal in terminals:
            self._schedule(terminal, now)
        return terminals

    def next_cycle(self, now: int) -> Optional[int]:
        if not self._calendar:
            return None
        return min(self._calendar)


def _rack_blocks(num_terminals: int, racks: int, name: str) -> List[List[int]]:
    if racks < 2:
        raise ValueError(f"{name} needs at least 2 racks, got {racks}")
    if num_terminals % racks:
        raise ValueError(
            f"{name}: {num_terminals} terminals do not divide into "
            f"{racks} equal racks"
        )
    per = num_terminals // racks
    return [list(range(r * per, (r + 1) * per)) for r in range(racks)]


@register_workload("hotspot_skew")
class HotSpotSkew(Workload):
    """Skewed hot-spot traffic: a few *heavy* racks send at a boosted
    rate, and direct a large fraction of their packets at one *hot*
    rack; everyone else is uniform.

    The heavy racks are racks ``0 .. heavy_racks-1`` and the hot rack
    is the last one.  Rates are normalized so the machine-wide mean
    offered load is ``load`` flits per terminal per cycle — the skew
    moves traffic around without changing its total.  Minimal routing
    concentrates each heavy rack's hot-directed traffic on its single
    heavy-router→hot-router channel, so the conventional butterfly
    saturates far below topologies that can spread it (FB + UGAL).
    """

    name = "hotspot-skew"

    def __init__(
        self,
        load: float,
        racks: int = 8,
        heavy_racks: int = 2,
        heavy_boost: float = 3.0,
        hot_fraction: float = 0.5,
    ) -> None:
        if not 0.0 < load <= 1.0:
            raise ValueError(f"load must be in (0, 1], got {load}")
        if heavy_boost < 1.0:
            raise ValueError(f"heavy_boost must be >= 1, got {heavy_boost}")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(
                f"hot_fraction must be in (0, 1], got {hot_fraction}"
            )
        if not 1 <= heavy_racks < racks:
            raise ValueError(
                f"heavy_racks must be in 1..{racks - 1}, got {heavy_racks}"
            )
        self.load = load
        self.racks = racks
        self.heavy_racks = heavy_racks
        self.heavy_boost = heavy_boost
        self.hot_fraction = hot_fraction

    def start(self, topology, packet_size, traffic_rng, injection_rng) -> None:
        self._traffic_rng = traffic_rng
        n = topology.num_terminals
        blocks = _rack_blocks(n, self.racks, self.name)
        self._num_terminals = n
        self._hot = blocks[-1]
        heavy_cut = (n // self.racks) * self.heavy_racks
        # Normalize so the mean rate over all terminals equals load:
        # heavy terminals send at boost * base, the rest at base.
        f = heavy_cut / n
        base = self.load / (f * self.heavy_boost + (1.0 - f)) / packet_size
        boosted = base * self.heavy_boost
        if boosted > 1.0:
            raise ValueError(
                f"load {self.load} with heavy_boost {self.heavy_boost} and "
                f"packet size {packet_size} pushes heavy terminals past one "
                f"packet per cycle ({boosted:.3f})"
            )
        self._heavy_cut = heavy_cut
        self._calendar = _GapCalendar(
            [boosted] * heavy_cut + [base] * (n - heavy_cut)
        )
        self._calendar.start(injection_rng)

    def _uniform_other(self, src: int, rng: random.Random) -> int:
        dst = rng._randbelow(self._num_terminals - 1)
        return dst + 1 if dst >= src else dst

    def messages(self, now: int) -> List[Message]:
        fires = self._calendar.fires(now)
        if not fires:
            return _NO_MESSAGES
        rng = self._traffic_rng
        hot = self._hot
        heavy_cut = self._heavy_cut
        hot_fraction = self.hot_fraction
        out = []
        for src in fires:
            if src < heavy_cut and rng.random() < hot_fraction:
                dst = hot[rng._randbelow(len(hot))]
            else:
                dst = self._uniform_other(src, rng)
            out.append((src, dst, 0, None))
        return out

    def next_message_cycle(self, now: int) -> Optional[int]:
        return self._calendar.next_cycle(now)

    @property
    def offered_load(self) -> float:
        return self.load


@register_workload("incast")
class Incast(Workload):
    """Periodic incast fan-in: every ``epoch`` cycles a target rack and
    ``fan_racks`` distinct source racks are drawn, and every terminal
    of every source rack sends ``burst`` packets to random terminals of
    the target rack, optionally over a uniform ``background_load``.

    Whether the backlog drains within the epoch separates topologies:
    a conventional butterfly must squeeze each source rack's burst
    through one channel, while adaptive routing on the flattened
    butterfly spreads it over all k-1 intermediate routers.
    """

    name = "incast"

    def __init__(
        self,
        epoch: int = 32,
        burst: int = 4,
        fan_racks: int = 4,
        racks: int = 8,
        background_load: float = 0.0,
    ) -> None:
        if epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {epoch}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if not 1 <= fan_racks < racks:
            raise ValueError(
                f"fan_racks must be in 1..{racks - 1}, got {fan_racks}"
            )
        if not 0.0 <= background_load < 1.0:
            raise ValueError(
                f"background_load must be in [0, 1), got {background_load}"
            )
        self.epoch = epoch
        self.burst = burst
        self.fan_racks = fan_racks
        self.racks = racks
        self.background_load = background_load

    def start(self, topology, packet_size, traffic_rng, injection_rng) -> None:
        self._traffic_rng = traffic_rng
        n = topology.num_terminals
        self._num_terminals = n
        self._blocks = _rack_blocks(n, self.racks, self.name)
        self._bg = None
        if self.background_load:
            self._bg = _GapCalendar([self.background_load / packet_size] * n)
            self._bg.start(injection_rng)

    def messages(self, now: int) -> List[Message]:
        out = []
        rng = self._traffic_rng
        if now % self.epoch == 0:
            # Epoch boundary: draw this epoch's incast cast.  Boundary
            # cycles always emit messages, so they are never skipped
            # and these draws land on the same cycle in every run.
            blocks = self._blocks
            target = rng._randbelow(self.racks)
            others = [r for r in range(self.racks) if r != target]
            senders = rng.sample(others, self.fan_racks)
            targets = blocks[target]
            burst = self.burst
            for rack in senders:
                for src in blocks[rack]:
                    for _ in range(burst):
                        out.append(
                            (src, targets[rng._randbelow(len(targets))], 0, None)
                        )
        if self._bg is not None:
            n = self._num_terminals
            for src in self._bg.fires(now):
                dst = rng._randbelow(n - 1)
                out.append((src, dst + 1 if dst >= src else dst, 0, None))
        return out

    def next_message_cycle(self, now: int) -> Optional[int]:
        boundary = now if now % self.epoch == 0 else (
            (now // self.epoch + 1) * self.epoch
        )
        if self._bg is None:
            return boundary
        bg = self._bg.next_cycle(now)
        return boundary if bg is None else min(boundary, bg)

    @property
    def offered_load(self) -> float:
        per_rack = 0 if not self._blocks else len(self._blocks[0])
        burst_flits = self.fan_racks * per_rack * self.burst
        return (
            burst_flits / (self.epoch * self._num_terminals)
            + self.background_load
        )


@register_workload("permutation_churn")
class PermutationChurn(Workload):
    """A fixed random permutation re-drawn every ``epoch`` cycles.

    Between re-randomizations this is the classic adversarial fixed
    permutation (minimal routing on a butterfly collides several
    terminals onto single channels); the churn adds the datacenter
    flavor of tenant arrival/departure, and exercises how quickly
    adaptive routing re-balances after each shift.

    The epoch-``e`` permutation is a pure function of ``(seed, e)``
    (see :func:`repro.network.workload.churn_permutation`), computed
    lazily when a packet first fires inside the epoch — never from the
    shared RNG streams, so skipped epochs cannot desynchronize the
    kernels.
    """

    name = "permutation-churn"

    def __init__(self, load: float, epoch: int = 512, seed: int = 0) -> None:
        if not 0.0 < load <= 1.0:
            raise ValueError(f"load must be in (0, 1], got {load}")
        if epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {epoch}")
        self.load = load
        self.epoch = epoch
        self.seed = seed

    def start(self, topology, packet_size, traffic_rng, injection_rng) -> None:
        n = topology.num_terminals
        self._num_terminals = n
        self._calendar = _GapCalendar([self.load / packet_size] * n)
        self._calendar.start(injection_rng)
        self._epoch_index = -1
        self._perm: Optional[List[int]] = None

    def messages(self, now: int) -> List[Message]:
        fires = self._calendar.fires(now)
        if not fires:
            return _NO_MESSAGES
        e = now // self.epoch
        if e != self._epoch_index:
            from ..network.workload import churn_permutation

            self._perm = churn_permutation(self.seed, e, self._num_terminals)
            self._epoch_index = e
        perm = self._perm
        return [(src, perm[src], 0, None) for src in fires]

    def next_message_cycle(self, now: int) -> Optional[int]:
        return self._calendar.next_cycle(now)

    @property
    def offered_load(self) -> float:
        return self.load
