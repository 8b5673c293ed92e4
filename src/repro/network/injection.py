"""Packet-injection processes.

Open-loop experiments use a Bernoulli process per terminal, as in the
paper ("Packets are injected using a Bernoulli process", Section 3.2).
The dynamic-response experiment of Figure 5 instead delivers a fixed
batch of packets per terminal at time zero and measures drain time.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Dict, List, Optional, Tuple


class InjectionProcess(abc.ABC):
    """Decides, per cycle, which terminals create how many packets."""

    @abc.abstractmethod
    def start(self, num_terminals: int, packet_size: int, rng: random.Random) -> None:
        """Reset state for a fresh simulation."""

    @abc.abstractmethod
    def injections(self, now: int) -> List[Tuple[int, int]]:
        """``(terminal, packet_count)`` pairs for cycle ``now``."""

    @abc.abstractmethod
    def exhausted(self) -> bool:
        """True when no further packets will ever be injected."""

    def next_injection_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle ``>= now`` at which this process may inject,
        or ``None`` if no further packets will ever be injected.

        The event kernel uses this to jump over quiescent stretches:
        whenever the network holds no flit at all, it advances ``now``
        straight to this cycle without executing the cycles in between.
        The contract is therefore:

        * The returned cycle must be a **lower bound**: ``injections``
          must return ``[]`` for every cycle in ``[now, returned)``.
          Returning a cycle later than the true next injection makes
          the kernel *swallow* injections; returning one earlier is
          merely slower (the kernel steps idle cycles it could have
          skipped).
        * ``None`` is a promise that ``injections`` returns ``[]``
          forever after — the run may terminate as soon as the network
          drains.
        * The method must not mutate state or draw RNG: it is called
          only when the kernel considers an idle skip (and not at all
          when a tracer disables skipping), so any side effect would
          make results depend on whether cycles were skipped.

        The conservative default returns ``now`` ("an injection may
        happen immediately"), which keeps custom subclasses *correct*
        but **silently disables idle-skipping** for them — at low load
        the event kernel then executes every quiescent cycle one by
        one.  Subclasses that know their schedule (calendar-based
        processes like :class:`BernoulliInjection`, or workload sources
        with reply calendars) should override it;
        ``tests/test_workloads.py`` pins both behaviors.
        """
        return now


class BernoulliInjection(InjectionProcess):
    """Each terminal independently injects a packet with probability
    ``load / packet_size`` per cycle, giving an offered load of
    ``load`` flits per node per cycle.

    Implemented by sampling geometric inter-injection gaps into a
    calendar, so per-cycle work is proportional to the number of
    injections rather than the number of terminals.
    """

    def __init__(self, load: float) -> None:
        if not 0.0 < load <= 1.0:
            raise ValueError(f"offered load must be in (0, 1], got {load}")
        self.load = load
        self._calendar: Dict[int, List[int]] = {}
        self._stopped = False
        self._every: Optional[List[Tuple[int, int]]] = None

    def start(self, num_terminals: int, packet_size: int, rng: random.Random) -> None:
        rate = self.load / packet_size
        if rate > 1.0:
            raise ValueError(
                f"load {self.load} with packet size {packet_size} exceeds one "
                f"packet per cycle per terminal"
            )
        self._rate = rate
        self._rng = rng
        self._calendar = {}
        self._stopped = False
        self._log_q = math.log1p(-rate) if rate < 1.0 else None
        if self._log_q is None:
            # rate == 1.0: every terminal injects every cycle and no
            # gap is ever drawn, so the calendar machinery degenerates
            # to returning the same (terminal, 1) list each cycle —
            # precompute it once instead of popping and rescheduling
            # every terminal every cycle.  The returned pairs and their
            # order are identical to what the calendar would produce.
            self._every = [(terminal, 1) for terminal in range(num_terminals)]
            return
        self._every = None
        for terminal in range(num_terminals):
            self._schedule(terminal, -1)

    def _schedule(self, terminal: int, now: int) -> None:
        if self._log_q is None:  # rate == 1.0: inject every cycle
            gap = 1
        else:
            u = self._rng.random()
            gap = 1 + int(math.log(1.0 - u) / self._log_q)
        calendar = self._calendar
        cycle = now + gap
        slot = calendar.get(cycle)
        if slot is None:
            calendar[cycle] = [terminal]
        else:
            slot.append(terminal)

    def stop(self) -> None:
        """Stop generating new packets (used while draining)."""
        self._stopped = True
        self._calendar.clear()

    def injections(self, now: int) -> List[Tuple[int, int]]:
        if self._stopped:
            return []
        if self._every is not None:
            return self._every
        terminals = self._calendar.pop(now, None)
        if not terminals:
            return []
        for terminal in terminals:
            self._schedule(terminal, now)
        return [(terminal, 1) for terminal in terminals]

    def exhausted(self) -> bool:
        return self._stopped

    def next_injection_cycle(self, now: int) -> Optional[int]:
        if self._stopped:
            return None
        if self._every is not None:
            return now
        # One calendar entry per terminal, so this is O(terminals) —
        # paid only when the whole network is quiescent.
        if not self._calendar:
            return None
        return min(self._calendar)


class BatchInjection(InjectionProcess):
    """Every terminal receives ``batch_size`` packets at cycle zero
    (Figure 5's dynamic-response workload)."""

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self._done = False

    def start(self, num_terminals: int, packet_size: int, rng: random.Random) -> None:
        self._num_terminals = num_terminals
        self._done = False

    def injections(self, now: int) -> List[Tuple[int, int]]:
        if self._done or now != 0:
            return []
        self._done = True
        return [(t, self.batch_size) for t in range(self._num_terminals)]

    def exhausted(self) -> bool:
        return self._done

    def next_injection_cycle(self, now: int) -> Optional[int]:
        return None if self._done else 0
