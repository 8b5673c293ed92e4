"""The unified workload plane.

A :class:`Workload` is the event kernel's one packet source: it emits
typed :class:`Message` events — ``(src, dst, msg_class, size)`` — per
cycle.  The paper's open-loop traffic is the workload
:class:`SyntheticWorkload`, in which an
:class:`~repro.network.injection.InjectionProcess` decides *when*
terminals fire and a :class:`~repro.traffic.patterns.TrafficPattern`
decides *where* each packet goes; the simulator's pattern run methods
(``run_open_loop``, ``run_batch``, ``measure_saturation_throughput``)
build one from their pattern, so a :class:`SyntheticWorkload` passed to
``run_workload`` runs exactly the simulation of the corresponding
``run_open_loop`` (pinned by ``tests/test_workloads.py``).  Other
workloads add three capabilities that an injection process and a
pattern cannot express:

* **Closed-loop dependencies.**  A workload receives a delivery
  callback (:meth:`Workload.on_delivered`) for every packet that exits
  the network, so a delivered *request* can spawn its *reply* after a
  configurable service delay (:class:`RequestReply`).
* **Message classes.**  Every message carries a ``msg_class``; the
  simulator maps classes onto disjoint partitions of the virtual
  channels (request and reply never share a VC), which is the textbook
  protocol-deadlock-freedom discipline, and reports per-class latency
  and throughput.
* **Timed sources.**  Messages are emitted at absolute cycles, so
  epoch-structured datacenter sources (incast bursts, permutation
  churn) slot in naturally.

Determinism contract for implementers: :meth:`Workload.messages` is
called once per *executed* cycle, and under the event kernel quiescent
stretches are never executed at all (they are jumped over guided by
:meth:`Workload.next_message_cycle`).  A workload must therefore draw
from the shared RNGs **only on cycles where it emits messages** —
calendar-style scheduling, where the next firing is drawn when the
current one fires, satisfies this; drawing "per cycle" would make
results depend on whether quiescent cycles were skipped.  State that must advance on a schedule
regardless of arrivals (e.g. churn epochs) has to be derived from the
cycle number and a private seed, not from a shared stream.
"""

from __future__ import annotations

import abc
import random
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from ..topologies.base import Topology
from .config import derive_seed
from .injection import BernoulliInjection, InjectionProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.traffic's package __init__ pulls
    # in the workload-based sources, which import this module.
    from ..traffic.patterns import TrafficPattern


class UnsupportedWorkloadError(NotImplementedError):
    """Raised when a kernel cannot run a workload — e.g. the vectorized
    ``kernel="batch"`` backend asked to run a closed-loop or timed
    source, which require the event kernel's delivery hooks and
    per-cycle message timing."""


def batch_refusal(workload: "Workload") -> str:
    """Why ``kernel="batch"`` refuses ``workload`` (one whose
    :meth:`Workload.batch_delegate` is ``None``): the text of the
    :class:`UnsupportedWorkloadError` ``Simulator.run_workload`` raises
    and of :func:`repro.network.batch.unsupported_reason`."""
    return (
        f"kernel='batch' cannot run the workload {workload.name!r}: "
        f"the vectorized backend implements only open-loop "
        f"Bernoulli traffic over a compiled pattern "
        f"(closed-loop and timed sources need the event "
        f"kernel's delivery hooks and per-cycle timing); use "
        f"kernel='event'"
    )


class Message(namedtuple("Message", "src dst msg_class size", defaults=(0, None))):
    """One typed traffic event: terminal ``src`` sends a
    ``msg_class``-class packet of ``size`` flits to terminal ``dst``
    (``size=None`` uses the config's ``packet_size``).

    The simulator unpacks messages positionally, so a source on a hot
    path may emit the bare tuple ``(src, dst, msg_class, size)``
    instead (as :class:`SyntheticWorkload` does)."""

    __slots__ = ()


_NO_MESSAGES: List[Message] = []


class Workload(abc.ABC):
    """A message source driving one simulation.

    Attributes:
        name: short display name used in errors and experiment output.
        num_classes: distinct ``msg_class`` values this workload emits.
            The simulator multiplies the routing algorithm's VC count
            by this, giving every class its own disjoint VC partition
            on inter-router channels.
        closed_loop: whether deliveries feed back into future messages
            (request→reply dependencies).  Closed-loop sources cannot
            run on the vectorized batch kernel.
    """

    name: str = "workload"
    num_classes: int = 1
    closed_loop: bool = False

    def start(
        self,
        topology: Topology,
        packet_size: int,
        traffic_rng: random.Random,
        injection_rng: random.Random,
    ) -> None:
        """Reset state for a fresh simulation.  Called exactly once by
        the simulator's run method before the first cycle; the RNGs are
        the simulator's shared traffic/injection streams."""

    @abc.abstractmethod
    def messages(self, now: int) -> List[Message]:
        """Messages entering their source queues at cycle ``now``.

        Called once per executed cycle, in cycle order, inside the
        kernel's inject phase.  Must not draw from the shared RNGs on
        cycles where it returns nothing (see the module docstring's
        determinism contract).  Each message is unpacked positionally,
        so a :class:`Message` or a bare ``(src, dst, msg_class, size)``
        tuple both work; ``dst`` must lie in ``0..N-1``.
        """

    def exhausted(self) -> bool:
        """True when no further message will ever be emitted — neither
        spontaneously nor in response to a future delivery.  Finite
        workloads let runs terminate as soon as the network drains."""
        return False

    def next_message_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle ``>= now`` at which this workload may emit a
        message, or ``None`` if it never will again.

        The event kernel uses this to jump over quiescent stretches;
        the same contract (and the same conservative default) as
        :meth:`~repro.network.injection.InjectionProcess.next_injection_cycle`:
        returning ``now`` means "a message may appear immediately",
        which is always correct but disables idle-skipping.
        """
        return now

    def on_delivered(self, packet, now: int) -> None:
        """Delivery hook: ``packet``'s tail flit was ejected at cycle
        ``now``.  Closed-loop workloads schedule the dependent message
        (the reply) here; it may be emitted from cycle ``now + 1``
        onwards.  The base implementation is a no-op, and the simulator
        skips the call entirely for workloads that do not override it.
        """

    def batch_delegate(self) -> Optional[Tuple[float, TrafficPattern]]:
        """``(load, pattern)`` if this workload is expressible as the
        open-loop Bernoulli × pattern combination the vectorized batch
        kernel implements, else ``None`` (the batch kernel then raises
        :class:`UnsupportedWorkloadError`)."""
        return None

    @property
    def offered_load(self) -> float:
        """Nominal offered load in flits per terminal per cycle (0.0
        when the workload has no meaningful single rate)."""
        return 0.0


class SyntheticWorkload(Workload):
    """Open-loop traffic as a workload: an injection process decides
    when terminals fire, a traffic pattern decides where each packet
    goes.

    The simulator's pattern run methods drive their pattern through
    this class: :meth:`start` binds the pattern and starts the process
    on the injection RNG, and :meth:`messages` draws one destination
    per injected packet from the traffic RNG in terminal-major order.
    """

    closed_loop = False

    def __init__(self, process: InjectionProcess, pattern: TrafficPattern) -> None:
        self.process = process
        self.pattern = pattern
        self.name = f"synthetic({type(process).__name__}, {pattern.name})"

    def start(self, topology, packet_size, traffic_rng, injection_rng) -> None:
        self._traffic_rng = traffic_rng
        self.pattern.bind(topology)
        self.process.start(topology.num_terminals, packet_size, injection_rng)

    def messages(self, now: int) -> List[Message]:
        fires = self.process.injections(now)
        if not fires:
            return _NO_MESSAGES
        destination = self.pattern.destination
        rng = self._traffic_rng
        # Bare (src, dst, msg_class, size) tuples: this is every
        # pattern run's packet source, one tuple per packet.  A
        # Bernoulli process fires one packet per terminal, so that
        # case skips the per-terminal inner loop.
        out = []
        append = out.append
        for terminal, count in fires:
            if count == 1:
                append((terminal, destination(terminal, rng), 0, None))
            else:
                for _ in range(count):
                    append((terminal, destination(terminal, rng), 0, None))
        return out

    def exhausted(self) -> bool:
        return self.process.exhausted()

    def next_message_cycle(self, now: int) -> Optional[int]:
        return self.process.next_injection_cycle(now)

    def batch_delegate(self):
        if isinstance(self.process, BernoulliInjection):
            return self.process.load, self.pattern
        return None

    @property
    def offered_load(self) -> float:
        return getattr(self.process, "load", 0.0)


#: msg_class of requests / replies in closed-loop workloads.
REQUEST_CLASS = 0
REPLY_CLASS = 1


class RequestReply(Workload):
    """Closed-loop request→reply traffic.

    Terminals issue *requests* (class 0) as an open-loop Bernoulli
    process over ``pattern`` destinations; each delivered request
    spawns a *reply* (class 1) from the request's destination back to
    its source, ``service_delay`` cycles after delivery.  With
    ``requests_per_terminal`` set the workload is finite: it is
    exhausted once every quota is spent, every outstanding request has
    been delivered, and every scheduled reply has been emitted.

    Request and reply ride disjoint VC partitions (``num_classes=2``),
    so a reply can never wait on a buffer held by a request — the
    standard protocol-deadlock-freedom argument; the deadlock-freedom
    test drives this at saturation load to completion.
    """

    name = "request-reply"
    num_classes = 2
    closed_loop = True

    def __init__(
        self,
        load: float,
        service_delay: int = 8,
        reply_size: Optional[int] = None,
        requests_per_terminal: Optional[int] = None,
        pattern: Optional["TrafficPattern"] = None,
    ) -> None:
        from ..traffic.patterns import UniformRandom

        if not 0.0 < load <= 1.0:
            raise ValueError(f"request load must be in (0, 1], got {load}")
        if service_delay < 1:
            # A reply must not materialize in the same cycle its request
            # is delivered: message creation precedes delivery within a
            # cycle, so a zero-delay reply would be silently deferred.
            raise ValueError(f"service_delay must be >= 1, got {service_delay}")
        if reply_size is not None and reply_size < 1:
            raise ValueError(f"reply_size must be >= 1, got {reply_size}")
        if requests_per_terminal is not None and requests_per_terminal < 1:
            raise ValueError(
                f"requests_per_terminal must be >= 1, "
                f"got {requests_per_terminal}"
            )
        self.load = load
        self.service_delay = service_delay
        self.reply_size = reply_size
        self.requests_per_terminal = requests_per_terminal
        self.pattern = pattern or UniformRandom()
        self._process = BernoulliInjection(load)

    def start(self, topology, packet_size, traffic_rng, injection_rng) -> None:
        self._traffic_rng = traffic_rng
        self.pattern.bind(topology)
        self._process.start(topology.num_terminals, packet_size, injection_rng)
        self._quota = (
            None
            if self.requests_per_terminal is None
            else [self.requests_per_terminal] * topology.num_terminals
        )
        self._quota_left = (
            None
            if self._quota is None
            else self.requests_per_terminal * topology.num_terminals
        )
        # Replies scheduled but not yet emitted: cycle -> [Message].
        self._replies: Dict[int, List[Message]] = {}
        # Requests in flight (emitted, not yet delivered): until they
        # deliver, their replies are not scheduled anywhere, so the
        # workload is not exhausted even with empty calendars.
        self._outstanding = 0

    def messages(self, now: int) -> List[Message]:
        out = self._replies.pop(now, None)
        if out is None:
            out = []
        # Once the quota is spent, stop consulting the Bernoulli calendar
        # entirely: its reschedule draws would otherwise advance the
        # injection RNG on cycles the event kernel (whose idle-skip
        # consults next_message_cycle, which already excludes the spent
        # process) never executes, making the final RNG states depend
        # on which cycles were skipped.  The transition happens at a
        # fixed cycle, so behavior before it is untouched.
        fires = (
            self._process.injections(now) if self._quota_left != 0 else ()
        )
        if fires:
            destination = self.pattern.destination
            rng = self._traffic_rng
            quota = self._quota
            for terminal, count in fires:
                for _ in range(count):
                    if quota is not None:
                        if quota[terminal] <= 0:
                            continue
                        quota[terminal] -= 1
                        self._quota_left -= 1
                    out.append(
                        Message(terminal, destination(terminal, rng), REQUEST_CLASS)
                    )
        self._outstanding += len(out)
        return out

    def on_delivered(self, packet, now: int) -> None:
        self._outstanding -= 1
        if packet.msg_class != REQUEST_CLASS:
            return
        reply = Message(packet.dst, packet.src, REPLY_CLASS, self.reply_size)
        cycle = now + self.service_delay
        slot = self._replies.get(cycle)
        if slot is None:
            self._replies[cycle] = [reply]
        else:
            slot.append(reply)
        self._outstanding += 1

    def exhausted(self) -> bool:
        return (
            self._quota_left == 0
            and self._outstanding == 0
            and not self._replies
        )

    def next_message_cycle(self, now: int) -> Optional[int]:
        candidates = []
        if self._quota_left != 0:
            nxt = self._process.next_injection_cycle(now)
            if nxt is not None:
                candidates.append(nxt)
        if self._replies:
            candidates.append(min(self._replies))
        if not candidates:
            return None
        return min(candidates)

    @property
    def offered_load(self) -> float:
        return self.load


# ----------------------------------------------------------------------
# Workload descriptions (config / cache plumbing)
# ----------------------------------------------------------------------

#: Registered workload factories: kind -> callable(**params) -> Workload.
_REGISTRY: Dict[str, type] = {}


def register_workload(kind: str):
    """Class decorator registering a workload under ``kind`` so a
    :class:`WorkloadSpec` can rebuild it from its description."""

    def decorate(cls):
        existing = _REGISTRY.get(kind)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"workload kind {kind!r} already registered to "
                f"{existing.__name__}"
            )
        _REGISTRY[kind] = cls
        return cls

    return decorate


def _ensure_registered() -> None:
    """Import the modules that register the stock workload kinds (kept
    lazy so ``repro.network`` does not drag the whole traffic package
    in at import time)."""
    from ..traffic import datacenter  # noqa: F401


def registered_workloads() -> Tuple[str, ...]:
    """The registered workload kinds, sorted."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable, cache-describable workload description.

    ``kind`` names a registered workload class and ``params`` are its
    constructor keyword arguments as a sorted tuple of ``(name, value)``
    pairs — primitives only, so the spec travels through
    :class:`~repro.runner.SimSpec` pickling and into the result-cache
    key like every other :class:`~repro.network.SimulationConfig`
    field.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, kind: str, **params) -> "WorkloadSpec":
        return cls(kind, tuple(sorted(params.items())))

    def build(self) -> Workload:
        factory = _REGISTRY.get(self.kind)
        if factory is None:
            _ensure_registered()
            factory = _REGISTRY.get(self.kind)
        if factory is None:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; registered kinds: "
                f"{', '.join(registered_workloads())}"
            )
        return factory(**dict(self.params))


# RequestReply is defined above the registry machinery, so it is
# registered here rather than via the decorator.
register_workload("request_reply")(RequestReply)


def churn_permutation(seed: int, epoch_index: int, num_terminals: int) -> List[int]:
    """The fixed permutation of churn epoch ``epoch_index`` — a pure
    function of ``(seed, epoch_index)`` via :func:`derive_seed`, so
    any number of skipped epochs leaves it unchanged without touching
    the shared RNG streams."""
    perm = list(range(num_terminals))
    random.Random(derive_seed(seed, "churn-epoch", epoch_index)).shuffle(perm)
    return perm
