"""Picklable job records for the sweep runner, plus the warm-worker
execution layer.

A :class:`SimSpec` describes *how to build* a simulator rather than
holding a live one, so a job can cross a process boundary and can be
hashed into a stable cache key.  The factory must be a module-level
callable (a function or class); its arguments must be picklable and
describable by :func:`repro.runner.cache.describe`.

A spec may carry a separate **topology sub-spec**
(:meth:`SimSpec.with_topology`): the factory then receives the built
topology as its first positional argument.  Splitting the topology out
lets a worker process recognise that consecutive jobs share a topology
(:meth:`SimSpec.topology_key`) and rebuild it once instead of per job —
and because the shared :class:`~repro.core.routing.table.RouteTable` is
keyed on the topology *object*, reusing the object also reuses every
precomputed routing entry.  Reuse cannot change results: a topology is
immutable once constructed, and the route table only memoizes pure
functions of the topology (its table-served decisions are held to
each algorithm's table-free ``route()`` by the property tests and the
committed ``route_table/*`` fingerprints).

:func:`execute_job` is the single per-job worker entry point;
:func:`execute_chunk` runs a batch of jobs and reports the worker's
construction counters so the parent can prove (in
:class:`~repro.runner.sweep.SweepReport`) that warm workers built each
topology at most once.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..network import Simulator

# Per-process construction counters.  Tests and the sweep report use
# them to prove that a cache hit builds nothing and that warm workers
# build each topology at most once.
_counter_lock = threading.Lock()
_sim_builds_value = 0
_topology_builds_value = 0
_warm_hits_value = 0

# The per-process warm cache: topology description -> topology object.
# Holding the topology alive also keeps its shared RouteTable alive in
# repro.core.routing.table's WeakKeyDictionary.
_warm_topologies: Dict[str, object] = {}


def _record_build() -> None:
    global _sim_builds_value
    with _counter_lock:
        _sim_builds_value += 1


def sim_build_count() -> int:
    """Number of simulators built via :meth:`SimSpec.build` in this
    process since import."""
    return _sim_builds_value


def topology_build_count() -> int:
    """Number of topologies constructed through topology sub-specs in
    this process since import."""
    return _topology_builds_value


def warm_hit_count() -> int:
    """Number of topology constructions avoided by the warm cache in
    this process since import."""
    return _warm_hits_value


def clear_warm_cache() -> None:
    """Drop every cached topology, so the next job of each topology
    builds it afresh (used to time or check cold builds; never required
    for correctness)."""
    _warm_topologies.clear()


#: Seconds between a pool worker's checks that its parent still lives.
_ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent_pid: int) -> None:
    """Exit the worker once it is reparented, i.e. once the sweep
    process that owns its pool has died without shutting it down
    (SIGKILL, ``os._exit``, the OOM killer)."""
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def init_worker(parent_pid: int) -> None:
    """Pool initializer: zero the construction counters and empty the
    topology cache, so every worker reports totals since its own start
    (forked workers otherwise inherit the parent's counts and cache).
    A daemon thread ends the worker if ``parent_pid``, the pool's
    owner, dies: a pool worker never outlives the sweep it serves."""
    global _sim_builds_value, _topology_builds_value, _warm_hits_value
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,), daemon=True,
        name="orphan-watch",
    ).start()
    with _counter_lock:
        _sim_builds_value = 0
        _topology_builds_value = 0
        _warm_hits_value = 0
    _warm_topologies.clear()
    from ..core.routing.table import reset_build_count

    reset_build_count()


def build_counters() -> Dict[str, int]:
    """Snapshot of this process's construction counters."""
    from ..core.routing.table import table_build_count

    return {
        "pid": os.getpid(),
        "sim_builds": _sim_builds_value,
        "topology_builds": _topology_builds_value,
        "route_table_builds": table_build_count(),
        "warm_topology_hits": _warm_hits_value,
    }


def _build_topology(topo_spec: "SimSpec"):
    """Build (or fetch from the warm cache) the topology described by
    ``topo_spec``."""
    global _topology_builds_value, _warm_hits_value
    key = topo_spec.describe_key()
    if key is not None:
        topology = _warm_topologies.get(key)
        if topology is not None:
            with _counter_lock:
                _warm_hits_value += 1
            return topology
    topology = topo_spec.factory(*topo_spec.args, **dict(topo_spec.kwargs))
    with _counter_lock:
        _topology_builds_value += 1
    if key is not None:
        _warm_topologies[key] = topology
    return topology


@dataclass(frozen=True)
class SimSpec:
    """A deferred, picklable simulator construction.

    Attributes:
        factory: module-level callable returning a
            :class:`~repro.network.Simulator`.
        args: positional arguments for the factory.
        kwargs: keyword arguments, stored as a sorted tuple of
            ``(name, value)`` pairs so the spec stays hashable and its
            cache key is order-independent.
        topology: optional sub-spec describing the topology.  When set,
            the built topology is passed to ``factory`` as its first
            positional argument, and workers may serve it from their
            warm cache (see module docstring).
    """

    factory: Callable[..., Simulator]
    args: Tuple = ()
    kwargs: Tuple[Tuple[str, object], ...] = ()
    topology: Optional["SimSpec"] = None

    @classmethod
    def of(cls, factory: Callable[..., Simulator], *args, **kwargs) -> "SimSpec":
        return cls(factory, tuple(args), tuple(sorted(kwargs.items())))

    def bind(self, *args, **kwargs) -> "SimSpec":
        """Return a new spec with extra arguments appended."""
        merged = dict(self.kwargs)
        merged.update(kwargs)
        return SimSpec(self.factory, self.args + tuple(args),
                       tuple(sorted(merged.items())), self.topology)

    def with_topology(self, factory, *args, **kwargs) -> "SimSpec":
        """Return a new spec carrying a topology sub-spec.  ``factory``
        may be a topology class/factory (with its arguments) or an
        already-built :class:`SimSpec`."""
        if isinstance(factory, SimSpec):
            if args or kwargs:
                raise TypeError(
                    "pass either a ready SimSpec or factory+arguments, not both"
                )
            sub = factory
        else:
            sub = SimSpec.of(factory, *args, **kwargs)
        return SimSpec(self.factory, self.args, self.kwargs, sub)

    def describe_key(self) -> Optional[str]:
        """Canonical JSON string describing this spec, or ``None`` when
        the spec has no stable description (e.g. a lambda factory)."""
        from .cache import describe

        try:
            description = describe(self)
        except TypeError:
            return None
        return json.dumps(description, sort_keys=True, separators=(",", ":"))

    def topology_key(self) -> Optional[str]:
        """Stable identity of this spec's topology sub-spec (``None``
        when the spec builds its topology inside the factory).  Jobs
        with equal topology keys share one topology instance — and one
        bound route table — inside a warm worker."""
        if self.topology is None:
            return None
        return self.topology.describe_key()

    def build(self) -> Simulator:
        _record_build()
        if self.topology is None:
            return self.factory(*self.args, **dict(self.kwargs))
        topology = _build_topology(self.topology)
        return self.factory(topology, *self.args, **dict(self.kwargs))


@dataclass(frozen=True)
class OpenLoopJob:
    """One point of a latency-load curve."""

    spec: SimSpec
    load: float
    warmup: int
    measure: int
    drain_max: int


@dataclass(frozen=True)
class WorkloadJob:
    """One workload-driven measurement (``Simulator.run_workload``).

    The workload itself travels inside the spec — as a
    :class:`~repro.network.workload.WorkloadSpec` in the simulator
    config (or a factory building the Workload) — so the job's cache
    key covers the full traffic description."""

    spec: SimSpec
    warmup: int
    measure: int
    drain_max: int


@dataclass(frozen=True)
class SaturationJob:
    """One accepted-throughput measurement at offered load 1.0."""

    spec: SimSpec
    warmup: int
    measure: int


@dataclass(frozen=True)
class BatchJob:
    """One batch (dynamic-response) run."""

    spec: SimSpec
    batch_size: int
    max_cycles: int = 1_000_000


@dataclass(frozen=True)
class BatchOpenLoopJob:
    """A whole batch of open-loop replicas at one load point, executed
    in lockstep by the vectorized backend as a one-load grid (the spec
    must build a ``kernel="batch"`` simulator).  Returns a
    :class:`~repro.network.batch.BatchRunResult`; it is also the cache
    key of each load of a :func:`~repro.runner.run_batch_grid` grid."""

    spec: SimSpec
    load: float
    seeds: Tuple[int, ...]
    warmup: int
    measure: int
    drain_max: int


@dataclass(frozen=True)
class BatchSaturationJob:
    """A batch of saturation-throughput replicas (offered load 1.0)
    executed in lockstep; returns one float per seed."""

    spec: SimSpec
    seeds: Tuple[int, ...]
    warmup: int
    measure: int


@dataclass(frozen=True)
class CallableJob:
    """An arbitrary metric evaluation, ``fn(*args, **kwargs)``, e.g.
    one seed of a :func:`~repro.experiments.common.replicate_jobs`
    summary.  The callable must be module-level (or otherwise picklable
    and describable) to cross a process boundary or enter the cache."""

    fn: Callable
    args: Tuple = ()
    kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, fn: Callable, *args, **kwargs) -> "CallableJob":
        return cls(fn, tuple(args), tuple(sorted(kwargs.items())))


def execute_job(job):
    """Run one job to completion and return its result record.

    This is the sole per-job entry point executed inside worker
    processes; it must stay importable at module level so jobs pickle
    by reference.
    """
    if isinstance(job, OpenLoopJob):
        return job.spec.build().run_open_loop(
            job.load, warmup=job.warmup, measure=job.measure,
            drain_max=job.drain_max,
        )
    if isinstance(job, WorkloadJob):
        return job.spec.build().run_workload(
            warmup=job.warmup, measure=job.measure, drain_max=job.drain_max
        )
    if isinstance(job, SaturationJob):
        return job.spec.build().measure_saturation_throughput(
            job.warmup, job.measure
        )
    if isinstance(job, BatchJob):
        return job.spec.build().run_batch(job.batch_size, job.max_cycles)
    if isinstance(job, BatchOpenLoopJob):
        return job.spec.build().run_open_loop_grid(
            [job.load], seeds=job.seeds, warmup=job.warmup,
            measure=job.measure, drain_max=job.drain_max,
        )[0]
    if isinstance(job, BatchSaturationJob):
        return job.spec.build().measure_saturation_throughput_batch(
            seeds=job.seeds, warmup=job.warmup, measure=job.measure
        )
    if isinstance(job, CallableJob):
        return job.fn(*job.args, **dict(job.kwargs))
    raise TypeError(f"unknown job type {type(job).__name__}")


def execute_chunk(jobs: List) -> Tuple[List, Dict[str, int]]:
    """Run a batch of jobs in this worker and return ``(results,
    counters)``, where ``counters`` are the worker's total construction
    counts since it started (the parent diffs consecutive reports per
    pid).  Chunking amortizes submit/pickle overhead and keeps the
    per-future accounting cheap."""
    return [execute_job(job) for job in jobs], build_counters()
