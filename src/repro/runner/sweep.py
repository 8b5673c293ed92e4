"""The sweep engine: fan independent jobs over a process pool.

``SweepRunner.map`` preserves input order, consults the result cache
before executing anything, and falls back to in-process execution for
``jobs=1`` (or for jobs that cannot cross a process boundary), so the
serial and parallel paths return bit-identical results.

Three sweep-scale mechanisms live here (all results-neutral — they
change *when and where* a job runs, never what it computes):

* **Warm workers.**  The worker pool is created on a runner's first
  parallel ``map`` (its modules are imported only then, so a serial
  runner never loads them) and reused across every later ``map``
  call, and each worker keeps a topology
  cache (see :mod:`repro.runner.jobs`): all jobs whose specs share a
  topology sub-spec reuse one topology instance — and therefore one
  bound
  :class:`~repro.core.routing.table.RouteTable` — inside each worker.
  The report's build counters prove it (``topology_builds`` stays at
  or below workers x distinct topologies).
* **Adaptive scheduling.**  Pending jobs are dispatched
  longest-expected-first, using cycle counts observed from earlier
  points at the same offered load as the cost signal (and the offered
  load itself before any observation exists: points near saturation
  run longest).  Jobs travel in small chunks to amortize submit
  overhead.  Results are reassembled into input order, so ordering is
  purely a wall-clock optimization.
* **Replica statistics.**  ``SweepReport`` aggregates the replica
  summaries produced by
  :func:`repro.experiments.common.replicate_jobs` (metric and sample
  counts) next to the kernel stats.

:func:`run_batch_grid` runs a batch-kernel latency-load curve as one
lockstep array program through the same cache probe, store and report
as ``map``.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from . import jobs as _jobs_module
from .cache import ResultCache
from .jobs import BatchOpenLoopJob, execute_chunk, execute_job, init_worker

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: How many times one ``map`` call may rebuild a pool that broke (a
#: worker process was killed or died) and resubmit the lost chunks
#: before giving up and raising ``BrokenProcessPool``.
POOL_REBUILDS = 2


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_JOBS``, else 1.

    ``jobs=0`` (or ``REPRO_JOBS=0``) means "one worker per CPU"."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"{JOBS_ENV} must be an integer, got {env!r}")
        else:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0 for all CPUs), got {jobs}")
    return jobs


@dataclass
class SweepReport:
    """Running totals across every ``map`` call (and every
    :func:`~repro.runner.run_batch_grid` grid) of one runner.

    Besides the point/caching counters, the report aggregates the
    :class:`~repro.network.KernelStats` attached to every result a
    sweep actually *executed* (cache hits are excluded — their stats
    describe some earlier run's work, not this one's), the
    construction counters that prove warm-worker reuse, and replica
    summaries.
    """

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    elapsed: float = 0.0
    batches: int = 0
    # Aggregated KernelStats over executed points.
    sim_cycles: int = 0
    idle_cycles_skipped: int = 0
    router_phase_calls: int = 0
    events_dispatched: int = 0
    sim_wall_seconds: float = 0.0
    route_calls: int = 0
    flits_allocated: int = 0
    flits_reused: int = 0
    phase_seconds: Optional[dict] = None
    # Construction counters summed over the parent and every worker
    # (each counted since its own start; see jobs.build_counters).
    sim_builds: int = 0
    topology_builds: int = 0
    route_table_builds: int = 0
    warm_topology_hits: int = 0
    #: Distinct worker processes that have reported counters.
    workers: int = 0
    # Replica statistics (note_replicated).
    replicated_metrics: int = 0
    replica_samples: int = 0

    def note(self, total: int, hits: int, executed: int, elapsed: float) -> None:
        self.total += total
        self.cache_hits += hits
        self.executed += executed
        self.elapsed += elapsed
        self.batches += 1

    def note_kernel(self, stats) -> None:
        """Fold one result's :class:`KernelStats` into the totals."""
        self.sim_cycles += stats.cycles
        self.idle_cycles_skipped += stats.idle_cycles_skipped
        self.router_phase_calls += stats.router_phase_calls
        self.events_dispatched += stats.events_dispatched
        self.sim_wall_seconds += stats.wall_seconds
        self.route_calls += stats.route_calls
        self.flits_allocated += stats.flits_allocated
        self.flits_reused += stats.flits_reused
        phases = stats.phase_seconds
        if phases:
            from ..profiling import merge_phase_seconds

            if self.phase_seconds is None:
                self.phase_seconds = {}
            merge_phase_seconds(self.phase_seconds, phases)

    def note_builds(self, delta: Dict[str, int]) -> None:
        """Fold one process's construction-counter delta into the
        totals."""
        self.sim_builds += delta.get("sim_builds", 0)
        self.topology_builds += delta.get("topology_builds", 0)
        self.route_table_builds += delta.get("route_table_builds", 0)
        self.warm_topology_hits += delta.get("warm_topology_hits", 0)

    def note_replicated(self, replicated) -> None:
        """Record one replicate_jobs() summary."""
        self.replicated_metrics += 1
        self.replica_samples += replicated.count

    def summary(self) -> str:
        text = (
            f"{self.total} points, {self.cache_hits} cache hits, "
            f"{self.executed} executed, {self.elapsed:.1f}s"
        )
        if self.sim_cycles:
            text += (
                f"; {self.sim_cycles} simulated cycles "
                f"({self.idle_cycles_skipped} idle-skipped), "
                f"{self.router_phase_calls} router-phase calls, "
                f"{self.events_dispatched} events"
            )
        if self.sim_builds:
            text += (
                f"; {self.sim_builds} simulators built over "
                f"{self.topology_builds} topologies / "
                f"{self.route_table_builds} route tables "
                f"({self.warm_topology_hits} warm hits"
            )
            text += f", {self.workers} workers)" if self.workers else ")"
        if self.replicated_metrics:
            text += (
                f"; {self.replicated_metrics} replicated metrics over "
                f"{self.replica_samples} samples"
            )
        return text


def _cost_signal(job) -> float:
    """A load-like proxy for how long a job runs, comparable within one
    job type: offered load for open-loop points (saturated points must
    drain and run longest), 1.0 for saturation probes, the batch size
    for batch runs."""
    load = getattr(job, "load", None)
    if load is not None:
        return float(load)
    batch = getattr(job, "batch_size", None)
    if batch is not None:
        return float(batch)
    return 1.0


class CostModel:
    """Observed-cost estimator behind longest-expected-first dispatch.

    Records the simulated cycle count of completed jobs per (job type,
    cost signal) and predicts relative cost for unseen jobs: the exact
    observation when one exists, the nearest observed signal scaled by
    saturation proximity otherwise, and the raw signal before any
    observation."""

    def __init__(self) -> None:
        # job type name -> {cost signal -> observed simulated cycles}.
        self._costs: Dict[str, Dict[float, float]] = {}

    def expected(self, job) -> float:
        kind = type(job).__name__
        signal = _cost_signal(job)
        history = self._costs.get(kind)
        if history:
            exact = history.get(signal)
            if exact is not None:
                return exact
            nearest = min(history, key=lambda s: abs(s - signal))
            return history[nearest] * (0.1 + signal) / (0.1 + nearest)
        return signal

    def observe(self, job, value) -> None:
        stats = getattr(value, "kernel", None)
        cycles = getattr(stats, "cycles", 0) if stats is not None else 0
        if cycles:
            self._costs.setdefault(type(job).__name__, {})[
                _cost_signal(job)] = float(cycles)


class SweepRunner:
    """Executes independent simulation jobs, optionally in parallel
    and optionally through a :class:`ResultCache`.

    The worker pool persists across ``map`` calls (``close()`` or the
    context manager shuts it down), workers reuse topologies across
    jobs, and pending jobs are dispatched longest-expected-first in
    chunks sized from the batch (1 for small maps, up to 8 for
    paper-scale replica sweeps).

    Args:
        jobs: worker processes; ``None`` reads ``$REPRO_JOBS``
            (default 1 — fully serial, no subprocesses), ``0`` means
            one per CPU.
        cache: a :class:`ResultCache`, or ``None`` to always execute.
        progress: optional callback ``progress(done, total, job)``
            invoked after every completed point (cache hits included).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[int, int, object], None]] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress
        self.report = SweepReport()
        self._pool: Optional["ProcessPoolExecutor"] = None
        # pid -> last reported construction totals for that worker.
        self._worker_totals: Dict[int, Dict[str, int]] = {}
        self._cost_model = CostModel()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def worker_budget(self) -> int:
        """Worker processes the pool actually gets: ``jobs`` capped at
        the machine's CPU count.  The jobs are pure CPU work, so extra
        workers only add context-switch and cache-thrash overhead
        (``jobs`` beyond the core count made a measurable sweep
        *slower*)."""
        return min(self.jobs, os.cpu_count() or self.jobs)

    def _ensure_pool(self) -> "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.worker_budget(),
                initializer=init_worker,
                initargs=(os.getpid(),),
            )
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (workers are respawned
        on the next parallel ``map``)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._worker_totals.clear()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    def run(self, job):
        """Execute (or fetch) a single job."""
        return self.map([job])[0]

    def map(self, jobs: Sequence) -> List:
        """Execute every job, returning results in input order."""
        jobs = list(jobs)
        start = time.perf_counter()
        results, pending, cacheable = self._lookup(jobs)
        done = 0
        missed = set(pending)
        for i, job in enumerate(jobs):
            if i not in missed:
                done += 1
                self._tick(done, len(jobs), job)

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                done = self._run_parallel(jobs, pending, results, done,
                                          cacheable)
            else:
                self._run_local(jobs, pending, results, done, cacheable)
        self._settle(results, pending, start)
        return results

    # ------------------------------------------------------------------
    # The cache probe, store and report of map and run_batch_grid
    # ------------------------------------------------------------------
    def _lookup(self, jobs: List):
        """Probe the cache for every job: ``(results, pending,
        cacheable)``, with each hit filled into ``results``, the
        indices of the misses in order in ``pending``, and whether each
        job has a cache key.  A job whose description cannot be hashed
        (e.g. a lambda metric) is simply uncacheable, not an error."""
        results: List = [None] * len(jobs)
        pending: List[int] = []
        cacheable: List[bool] = [False] * len(jobs)
        for i, job in enumerate(jobs):
            hit = False
            if self.cache is not None:
                try:
                    self.cache.key(job)
                    cacheable[i] = True
                    hit, value = self.cache.get(job)
                except TypeError:
                    hit = False
            if hit:
                results[i] = value
            else:
                pending.append(i)
        return results, pending, cacheable

    def _store(self, job, value, cacheable: bool) -> None:
        if self.cache is not None and cacheable:
            self.cache.put(job, value)

    @contextmanager
    def _counting_builds(self):
        """Fold the construction counters this process accrues inside
        the block into the report."""
        before = _jobs_module.build_counters()
        yield
        self.report.note_builds(
            _diff_counters(before, _jobs_module.build_counters())
        )

    def _settle(self, results: List, pending: List[int], start: float) -> None:
        """Count one lookup-and-execute pass in the report (every job
        once; kernel stats of the executed ones only, as a hit's stats
        describe some earlier run) and persist the cache counters."""
        self.report.note(len(results), len(results) - len(pending),
                         len(pending), time.perf_counter() - start)
        for i in pending:
            stats = getattr(results[i], "kernel", None)
            if stats is not None:
                self.report.note_kernel(stats)
        if self.cache is not None:
            self.cache.flush_counters()

    # ------------------------------------------------------------------
    def _run_local(self, jobs, pending, results, done, cacheable) -> int:
        """Execute ``pending`` in this process (serial path)."""
        with self._counting_builds():
            for i in pending:
                results[i] = execute_job(jobs[i])
                self._store(jobs[i], results[i], cacheable[i])
                self._cost_model.observe(jobs[i], results[i])
                done += 1
                self._tick(done, len(jobs), jobs[i])
        return done

    def _run_parallel(self, jobs, pending, results, done, cacheable) -> int:
        # Jobs that cannot be pickled run in-process; everything else
        # goes to the pool.
        local: List[int] = []
        remote: List[int] = []
        for i in pending:
            try:
                pickle.dumps(jobs[i])
                remote.append(i)
            except Exception:
                local.append(i)

        if len(remote) < 2:
            local, remote = sorted(local + remote), []

        if remote:
            # Longest-expected-first: saturated / high-load points
            # start immediately, so the pool never finishes its short
            # jobs first and then waits on one straggler.
            expected = self._cost_model.expected
            remote.sort(key=lambda i: expected(jobs[i]), reverse=True)
            chunk = self._chunk_size(len(remote))
            chunks = [remote[o:o + chunk]
                      for o in range(0, len(remote), chunk)]
            done = self._run_chunks(jobs, chunks, results, done, cacheable)
        if local:
            done = self._run_local(jobs, local, results, done, cacheable)
        return done

    def _run_chunks(self, jobs, chunks, results, done, cacheable) -> int:
        """Fan ``chunks`` over the pool, surviving worker death.

        A killed worker process breaks the whole ``ProcessPoolExecutor``
        — every outstanding future raises ``BrokenProcessPool`` even
        though most chunks were simply queued.  Rather than wedging the
        sweep, the broken pool is replaced and only the chunks whose
        results never arrived are resubmitted (completed chunks keep
        their results; re-running a lost chunk is safe because jobs are
        deterministic).  ``POOL_REBUILDS`` bounds the retries so a job
        that reliably kills its worker still surfaces as
        ``BrokenProcessPool`` instead of looping forever.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        remaining = [list(group) for group in chunks]
        rebuilds = 0
        while remaining:
            pool = self._ensure_pool()
            broken = False
            try:
                futures = {
                    pool.submit(execute_chunk,
                                [jobs[i] for i in group]): group
                    for group in remaining
                }
            except BrokenProcessPool:
                futures = {}
                broken = True
            outstanding = set(futures)
            while outstanding:
                finished, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    try:
                        values, counters = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    self._note_worker(counters)
                    group = futures[future]
                    for i, value in zip(group, values):
                        results[i] = value
                        self._store(jobs[i], value, cacheable[i])
                        self._cost_model.observe(jobs[i], value)
                        done += 1
                        self._tick(done, len(jobs), jobs[i])
                    remaining.remove(group)
            if not broken:
                break
            # The dead workers' counter totals are gone with their
            # pids; drop the bookkeeping so fresh workers (re)count
            # from zero, then retry the unfinished chunks.
            pool.shutdown(wait=False)
            self._pool = None
            self._worker_totals.clear()
            rebuilds += 1
            if rebuilds > POOL_REBUILDS:
                raise BrokenProcessPool(
                    f"worker pool died {rebuilds} times; giving up on "
                    f"{sum(len(g) for g in remaining)} unfinished job(s)"
                )
        return done

    # ------------------------------------------------------------------
    def _chunk_size(self, n: int) -> int:
        # Aim for several chunks per worker so dynamic scheduling can
        # still balance, but never more than 8 jobs per submission.
        return max(1, min(8, n // (self.worker_budget() * 4)))

    def _note_worker(self, counters: Dict[str, int]) -> None:
        pid = counters.get("pid", 0)
        previous = self._worker_totals.get(pid)
        if previous is None:
            # First report from this worker: the initializer zeroed its
            # counters, so the totals ARE the delta.
            delta = counters
            self.report.workers += 1
        else:
            delta = _diff_counters(previous, counters)
        self._worker_totals[pid] = counters
        self.report.note_builds(delta)

    def _tick(self, done: int, total: int, job) -> None:
        if self.progress is not None:
            self.progress(done, total, job)


def resolve_runner(runner: Optional[SweepRunner] = None) -> SweepRunner:
    """``runner``, or a serial, uncached ``SweepRunner(jobs=1)`` when it
    is ``None``: every helper that takes an optional runner runs its
    jobs through ``map`` either way."""
    return SweepRunner(jobs=1) if runner is None else runner


def run_batch_grid(
    spec,
    loads: Sequence[float],
    seeds: Sequence[int],
    warmup: int,
    measure: int,
    drain_max: int,
    runner: Optional[SweepRunner] = None,
) -> List:
    """Run the whole ``(load x seed)`` grid for the batch-kernel
    ``spec`` and return one :class:`~repro.network.batch.BatchRunResult`
    per load, in order.

    The cache granularity stays at the per-point
    :class:`~repro.runner.jobs.BatchOpenLoopJob` the rest of the stack
    (report counters, ``replicate_jobs``) already consumes: each load is
    probed under its per-point key, the misses execute in this process
    as **one** lockstep grid (one array program, so there is nothing to
    fan out), and each fresh load is stored under its per-point key.
    The grid itself is never stored: no lookup reads it.  Per-run purity
    of the batch backend makes a grid's loads bit-identical to one-load
    grids, so entries written either way are interchangeable.
    ``runner.report`` counts every load as one point and folds in the
    grid's construction counters.  With ``runner=None`` the grid runs
    uncached.
    """
    runner = resolve_runner(runner)
    start = time.perf_counter()
    loads = [float(load) for load in loads]
    seeds = tuple(int(s) for s in seeds)
    point_jobs = [
        BatchOpenLoopJob(spec, load, seeds, warmup, measure, drain_max)
        for load in loads
    ]
    results, missing, cacheable = runner._lookup(point_jobs)
    if missing:
        with runner._counting_builds():
            fresh = spec.build().run_open_loop_grid(
                [loads[i] for i in missing], seeds=seeds, warmup=warmup,
                measure=measure, drain_max=drain_max,
            )
        for i, value in zip(missing, fresh):
            results[i] = value
            runner._store(point_jobs[i], value, cacheable[i])
    runner._settle(results, missing, start)
    return results


def _diff_counters(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("sim_builds", "topology_builds", "route_table_builds",
                    "warm_topology_hits")
    }


def stderr_progress(prefix: str = "sweep") -> Callable[[int, int, object], None]:
    """A ready-made progress callback printing one line per point, with
    an ETA extrapolated from completed-point wall times.  Lines are
    flushed immediately so progress stays visible under ``tee`` or any
    other block-buffering consumer."""
    import sys

    start = time.perf_counter()

    def report(done: int, total: int, job) -> None:
        elapsed = time.perf_counter() - start
        label = type(job).__name__
        if 0 < done < total:
            eta = elapsed / done * (total - done)
            tail = f"{elapsed:.1f}s eta {eta:.1f}s"
        else:
            tail = f"{elapsed:.1f}s"
        print(
            f"[{prefix}] {done}/{total} ({label}) {tail}",
            file=sys.stderr,
            flush=True,
        )

    return report
