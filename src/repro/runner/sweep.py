"""The sweep engine: fan independent jobs over a process pool.

``SweepRunner.map`` preserves input order, consults the result cache
before executing anything, and falls back to in-process execution for
``jobs=1`` (or for jobs that cannot cross a process boundary), so the
serial and parallel paths return bit-identical results.

Three sweep-scale mechanisms live here (all results-neutral — they
change *when and where* a job runs, never what it computes):

* **Warm workers.**  The worker pool is created once per runner and
  reused across every ``map`` call, with an initializer that arms the
  per-worker topology cache (see :mod:`repro.runner.jobs`): all jobs
  whose specs share a topology sub-spec reuse one topology instance —
  and therefore one bound
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
  summaries produced by :func:`repro.experiments.common.replicate` /
  ``replicate_jobs`` (sample counts, early stops) next to the kernel
  stats.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from . import jobs as _jobs_module
from .cache import ResultCache
from .jobs import execute_chunk, execute_job, init_worker, warm_override

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


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
    """Running totals across every ``map`` call of one runner.

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
    replica_early_stops: int = 0

    def note(self, total: int, hits: int, executed: int, elapsed: float) -> None:
        self.total += total
        self.cache_hits += hits
        self.executed += executed
        self.elapsed += elapsed
        self.batches += 1

    def note_kernel(self, stats) -> None:
        """Fold one result's :class:`KernelStats` into the totals.

        Tolerates stats records predating a field (older cached
        results) by treating them as zero."""
        self.sim_cycles += stats.cycles
        self.idle_cycles_skipped += stats.idle_cycles_skipped
        self.router_phase_calls += stats.router_phase_calls
        self.events_dispatched += stats.events_dispatched
        self.sim_wall_seconds += stats.wall_seconds
        self.route_calls += getattr(stats, "route_calls", 0)
        self.flits_allocated += getattr(stats, "flits_allocated", 0)
        self.flits_reused += getattr(stats, "flits_reused", 0)
        phases = getattr(stats, "phase_seconds", None)
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

    def note_replicated(self, replicated, early_stopped: bool = False) -> None:
        """Record one replicate() / replicate_jobs() summary."""
        self.replicated_metrics += 1
        self.replica_samples += replicated.count
        if early_stopped:
            self.replica_early_stops += 1

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
            if self.replica_early_stops:
                text += f" ({self.replica_early_stops} early-stopped)"
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

    Args:
        jobs: worker processes; ``None`` reads ``$REPRO_JOBS``
            (default 1 — fully serial, no subprocesses), ``0`` means
            one per CPU.
        cache: a :class:`ResultCache`, or ``None`` to always execute.
        progress: optional callback ``progress(done, total, job)``
            invoked after every completed point (cache hits included).
        warm: per-worker topology reuse (see
            :mod:`repro.runner.jobs`); ``None`` reads ``$REPRO_WARM``
            (default on).  ``warm=False`` rebuilds the topology for
            every job — bit-identical results, PR-4 cost.
        persistent: keep one worker pool alive across ``map`` calls
            (default).  ``False`` restores the spawn-a-pool-per-map
            behavior, which also empties each worker's topology cache
            between maps.
        adaptive: dispatch pending jobs longest-expected-first in small
            chunks (default).  ``False`` submits one future per job in
            input order.
        chunk: jobs per worker submission under adaptive dispatch
            (``None`` — size chosen from the batch: 1 for small maps,
            up to 8 for paper-scale replica sweeps).
        pool_rebuilds: how many times one ``map`` call may rebuild a
            pool that broke (a worker process was killed or died) and
            resubmit the lost chunks before giving up and raising
            ``BrokenProcessPool``.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[int, int, object], None]] = None,
        warm: Optional[bool] = None,
        persistent: bool = True,
        adaptive: bool = True,
        chunk: Optional[int] = None,
        pool_rebuilds: int = 2,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress
        self.warm = _jobs_module.warm_enabled() if warm is None else bool(warm)
        self.persistent = persistent
        self.adaptive = adaptive
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk
        if pool_rebuilds < 0:
            raise ValueError(f"pool_rebuilds must be >= 0, got {pool_rebuilds}")
        self.pool_rebuilds = pool_rebuilds
        self.report = SweepReport()
        self._pool: Optional[ProcessPoolExecutor] = None
        # pid -> last reported construction totals for that worker.
        self._worker_totals: Dict[int, Dict[str, int]] = {}
        self._cost_model = CostModel()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=init_worker,
            initargs=(self.warm,),
        )

    def worker_budget(self) -> int:
        """Worker processes the pool actually gets.  Under adaptive
        scheduling this is capped at the machine's CPU count: the jobs
        are pure CPU work, so extra workers only add context-switch
        and cache-thrash overhead (``jobs`` beyond the core count made
        a measurable sweep *slower*).  ``adaptive=False`` honors the
        requested count verbatim, as the PR-4 runner did."""
        if not self.adaptive:
            return self.jobs
        return min(self.jobs, os.cpu_count() or self.jobs)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._make_pool(self.worker_budget())
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
        results: List = [None] * len(jobs)
        done = 0

        # 1. Cache lookups.  A job whose description cannot be hashed
        # (e.g. a lambda metric) is simply uncacheable, not an error.
        pending: List[int] = []
        cacheable: List[bool] = [False] * len(jobs)
        hits = 0
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
                hits += 1
                done += 1
                self._tick(done, len(jobs), job)
            else:
                pending.append(i)

        # 2. Execute the misses.
        if pending:
            if self.jobs > 1 and len(pending) > 1:
                done = self._run_parallel(jobs, pending, results, done,
                                          cacheable)
            else:
                self._run_local(jobs, pending, results, done, cacheable)

        self.report.note(
            len(jobs), hits, len(pending), time.perf_counter() - start
        )
        for i in pending:
            stats = getattr(results[i], "kernel", None)
            if stats is not None:
                self.report.note_kernel(stats)
        if self.cache is not None:
            self.cache.flush_counters()
        return results

    # ------------------------------------------------------------------
    def _run_local(self, jobs, pending, results, done, cacheable) -> int:
        """Execute ``pending`` in this process (serial path)."""
        before = _jobs_module.build_counters()
        with warm_override(self.warm):
            for i in pending:
                results[i] = execute_job(jobs[i])
                self._store(jobs[i], results[i], cacheable[i])
                self._cost_model.observe(jobs[i], results[i])
                done += 1
                self._tick(done, len(jobs), jobs[i])
        self.report.note_builds(_diff_counters(before,
                                               _jobs_module.build_counters()))
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
            if self.adaptive:
                # Longest-expected-first: saturated / high-load points
                # start immediately, so the pool never finishes its
                # short jobs first and then waits on one straggler.
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
        deterministic).  ``pool_rebuilds`` bounds the retries so a job
        that reliably kills its worker still surfaces as
        ``BrokenProcessPool`` instead of looping forever.
        """
        remaining = [list(group) for group in chunks]
        rebuilds = 0
        while remaining:
            pool = (self._ensure_pool() if self.persistent
                    else self._make_pool(
                        min(self.worker_budget(),
                            sum(len(g) for g in remaining))))
            broken = False
            try:
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
            finally:
                if not self.persistent:
                    pool.shutdown(wait=True)
            if not broken:
                break
            # The dead workers' counter totals are gone with their
            # pids; drop the bookkeeping so fresh workers (re)count
            # from zero, then retry the unfinished chunks.
            pool.shutdown(wait=False)
            if self.persistent:
                self._pool = None
            self._worker_totals.clear()
            rebuilds += 1
            if rebuilds > self.pool_rebuilds:
                raise BrokenProcessPool(
                    f"worker pool died {rebuilds} times; giving up on "
                    f"{sum(len(g) for g in remaining)} unfinished job(s)"
                )
        return done

    # ------------------------------------------------------------------
    def _chunk_size(self, n: int) -> int:
        if self.chunk is not None:
            return self.chunk
        if not self.adaptive:
            return 1
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

    def _store(self, job, value, cacheable: bool) -> None:
        if self.cache is not None and cacheable:
            self.cache.put(job, value)

    def _tick(self, done: int, total: int, job) -> None:
        if self.progress is not None:
            self.progress(done, total, job)


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
