"""Parallel experiment execution with an on-disk result cache.

Every data point in the paper's evaluation is an independent
simulation: one :class:`~repro.network.Simulator` is built, run once,
and discarded.  This package turns that independence into speed:

* :class:`SimSpec` — a picklable, hashable *description* of a
  simulator (factory + arguments) instead of a live instance,
* :mod:`~repro.runner.jobs` — job records pairing a spec with one
  measurement (open-loop point, saturation probe, batch run),
* :class:`ResultCache` — a content-addressed on-disk cache keyed by a
  stable hash of the full job description and a version stamp,
* :class:`SweepRunner` — fans jobs out over a process pool (or runs
  them serially for ``jobs=1``) with identical results either way.

Results are bit-identical between serial and parallel execution
because each job carries its own deterministic seed and every
simulator is constructed inside the job from the same description.
Warm workers (see :mod:`~repro.runner.jobs`) may reuse a topology
object across jobs, which cannot perturb results because topologies
are immutable after construction.
"""

from .cache import CACHE_VERSION, ResultCache, describe, job_key
from .grid import run_batch_grid
from .jobs import (
    BatchGridJob,
    BatchJob,
    BatchOpenLoopJob,
    BatchSaturationJob,
    CallableJob,
    OpenLoopJob,
    SaturationJob,
    SimSpec,
    WorkloadJob,
    build_counters,
    clear_warm_cache,
    execute_chunk,
    execute_job,
    init_worker,
    sim_build_count,
    topology_build_count,
    warm_hit_count,
)
from .sweep import (
    SweepReport,
    SweepRunner,
    resolve_jobs,
    resolve_runner,
    stderr_progress,
)

__all__ = [
    "BatchGridJob",
    "BatchJob",
    "BatchOpenLoopJob",
    "BatchSaturationJob",
    "CACHE_VERSION",
    "CallableJob",
    "OpenLoopJob",
    "ResultCache",
    "SaturationJob",
    "SimSpec",
    "SweepReport",
    "SweepRunner",
    "WorkloadJob",
    "build_counters",
    "clear_warm_cache",
    "describe",
    "execute_chunk",
    "execute_job",
    "init_worker",
    "job_key",
    "resolve_jobs",
    "resolve_runner",
    "run_batch_grid",
    "sim_build_count",
    "stderr_progress",
    "topology_build_count",
    "warm_hit_count",
]
