"""Whole-load-grid batch execution with per-point caching.

:func:`run_batch_grid` compiles a latency-load curve for a
batch-kernel :class:`~repro.runner.jobs.SimSpec` into **one** lockstep
array program (:class:`~repro.runner.jobs.BatchGridJob`) while keeping
the cache granularity at the per-point
:class:`~repro.runner.jobs.BatchOpenLoopJob` the rest of the stack
(report counters, ``replicate_jobs``) already consumes: each load
point is probed against its per-point key first, only the misses
enter the grid, and every fresh per-load result is stored back under
its per-point key.  Per-run purity of the batch
backend makes grid results bit-identical to pointwise execution, so
cache entries written either way are interchangeable — and the cache
version stays unchanged.
"""

from __future__ import annotations

from typing import List, Sequence

from .jobs import BatchGridJob, BatchOpenLoopJob, execute_job


def run_batch_grid(
    spec,
    loads: Sequence[float],
    seeds: Sequence[int],
    warmup: int,
    measure: int,
    drain_max: int,
    runner=None,
) -> List:
    """Run the whole ``(load x seed)`` grid for ``spec`` and return one
    :class:`~repro.network.batch.BatchRunResult` per load, in order.

    Cached points are served from ``runner.cache`` under their
    per-point :class:`BatchOpenLoopJob` keys; the remaining loads
    execute as a single :class:`BatchGridJob` (one array program) and
    are written back point-by-point.  With ``runner=None`` the grid
    job executes in-process, uncached.
    """
    loads = [float(load) for load in loads]
    seeds = tuple(int(s) for s in seeds)
    point_jobs = [
        BatchOpenLoopJob(spec, load, seeds, warmup, measure, drain_max)
        for load in loads
    ]
    cache = getattr(runner, "cache", None)
    results: List = [None] * len(loads)
    missing: List[int] = []
    for i, job in enumerate(point_jobs):
        hit = False
        value = None
        if cache is not None:
            try:
                cache.key(job)
                hit, value = cache.get(job)
            except TypeError:
                hit = False
        if hit:
            results[i] = value
        else:
            missing.append(i)
    if missing:
        grid_job = BatchGridJob(
            spec,
            tuple(loads[i] for i in missing),
            seeds,
            warmup,
            measure,
            drain_max,
        )
        if runner is not None:
            fresh = runner.map([grid_job])[0]
        else:
            fresh = execute_job(grid_job)
        for i, value in zip(missing, fresh):
            results[i] = value
            if cache is not None:
                try:
                    cache.put(point_jobs[i], value)
                except TypeError:
                    pass
    return results
