"""Whole-load-grid batch execution with per-point caching.

:func:`run_batch_grid` compiles a latency-load curve for a
batch-kernel :class:`~repro.runner.jobs.SimSpec` into **one** lockstep
array program (:class:`~repro.runner.jobs.BatchGridJob`) while keeping
the cache granularity at the per-point
:class:`~repro.runner.jobs.BatchOpenLoopJob` the rest of the stack
(report counters, ``replicate_jobs``) already consumes: each load
point is probed against its per-point key first, only the misses
enter the grid, and every fresh per-load result is stored back under
its per-point key.  The grid itself is never stored: no lookup reads
it.  Per-run purity of the batch backend makes grid results
bit-identical to pointwise execution, so cache entries written either
way are interchangeable — and the cache version stays unchanged.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from .jobs import BatchGridJob, BatchOpenLoopJob, execute_job
from .sweep import resolve_runner


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
    execute in this process as a single :class:`BatchGridJob` (one
    array program, so there is nothing to fan out) and are written
    back point-by-point.  ``runner.report`` counts every load as one
    point.  With ``runner=None`` the grid runs uncached.
    """
    runner = resolve_runner(runner)
    start = time.perf_counter()
    loads = [float(load) for load in loads]
    seeds = tuple(int(s) for s in seeds)
    point_jobs = [
        BatchOpenLoopJob(spec, load, seeds, warmup, measure, drain_max)
        for load in loads
    ]
    cache = runner.cache
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
        fresh = execute_job(BatchGridJob(
            spec,
            tuple(loads[i] for i in missing),
            seeds,
            warmup,
            measure,
            drain_max,
        ))
        for i, value in zip(missing, fresh):
            results[i] = value
            if cache is not None:
                try:
                    cache.put(point_jobs[i], value)
                except TypeError:
                    pass
    runner.report.note(len(loads), len(loads) - len(missing), len(missing),
                       time.perf_counter() - start)
    if cache is not None:
        cache.flush_counters()
    return results
