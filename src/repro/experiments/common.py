"""Shared infrastructure for the per-figure experiment harnesses.

Each experiment module exposes ``run(scale="ci") -> ExperimentResult``.
``scale="ci"`` uses a scaled-down network (the paper's qualitative
claims are radix-invariant) so the whole suite runs in minutes of pure
Python; ``scale="paper"`` uses the paper's exact configurations
(32-ary 2-flat, N = 1024, radix-63 routers) and the paper's longer
measurement windows.  Setting the environment variable ``REPRO_FULL=1``
makes ``resolve_scale`` default to paper scale.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..network import SimulationConfig, Simulator
from ..network.stats import OpenLoopResult, ci95_halfwidth
from ..runner import (
    CallableJob,
    OpenLoopJob,
    SaturationJob,
    SimSpec,
    SweepRunner,
    execute_job,
    run_batch_grid,
)

#: ``make_simulator`` arguments accepted by the sweep helpers: either a
#: legacy zero-argument factory (serial only) or a picklable
#: :class:`~repro.runner.SimSpec` (parallelizable and cacheable).
SimFactory = Union[SimSpec, Callable[[], Simulator]]


@dataclass(frozen=True)
class Scale:
    """Simulation sizing for one scale tier."""

    name: str
    fb_k: int  # k of the k-ary 2-flat used in routing studies
    loads: Tuple[float, ...]
    warmup: int
    measure: int
    drain_max: int
    batch_sizes: Tuple[int, ...]
    design_study_n: int  # N for the Table 4 / Figure 12 design study
    seeds: Tuple[int, ...] = (1,)


CI_SCALE = Scale(
    name="ci",
    fb_k=8,
    loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    warmup=500,
    measure=500,
    drain_max=6_000,
    batch_sizes=(1, 2, 4, 8, 16, 32, 64),
    design_study_n=256,
)

PAPER_SCALE = Scale(
    name="paper",
    fb_k=32,
    loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    warmup=3000,
    measure=3000,
    drain_max=100_000,
    batch_sizes=(1, 2, 4, 8, 16, 32, 64, 128, 256),
    design_study_n=4096,
)

SCALES = {"ci": CI_SCALE, "paper": PAPER_SCALE}


def resolve_scale(scale) -> Scale:
    """Map a scale name (or Scale) to a :class:`Scale`, honouring
    ``REPRO_FULL=1``."""
    if isinstance(scale, Scale):
        return scale
    if scale is None:
        scale = "paper" if os.environ.get("REPRO_FULL") == "1" else "ci"
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; pick one of {sorted(SCALES)}")


@dataclass
class Table:
    """A printable result table."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add(self, *row: object) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def column(self, name: str) -> List[object]:
        index = list(self.headers).index(name)
        return [row[index] for row in self.rows]

    def to_csv(self) -> str:
        """Comma-separated rendering (header row first), for feeding
        the tables to external plotting tools."""
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow(row)
        return out.getvalue()

    def to_text(self) -> str:
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                if math.isinf(cell):
                    return "inf"
                if math.isnan(cell):
                    return "-"
                return f"{cell:.3f}" if abs(cell) < 100 else f"{cell:.1f}"
            return str(cell)

        grid = [list(map(str, self.headers))] + [
            [fmt(c) for c in row] for row in self.rows
        ]
        widths = [max(len(row[i]) for row in grid) for i in range(len(self.headers))]
        lines = [self.title]
        lines.append("  ".join(h.rjust(w) for h, w in zip(grid[0], widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in grid[1:]:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment: str
    description: str
    scale: str
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def table(self, title: str) -> Table:
        for table in self.tables:
            if table.title == title:
                return table
        raise KeyError(f"no table titled {title!r} in {self.experiment}")

    def to_text(self) -> str:
        parts = [f"== {self.experiment}: {self.description} (scale={self.scale}) =="]
        for table in self.tables:
            parts.append(table.to_text())
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def write_csv(self, directory) -> List[str]:
        """Write one CSV per table into ``directory``; returns the
        paths written.  File names are derived from the experiment id
        and a slug of each table title."""
        import os
        import re

        os.makedirs(directory, exist_ok=True)
        paths = []
        for table in self.tables:
            slug = re.sub(r"[^a-z0-9]+", "-", table.title.lower()).strip("-")[:60]
            path = os.path.join(directory, f"{self.experiment}_{slug}.csv")
            with open(path, "w") as handle:
                handle.write(table.to_csv())
            paths.append(path)
        return paths


def _run_open_loop_point(
    make_simulator: SimFactory,
    load: float,
    warmup: int,
    measure: int,
    drain_max: int,
    runner: Optional[SweepRunner],
) -> OpenLoopResult:
    """One open-loop point, via the runner when the factory is a spec."""
    if isinstance(make_simulator, SimSpec):
        job = OpenLoopJob(make_simulator, load, warmup, measure, drain_max)
        return runner.run(job) if runner is not None else execute_job(job)
    return make_simulator().run_open_loop(
        load, warmup=warmup, measure=measure, drain_max=drain_max
    )


def latency_load_curve(
    make_simulator: SimFactory,
    loads: Sequence[float],
    warmup: int,
    measure: int,
    drain_max: int,
    stop_after_saturation: bool = True,
    runner: Optional[SweepRunner] = None,
    refine: Optional[int] = None,
) -> List[OpenLoopResult]:
    """Run an offered-load sweep, one fresh simulator per point.

    With a parallel ``runner`` and a :class:`~repro.runner.SimSpec`
    factory, every point runs speculatively (the points past
    saturation are computed but discarded), and the returned list is
    bit-identical to the serial early-exit sweep: points up to and
    including the first saturated load, in order.

    ``refine`` switches the parallel path to coarse→refine probing:
    roughly ``refine`` evenly spaced points (endpoints included) run
    first, and further rounds only probe loads below the lowest
    saturated point seen so far, skipping the deep-saturation runs the
    full speculative grid would waste ``drain_max`` cycles on.  Every
    point at or below the first saturated load is still simulated, so
    the returned list stays bit-identical to the serial sweep; only
    points *past* the knee (which both modes discard) are avoided.
    Ignored when ``stop_after_saturation`` is off (every point is
    needed then, so the full grid is already optimal).
    """
    if (
        isinstance(make_simulator, SimSpec)
        and runner is not None
        and runner.jobs > 1
        and len(loads) > 1
    ):
        if refine is not None and refine >= 2 and stop_after_saturation:
            return _refined_curve(
                make_simulator, loads, warmup, measure, drain_max,
                runner, refine,
            )
        jobs = [
            OpenLoopJob(make_simulator, load, warmup, measure, drain_max)
            for load in loads
        ]
        results = runner.map(jobs)
        if stop_after_saturation:
            for i, result in enumerate(results):
                if result.saturated:
                    return results[: i + 1]
        return results

    results: List[OpenLoopResult] = []
    for load in loads:
        result = _run_open_loop_point(
            make_simulator, load, warmup, measure, drain_max, runner
        )
        results.append(result)
        if stop_after_saturation and result.saturated:
            break
    return results


def batch_latency_load_curve(
    spec: SimSpec,
    loads: Sequence[float],
    seeds: Sequence[int],
    warmup: int,
    measure: int,
    drain_max: int,
    runner: Optional[SweepRunner] = None,
    stop_after_saturation: bool = True,
) -> List:
    """Batched analogue of :func:`latency_load_curve`: the whole
    ``(load x seed)`` grid compiles into **one** lockstep array program
    (see :func:`repro.runner.run_batch_grid`), with cached points
    served per-load under their unchanged per-point keys.

    Returns one :class:`~repro.network.batch.BatchRunResult` per load.
    With ``stop_after_saturation`` the curve is truncated at (and
    including) the first load where *any* replica saturated — the grid
    still simulates the points past the knee speculatively, exactly
    like the parallel event-kernel sweep, and discards them for
    output parity with the serial early-exit sweep.
    """
    results = run_batch_grid(
        spec, loads, seeds, warmup, measure, drain_max, runner=runner
    )
    if stop_after_saturation:
        for i, batch in enumerate(results):
            if any(r.saturated for r in batch.results):
                return results[: i + 1]
    return results


def _refined_curve(
    spec: SimSpec,
    loads: Sequence[float],
    warmup: int,
    measure: int,
    drain_max: int,
    runner: SweepRunner,
    probes: int,
) -> List[OpenLoopResult]:
    """Coarse→refine evaluation of a latency-load grid.

    A coarse round probes evenly spaced loads — at most one probe per
    pool worker, so the round's wall time is one point (on a single
    worker it degenerates to just the lowest load and the whole search
    becomes the serial early-exit, executing zero extra points).  The
    refinement then fills unevaluated indices in ascending pool-width
    waves, never going past ``ub``, the lowest index observed
    saturated.  Every index up to the first saturated one is simulated
    before slicing (the bit-identical-to-serial invariant); indices
    past the knee simply never run, saving their ``drain_max``-bounded
    saturated drains.
    """
    n = len(loads)
    done: Dict[int, OpenLoopResult] = {}
    ub = n - 1  # lowest index known saturated (grid end if none yet)
    workers = max(1, runner.worker_budget())

    def run_round(indices: List[int]) -> None:
        nonlocal ub
        jobs = [
            OpenLoopJob(spec, loads[i], warmup, measure, drain_max)
            for i in indices
        ]
        for i, result in zip(indices, runner.map(jobs)):
            done[i] = result
            if result.saturated and i < ub:
                ub = i

    # Coarse round: up to min(probes, workers) evenly spaced indices
    # (speculation beyond the worker count cannot reduce wall time, it
    # only burns extra saturated runs).
    spread = max(1, min(probes, workers))
    if spread > 1:
        step = max(1, (n - 1) // (spread - 1))
        coarse = sorted(set(list(range(0, n, step)) + [n - 1]))
    else:
        coarse = [0]
    run_round(coarse)

    # Refine: ascending pool-width waves over the still-missing
    # indices at or below the bound.  A wave can lower the bound
    # (its lowest saturated member), cutting off the rest.
    while True:
        missing = [i for i in range(ub + 1) if i not in done]
        if not missing:
            break
        run_round(missing[:workers])

    ordered = [done[i] for i in range(ub + 1)]
    for i, result in enumerate(ordered):
        if result.saturated:
            return ordered[: i + 1]
    return ordered


def saturation_throughput(
    make_simulator: SimFactory,
    warmup: int,
    measure: int,
    runner: Optional[SweepRunner] = None,
) -> float:
    """Accepted throughput at offered load 1.0."""
    if isinstance(make_simulator, SimSpec):
        job = SaturationJob(make_simulator, warmup, measure)
        return runner.run(job) if runner is not None else execute_job(job)
    return make_simulator().measure_saturation_throughput(warmup, measure)


def _speculative_midpoints(
    low: float, high: float, precision: float, budget: int
) -> List[float]:
    """The next ``budget`` loads a bisection of ``[low, high]`` could
    probe: the midpoint, then the midpoints of both halves, breadth
    first.  Probing them concurrently lets a parallel saturation
    search descend several bisection levels per round while visiting
    exactly the loads the serial search would."""
    loads: List[float] = []

    def descend(lo: float, hi: float, remaining: int) -> None:
        if remaining <= 0 or hi - lo <= precision:
            return
        mid = (lo + hi) / 2.0
        loads.append(mid)
        child_budget = (remaining - 1) // 2
        descend(lo, mid, child_budget)
        descend(mid, hi, child_budget)

    descend(low, high, budget)
    return loads


def find_saturation_load(
    make_simulator: Callable[[float], Union[Simulator, SimSpec]],
    warmup: int,
    measure: int,
    drain_max: int,
    latency_bound: float = 4.0,
    precision: float = 0.02,
    runner: Optional[SweepRunner] = None,
) -> float:
    """Binary-search the offered load at which the network saturates.

    A load point counts as saturated when the run's labeled packets
    fail to drain, or when mean latency exceeds ``latency_bound`` times
    the zero-load latency (measured at load 0.05).  ``make_simulator``
    receives the load and returns either a fresh simulator or a
    :class:`~repro.runner.SimSpec`; every probe (the baseline
    included) is memoized, so no load is ever simulated twice within
    one search.

    With a parallel ``runner`` and spec factories, each bisection
    round also probes the midpoints of both half-intervals
    speculatively; the bracket walk consumes the memoized results in
    serial order, so the answer is bit-identical to the serial search.

    Returns the highest non-saturated load found, to within
    ``precision`` — or 0.0 when the network is saturated even at the
    0.05 baseline load.
    """
    if not 0 < precision < 0.5:
        raise ValueError(f"precision must be in (0, 0.5), got {precision}")

    probes: Dict[float, OpenLoopResult] = {}

    def probe(load: float) -> OpenLoopResult:
        if load not in probes:
            made = make_simulator(load)
            if isinstance(made, SimSpec):
                job = OpenLoopJob(made, load, warmup, measure, drain_max)
                probes[load] = (
                    runner.run(job) if runner is not None else execute_job(job)
                )
            else:
                probes[load] = made.run_open_loop(
                    load, warmup=warmup, measure=measure, drain_max=drain_max
                )
        return probes[load]

    parallel = runner is not None and runner.jobs > 1

    def prefetch(loads: Sequence[float]) -> None:
        missing = [load for load in loads if load not in probes]
        jobs = []
        for load in missing:
            made = make_simulator(load)
            if not isinstance(made, SimSpec):
                return  # legacy factory: nothing to speculate with
            jobs.append(OpenLoopJob(made, load, warmup, measure, drain_max))
        for load, result in zip(missing, runner.map(jobs)):
            probes[load] = result

    if parallel:
        prefetch([0.05, 1.0])
    baseline = probe(0.05)
    if baseline.saturated:
        return 0.0
    threshold = max(baseline.latency.mean, 1.0) * latency_bound

    def saturated(load: float) -> bool:
        result = probe(load)
        return result.saturated or result.latency.mean > threshold

    low, high = 0.05, 1.0
    if not saturated(1.0):
        return 1.0
    while high - low > precision:
        if parallel:
            prefetch(_speculative_midpoints(low, high, precision, runner.jobs))
        mid = (low + high) / 2.0
        if saturated(mid):
            high = mid
        else:
            low = mid
    return low


@dataclass(frozen=True)
class Replicated:
    """Mean and spread of a metric over independent seeds.

    ``ci95`` is the half-width of the 95% confidence interval on the
    mean (Student-t for small sample counts; 0.0 for a single sample).
    """

    mean: float
    std: float
    samples: Tuple[float, ...]
    ci95: float = 0.0

    @property
    def count(self) -> int:
        return len(self.samples)


def _summarize(samples: Tuple[float, ...]) -> Replicated:
    mean = sum(samples) / len(samples)
    if len(samples) > 1:
        variance = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return Replicated(
        mean=mean, std=std, samples=samples,
        ci95=ci95_halfwidth(std, len(samples)),
    )


def _note_replicated(runner, summary) -> None:
    if runner is not None:
        runner.report.note_replicated(summary)


def replicate(
    metric: Callable[[int], float],
    seeds: Sequence[int],
    runner: Optional[SweepRunner] = None,
) -> Replicated:
    """Run ``metric(seed)`` over ``seeds`` and summarize.

    Use for confidence in simulation results, e.g.::

        replicate(
            lambda seed: Simulator(
                FlattenedButterfly(8, 2), ClosAD(), adversarial(),
                SimulationConfig(seed=seed),
            ).measure_saturation_throughput(500, 500),
            seeds=range(1, 6),
        )

    With a parallel ``runner`` and a picklable ``metric`` (a
    module-level function or ``functools.partial``), seeds run
    concurrently; a lambda metric silently falls back to the serial
    path.  Every seed runs, so the summary is byte-stable.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    seeds = tuple(seeds)
    parallel = runner is not None and runner.jobs > 1 and len(seeds) > 1
    if parallel:
        try:
            pickle.dumps(metric)
        except Exception:
            parallel = False  # unpicklable metric: run serially below

    if parallel:
        jobs = [CallableJob.of(metric, seed) for seed in seeds]
        summary = _summarize(tuple(float(s) for s in runner.map(jobs)))
    else:
        summary = _summarize(tuple(float(metric(seed)) for seed in seeds))
    _note_replicated(runner, summary)
    return summary


def replicate_jobs(
    jobs: Sequence,
    runner: Optional[SweepRunner] = None,
) -> Replicated:
    """Summarize a set of scalar-producing runner jobs (typically one
    :class:`~repro.runner.SaturationJob` per seed) as a
    :class:`Replicated`.  Every job runs, through ``runner`` when
    given.
    """
    if not jobs:
        raise ValueError("need at least one job")
    jobs = list(jobs)
    if runner is not None:
        samples = runner.map(jobs)
    else:
        samples = [execute_job(job) for job in jobs]
    summary = _summarize(tuple(float(s) for s in samples))
    _note_replicated(runner, summary)
    return summary

    summary = _summarize(run_wave(jobs))
    _note_replicated(runner, summary, False)
    return summary
