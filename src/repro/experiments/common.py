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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.stats import OpenLoopResult, ci95_halfwidth
from ..runner import (
    OpenLoopJob,
    SaturationJob,
    SimSpec,
    SweepRunner,
    resolve_runner,
    run_batch_grid,
)


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


def _require_spec(spec) -> None:
    if not isinstance(spec, SimSpec):
        raise TypeError(
            f"the sweep helpers take a SimSpec describing the simulator, "
            f"got {type(spec).__name__}; wrap the factory as "
            f"SimSpec.of(factory, *args)"
        )


def latency_load_curve(
    spec: SimSpec,
    loads: Sequence[float],
    warmup: int,
    measure: int,
    drain_max: int,
    runner: Optional[SweepRunner] = None,
    refine: int = 4,
) -> List[OpenLoopResult]:
    """Run an offered-load sweep, one fresh simulator per point, and
    return the points up to and including the first saturated load.

    Every point is an :class:`~repro.runner.OpenLoopJob` run through
    ``runner`` (a serial, uncached runner when ``None``) in a
    coarse→refine search.  A coarse round probes up to ``refine``
    evenly spaced loads (endpoints included), at most one per pool
    worker, so the round's wall time is one point; on a single worker
    it is just the lowest load.  The refinement then fills the missing
    indices in ascending pool-width waves, never going past ``ub``, the
    lowest index seen saturated.  Every index up to the first saturated
    one is simulated before slicing, so the result is the same on any
    number of workers; indices past the knee never run, saving their
    ``drain_max``-bounded saturated drains.  On one worker the search
    is the serial early-exit sweep: one point per ``map`` call, in
    load order, stopping at the first saturated one.
    """
    _require_spec(spec)
    runner = resolve_runner(runner)
    n = len(loads)
    if n == 0:
        return []
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

    # Coarse round: up to min(refine, workers) evenly spaced indices
    # (speculation beyond the worker count cannot reduce wall time, it
    # only burns extra saturated runs).
    spread = max(1, min(refine, workers))
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


def batch_latency_load_curve(
    spec: SimSpec,
    loads: Sequence[float],
    seeds: Sequence[int],
    warmup: int,
    measure: int,
    drain_max: int,
    runner: Optional[SweepRunner] = None,
) -> List:
    """Batched analogue of :func:`latency_load_curve`: the whole
    ``(load x seed)`` grid compiles into **one** lockstep array program
    (see :func:`repro.runner.run_batch_grid`), with cached points
    served per-load under their unchanged per-point keys.

    Returns one :class:`~repro.network.batch.BatchRunResult` per load,
    truncated at (and including) the first load where *any* replica
    saturated.  The grid still simulates the points past the knee and
    discards them, so the curve has the same points as
    :func:`latency_load_curve`'s.
    """
    results = run_batch_grid(
        spec, loads, seeds, warmup, measure, drain_max, runner=runner
    )
    for i, batch in enumerate(results):
        if any(r.saturated for r in batch.results):
            return results[: i + 1]
    return results


def saturation_throughput(
    spec: SimSpec,
    warmup: int,
    measure: int,
    runner: Optional[SweepRunner] = None,
) -> float:
    """Accepted throughput at offered load 1.0: one
    :class:`~repro.runner.SaturationJob` through ``runner`` (a serial,
    uncached runner when ``None``)."""
    _require_spec(spec)
    return resolve_runner(runner).run(SaturationJob(spec, warmup, measure))


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


def replicate_jobs(
    jobs: Sequence,
    runner: Optional[SweepRunner] = None,
) -> Replicated:
    """Summarize a set of scalar-producing runner jobs (typically one
    :class:`~repro.runner.SaturationJob` per seed) as a
    :class:`Replicated`.  Every job runs, through ``runner`` (a serial,
    uncached runner when ``None``), so the summary is byte-stable.
    """
    if not jobs:
        raise ValueError("need at least one job")
    runner = resolve_runner(runner)
    summary = _summarize(tuple(float(s) for s in runner.map(jobs)))
    runner.report.note_replicated(summary)
    return summary
