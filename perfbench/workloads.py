"""The benchmark's three workloads, driven through the package's public API.

Each workload splits into ``setup`` (everything from the imports up to
the first simulated cycle: topology, route table, simulator or batch
backend, runner and cache) and ``unit`` (the timed piece of work).  A
unit is deterministic for a given seed and size: it simulates the same
cycles, routes the same packets and writes the same cache entries every
time, so repeated units differ only in how fast the machine ran them.

Why each workload exists, and which layer metric should move which
end-to-end metric on which workload, is recorded in ``README.md`` next
to this file.
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import (
    UGAL,
    ClosAD,
    FlattenedButterfly,
    MinimalAdaptive,
    ResultCache,
    SimSpec,
    SimulationConfig,
    Simulator,
    SweepRunner,
    UniformRandom,
)
from repro.core.routing.table import shared_route_table
from repro.experiments.common import (
    CI_SCALE,
    latency_load_curve,
    saturation_throughput,
)
from repro.network.batch import BatchBackend
from repro.runner.jobs import clear_warm_cache
from repro.traffic import adversarial

from spans import Tracer

#: Seed the golden CSVs and the stored digests were produced with.
DEFAULT_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

PATTERNS = {"UR": UniformRandom, "WC": adversarial}
ALGORITHMS = {"MIN AD": MinimalAdaptive, "UGAL": UGAL, "CLOS AD": ClosAD}

#: Golden CSV per Figure 4 table, keyed like ``fig04_routing`` titles them.
GOLDEN_CURVES = {
    "UR": "fig04_a-latency-vs-offered-load-ur-traffic.csv",
    "WC": "fig04_b-latency-vs-offered-load-wc-traffic.csv",
}
GOLDEN_SATURATION = {
    "UR": "fig04_saturation-throughput-ur-traffic.csv",
    "WC": "fig04_saturation-throughput-wc-traffic.csv",
}


def result_digest(result) -> str:
    """Digest of one open-loop result's simulated-time fields (its repr
    leaves out the kernel's wall-clock stats)."""
    return hashlib.sha256(repr(result).encode()).hexdigest()[:20]


def throughput_ok(result, load: float) -> bool:
    """Below saturation a run delivers every labelled packet and
    accepts what it was offered, within sampling noise."""
    return (
        not result.saturated
        and result.packets_labeled > 0
        and abs(result.accepted_throughput - load) <= 0.1 * load + 0.005
    )


@dataclass
class Outcome:
    """What one unit produced.

    ``points`` pairs a label with ``None`` (passed) or a failure
    message.  ``counts`` are per-layer counts and model statistics that
    must repeat exactly between units of the same seed.  ``seconds``
    are per-layer times not read off a span (phase profile, runner
    overhead, per-point times).
    """

    cycles: int
    points: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)


def model_counts(results: Sequence) -> Dict[str, float]:
    return {
        "model.mean_latency_cycles":
            sum(r.latency.mean for r in results) / len(results),
        "model.accepted_throughput":
            sum(r.accepted_throughput for r in results) / len(results),
        "model.packets_delivered": sum(r.packets_delivered for r in results),
    }


def kernel_counts(stats: Sequence) -> Dict[str, float]:
    """Event-kernel counters summed over ``stats`` (KernelStats)."""
    route_calls = sum(s.route_calls for s in stats)
    allocated = sum(s.flits_allocated for s in stats)
    reused = sum(s.flits_reused for s in stats)
    return {
        "simulator.cycles": sum(s.cycles for s in stats),
        "simulator.route_calls": route_calls,
        "simulator.events_dispatched": sum(s.events_dispatched for s in stats),
        "simulator.router_phase_calls": sum(s.router_phase_calls for s in stats),
        "simulator.idle_cycles_skipped": sum(s.idle_cycles_skipped for s in stats),
        "simulator.flit_reuse_ratio":
            reused / (allocated + reused) if allocated + reused else 0.0,
    }


def kernel_seconds(stats: Sequence) -> Dict[str, float]:
    """Phase-profile seconds summed over ``stats`` (zero when the
    simulators ran unprofiled)."""
    out = {}
    for phase in ("deliver", "inject", "route_switch", "wire"):
        out[f"simulator.{phase}_s"] = sum(
            (s.phase_seconds or {}).get(phase, 0.0) for s in stats
        )
    return out


# ----------------------------------------------------------------------
# fig04-sweep
# ----------------------------------------------------------------------
def fig04_simulator(topology, algorithm_cls, pattern_factory, seed=1,
                    profile=False) -> Simulator:
    """A Figure 4 point's simulator, built as ``fig04_routing`` builds
    it, with phase profiling switchable for the traced run."""
    return Simulator(
        topology, algorithm_cls(), pattern_factory(),
        SimulationConfig(seed=seed), kernel="event", profile=profile,
    )


class TimedCache(ResultCache):
    """A result cache whose reads and writes are traced spans."""

    def __init__(self, directory: str, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def get(self, job):
        with self.tracer.span("runner.cache_get"):
            return super().get(job)

    def put(self, job, value) -> None:
        with self.tracer.span("runner.cache_put"):
            super().put(job, value)


class TimedRunner(SweepRunner):
    """A serial sweep runner whose ``map`` calls are traced spans and
    whose progress callback timestamps every completed point."""

    def __init__(self, cache: TimedCache, tracer: Tracer, label: str) -> None:
        super().__init__(jobs=1, cache=cache, progress=self._point_done)
        self.tracer = tracer
        self.label = label
        self.kernel_stats: List = []
        self.point_seconds: List[float] = []
        #: Per open-loop map: map time minus kernel, cache-get and
        #: cache-put time (saturation probes return a bare float with
        #: no kernel time, so their maps are left out).
        self.overhead_seconds = 0.0
        self._last = 0.0

    def map(self, jobs):
        with self.tracer.span(self.label) as record:
            self._last = time.perf_counter()
            results = super().map(jobs)
        stats = [r.kernel for r in results if hasattr(r, "kernel")]
        self.kernel_stats.extend(stats)
        if record is not None and len(stats) == len(results):
            self.overhead_seconds += (
                record["end"] - record["start"]
                - sum(s.wall_seconds for s in stats)
                - self.tracer.children_total(record["id"])
            )
        return results

    def _point_done(self, done, total, job) -> None:
        if self.tracer.enabled:
            now = time.perf_counter()
            self.point_seconds.append(now - self._last)
            self._last = now


@dataclass(frozen=True)
class Fig04Size:
    #: (pattern, algorithm, offered loads) of each latency curve.
    curves: Tuple[Tuple[str, str, Tuple[float, ...]], ...]
    #: (pattern, algorithm) pairs whose saturation throughput is probed.
    saturation: Tuple[Tuple[str, str], ...]


class Fig04Sweep:
    name = "fig04-sweep"
    #: Calibration kernel of the speed probe (``speed.py``).
    speed_kernel = "python"
    sizes = {
        "paper": Fig04Size(
            curves=(
                ("UR", "UGAL", (0.1, 0.2)),
                ("UR", "CLOS AD", (0.1, 0.2)),
                ("WC", "UGAL", (0.1,)),
                ("WC", "CLOS AD", (0.1,)),
            ),
            saturation=(("WC", "MIN AD"),),
        ),
        "tiny": Fig04Size(
            curves=(("UR", "CLOS AD", (0.1,)),),
            saturation=(("WC", "MIN AD"),),
        ),
    }

    def __init__(self, size: str, seed: int, golden_dir: str = GOLDEN_DIR):
        self.size = self.sizes[size]
        self.seed = seed
        self.golden_dir = golden_dir
        self.scale = CI_SCALE

    def spec(self, pattern: str, algorithm: str, profile: bool) -> SimSpec:
        return SimSpec.of(
            fig04_simulator, ALGORITHMS[algorithm], PATTERNS[pattern],
            seed=self.seed, profile=profile,
        ).with_topology(FlattenedButterfly, self.scale.fb_k, 2)

    def setup(self, tracer: Tracer, workdir: str):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        return {
            "cache_dir": cache_dir,
            "cold": TimedRunner(TimedCache(cache_dir, tracer), tracer,
                                "runner.map"),
            # A second runner over a second cache object: the warm pass
            # reads every entry back from disk.
            "warm": TimedRunner(TimedCache(cache_dir, tracer), tracer,
                                "runner.warm_map"),
        }

    def _pass(self, runner: SweepRunner, tracer: Tracer, profile: bool,
              suffix: str):
        s = self.scale
        curves, saturation = [], []
        for pattern, algorithm, loads in self.size.curves:
            with tracer.span("experiments.curve" + suffix):
                curves.append(latency_load_curve(
                    self.spec(pattern, algorithm, profile), loads,
                    s.warmup, s.measure, s.drain_max, runner=runner,
                    refine=4,
                ))
        for pattern, algorithm in self.size.saturation:
            with tracer.span("experiments.saturation" + suffix):
                saturation.append(saturation_throughput(
                    self.spec(pattern, algorithm, profile),
                    s.warmup, s.measure, runner=runner,
                ))
        return curves, saturation

    def unit(self, state, tracer: Tracer):
        # Every unit starts with no topology in the warm-worker cache,
        # so each one builds its topology and route table once.
        clear_warm_cache()
        profile = tracer.enabled
        cold = self._pass(state["cold"], tracer, profile, "")
        warm = self._pass(state["warm"], tracer, profile, ".warm")
        return cold, warm

    def summarize(self, state, raw) -> Outcome:
        cold, warm = raw
        cold_runner, warm_runner = state["cold"], state["warm"]
        curves, saturation = cold
        results = [r for curve in curves for r in curve]
        # A saturation probe runs exactly warmup + measure cycles.
        probe_cycles = self.scale.warmup + self.scale.measure
        outcome = Outcome(
            cycles=sum(r.cycles for r in results)
            + probe_cycles * len(saturation)
        )
        outcome.points = self.check(cold, warm)
        report, warm_report = cold_runner.report, warm_runner.report
        outcome.counts.update(kernel_counts(cold_runner.kernel_stats))
        outcome.counts.update(model_counts(results))
        outcome.counts.update({
            "runner.executed": report.executed,
            "runner.cache_hits": warm_report.cache_hits,
            "runner.cache_hit_ratio":
                warm_report.cache_hits / warm_report.total,
            "runner.cache_bytes": ResultCache(state["cache_dir"]).stats()[
                "total_bytes"],
            "runner.topology_builds": report.topology_builds,
            "runner.route_table_builds": report.route_table_builds,
            "runner.warm_topology_hits": report.warm_topology_hits,
            "experiments.saturation_probes": len(saturation),
        })
        outcome.seconds.update(kernel_seconds(cold_runner.kernel_stats))
        outcome.seconds["runner.overhead_s"] = cold_runner.overhead_seconds
        points = cold_runner.point_seconds
        if len(points) >= 2:
            outcome.seconds["runner.point_s_p50"] = statistics.median(points)
            outcome.seconds["runner.point_s_p90"] = statistics.quantiles(
                points, n=10, method="inclusive")[8]
        return outcome

    def check(self, cold, warm) -> List[Tuple[str, Optional[str]]]:
        """Every curve cell and saturation cell, checked against the
        committed golden CSVs (default seed) and against invariants
        (every seed); the warm pass must return the cold pass's
        values."""
        curves, saturation = cold
        points = []
        golden = self.seed == DEFAULT_SEED
        for (pattern, algorithm, loads), curve, warm_curve in zip(
            self.size.curves, curves, warm[0]
        ):
            table = _read_csv(os.path.join(self.golden_dir,
                                           GOLDEN_CURVES[pattern]))
            for i, load in enumerate(loads):
                label = f"{pattern} {algorithm} load {load}"
                if i >= len(curve):
                    points.append((label, "curve stopped at saturation"))
                    continue
                result = curve[i]
                error = None
                if not throughput_ok(result, load):
                    error = (f"accepted {result.accepted_throughput} at "
                             f"load {load}, saturated={result.saturated}")
                elif golden and float(
                    table[repr(load)][algorithm]
                ) != result.latency.mean:
                    error = (f"latency {result.latency.mean!r} != golden "
                             f"{table[repr(load)][algorithm]}")
                elif i >= len(warm_curve) or warm_curve[i] != result:
                    error = "warm pass differs from the cold pass"
                points.append((label, error))
        for (pattern, algorithm), value, warm_value in zip(
            self.size.saturation, saturation, warm[1]
        ):
            label = f"{pattern} {algorithm} saturation"
            table = _read_csv(os.path.join(self.golden_dir,
                                           GOLDEN_SATURATION[pattern]))
            error = None
            if pattern == "WC" and algorithm == "MIN AD" and abs(
                value - 1 / self.scale.fb_k
            ) > 0.02:
                error = f"MIN AD WC saturation {value} is not ~1/k"
            elif golden and float(
                table[algorithm]["accepted throughput"]
            ) != value:
                error = (f"saturation {value!r} != golden "
                         f"{table[algorithm]['accepted throughput']}")
            elif warm_value != value:
                error = "warm pass differs from the cold pass"
            points.append((label, error))
        return points

    def close(self, state) -> None:
        shutil.rmtree(state["cache_dir"], ignore_errors=True)


def _read_csv(path: str) -> Dict[str, Dict[str, str]]:
    """A golden CSV as ``{first cell: {header: cell}}``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    headers = rows[0]
    return {row[0]: dict(zip(headers, row)) for row in rows[1:]}


# ----------------------------------------------------------------------
# paper-point-event and paper-grid-batch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PaperSize:
    k: int
    loads: Tuple[float, ...]
    replicas: int
    warmup: int
    measure: int
    drain_max: int


class _PaperWorkload:
    """Shared digest checking for the two paper-scale workloads."""

    name = ""
    sizes: Dict[str, PaperSize] = {}

    def __init__(self, size: str, seed: int,
                 reference: Optional[Dict[str, List[str]]] = None):
        self.size_name = size
        self.size = self.sizes[size]
        self.seed = seed
        self.reference = reference

    def digests(self) -> Optional[List[str]]:
        """The stored per-point digests for this workload and size, or
        ``None`` off the default seed (invariants only)."""
        if self.seed != DEFAULT_SEED or self.reference is None:
            return None
        return self.reference.get(f"{self.name}/{self.size_name}")

    def check(self, labelled) -> List[Tuple[str, Optional[str]]]:
        """``labelled`` is ``[(label, load, result)]`` in a fixed
        order, matched one to one with the stored digests."""
        expected = self.digests()
        if expected is not None and len(expected) != len(labelled):
            return [(label, "no stored digest for this point")
                    for label, _, _ in labelled]
        points = []
        for i, (label, load, result) in enumerate(labelled):
            error = None
            if not throughput_ok(result, load):
                error = (f"accepted {result.accepted_throughput} at load "
                         f"{load}, saturated={result.saturated}")
            elif expected is not None and result_digest(result) != expected[i]:
                error = (f"digest {result_digest(result)} != stored "
                         f"{expected[i]}")
            points.append((label, error))
        return points

    def close(self, state) -> None:
        pass


class PaperPointEvent(_PaperWorkload):
    name = "paper-point-event"
    speed_kernel = "python"
    sizes = {
        "paper": PaperSize(k=32, loads=(0.5,), replicas=1, warmup=60,
                           measure=60, drain_max=3000),
        "tiny": PaperSize(k=8, loads=(0.5,), replicas=1, warmup=60,
                          measure=60, drain_max=3000),
    }

    def setup(self, tracer: Tracer, workdir: str):
        with tracer.span("core.topology_build"):
            topology = FlattenedButterfly(self.size.k, 2)
        with tracer.span("simulator.construct"):
            simulator = Simulator(
                topology, UGAL(), UniformRandom(),
                SimulationConfig(seed=self.seed), kernel="event",
                profile=tracer.enabled,
            )
        return simulator

    def unit(self, simulator, tracer: Tracer):
        s = self.size
        (load,) = s.loads
        with tracer.span("simulator.run_open_loop"):
            return simulator.run_open_loop(
                load, warmup=s.warmup, measure=s.measure,
                drain_max=s.drain_max,
            )

    def results(self, result) -> list:
        return [result]

    def summarize(self, simulator, result) -> Outcome:
        (load,) = self.size.loads
        outcome = Outcome(cycles=result.cycles)
        outcome.points = self.check([(f"UGAL UR load {load}", load, result)])
        outcome.counts.update(kernel_counts([result.kernel]))
        outcome.counts.update(model_counts([result]))
        outcome.seconds.update(kernel_seconds([result.kernel]))
        return outcome


class PaperGridBatch(_PaperWorkload):
    name = "paper-grid-batch"
    speed_kernel = "mixed"
    sizes = {
        "paper": PaperSize(k=32, loads=(0.1, 0.2, 0.3, 0.4), replicas=4,
                           warmup=100, measure=100, drain_max=3000),
        "tiny": PaperSize(k=8, loads=(0.1, 0.2), replicas=2, warmup=30,
                          measure=30, drain_max=3000),
    }

    def setup(self, tracer: Tracer, workdir: str):
        with tracer.span("core.topology_build"):
            topology = FlattenedButterfly(self.size.k, 2)
        with tracer.span("core.route_arrays"):
            shared_route_table(topology).as_arrays()
        config = SimulationConfig(seed=self.seed)
        with tracer.span("simulator.construct"):
            simulator = Simulator(topology, UGAL(), adversarial(), config,
                                  kernel="batch")
        # run_open_loop_grid builds this same backend before its first
        # cycle; building one here puts that cost in set-up time.
        with tracer.span("batch.backend_build"):
            BatchBackend(topology, UGAL(), adversarial(), config)
        return simulator

    def unit(self, simulator, tracer: Tracer):
        s = self.size
        with tracer.span("batch.grid"):
            return simulator.run_open_loop_grid(
                list(s.loads), replicas=s.replicas, warmup=s.warmup,
                measure=s.measure, drain_max=s.drain_max,
            )

    def results(self, grid) -> list:
        return [result for batch in grid for result in batch.results]

    def summarize(self, simulator, grid) -> Outcome:
        labelled = [
            (f"UGAL WC load {batch.offered_load} seed {seed}",
             batch.offered_load, result)
            for batch in grid
            for seed, result in zip(batch.seeds, batch.results)
        ]
        results = self.results(grid)
        run_cycles = sum(r.cycles for r in results)
        stats = grid[0].stats
        allocs, reuses = stats["scratch_allocs"], stats["scratch_reuses"]
        outcome = Outcome(cycles=run_cycles)
        outcome.points = self.check(labelled)
        outcome.counts.update(model_counts(results))
        outcome.counts.update({
            "batch.run_cycles": run_cycles,
            "batch.scratch_allocs": allocs,
            "batch.scratch_reuses": reuses,
            "batch.scratch_reuse_ratio": reuses / (allocs + reuses),
        })
        return outcome


WORKLOADS = {
    cls.name: cls for cls in (Fig04Sweep, PaperPointEvent, PaperGridBatch)
}
