"""Figure 4 — routing-algorithm comparison on the flattened butterfly.

Latency vs. offered load for MIN AD, VAL, UGAL, UGAL-S, and CLOS AD on
(a) uniform random and (b) the worst-case adversarial traffic pattern,
on a k-ary 2-flat (the paper's 32-ary 2-flat at paper scale).

Expected shape: on UR all algorithms but VAL reach ~100% throughput
while VAL saturates at 50%; on WC, minimal routing collapses to ~1/k
while every non-minimal algorithm reaches ~50%, with CLOS AD showing
the lowest latency near saturation.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core import ClosAD, MinimalAdaptive, UGAL, UGALSequential, Valiant
from ..core.flattened_butterfly import FlattenedButterfly
from ..network import SimulationConfig, Simulator, replica_seeds, resolve_kernel
from ..runner import BatchSaturationJob, SaturationJob, SimSpec, resolve_runner
from ..traffic import UniformRandom, adversarial
from .common import (
    ExperimentResult,
    Table,
    _summarize,
    batch_latency_load_curve,
    latency_load_curve,
    replicate_jobs,
    resolve_scale,
)

ALGORITHMS: Dict[str, Callable] = {
    "MIN AD": MinimalAdaptive,
    "VAL": Valiant,
    "UGAL": UGAL,
    "UGAL-S": UGALSequential,
    "CLOS AD": ClosAD,
}

#: Algorithms the vectorized batch kernel can run — since the
#: UGAL/Valiant vectorization this is everything except CLOS AD (whose
#: two-phase Clos ascent has no dense-array program yet; see
#: ``repro.network.batch.supported_algorithms``).  ``fig04 --kernel
#: batch`` restricts its tables to this subset and says so in the
#: result notes.
BATCH_ALGORITHMS = ("MIN AD", "VAL", "UGAL", "UGAL-S")


def _make(topology, algorithm_cls, pattern_factory, seed: int = 1,
          kernel: str = None) -> Simulator:
    return Simulator(
        topology,
        algorithm_cls(),
        pattern_factory(),
        SimulationConfig(seed=seed),
        kernel=kernel,
    )


def _spec(k: int, algorithm_cls, pattern_factory, kernel=None,
          **kwargs) -> SimSpec:
    """A fig04 point: the topology rides as a sub-spec so warm workers
    can share one FlattenedButterfly (and its route table) across every
    algorithm, pattern, load and seed.  ``kernel`` is added to the spec
    only when explicitly chosen, so default-kernel cache keys are
    unchanged from before the option existed."""
    if kernel is not None:
        kwargs["kernel"] = kernel
    return SimSpec.of(_make, algorithm_cls, pattern_factory, **kwargs).with_topology(
        FlattenedButterfly, k, 2
    )


def run(scale=None, runner=None, kernel=None, replicas=None) -> ExperimentResult:
    scale = resolve_scale(scale)
    runner = resolve_runner(runner)
    if kernel is not None:
        resolve_kernel(kernel)
    batch = kernel == "batch"
    algorithms = dict(ALGORITHMS)
    if batch:
        algorithms = {name: ALGORITHMS[name] for name in BATCH_ALGORITHMS}
    result = ExperimentResult(
        experiment="fig04",
        description=(
            f"Figure 4: routing algorithms on a {scale.fb_k}-ary 2-flat "
            f"(N={scale.fb_k**2})"
        ),
        scale=scale.name,
    )
    for pattern_name, pattern_factory in (
        ("UR", UniformRandom),
        ("WC", adversarial),
    ):
        latency = Table(
            title=f"({'a' if pattern_name == 'UR' else 'b'}) "
            f"latency vs offered load, {pattern_name} traffic",
            headers=["load"] + list(algorithms),
        )
        if batch:
            # The whole (load x replica) grid per algorithm compiles
            # into one lockstep array program; the per-point cache
            # entries it fills are the same BatchOpenLoopJob keys a
            # one-load job would write (each load of a grid is
            # bit-identical to a one-load grid).  Replica seeds come from the canonical family,
            # so replica i is the same RNG stream everywhere.
            curve_seeds = (
                replica_seeds(scale.seeds[0], replicas)
                if replicas is not None
                else (scale.seeds[0],)
            )
            curves = {
                name: batch_latency_load_curve(
                    _spec(scale.fb_k, cls, pattern_factory, kernel=kernel),
                    scale.loads,
                    curve_seeds,
                    scale.warmup,
                    scale.measure,
                    scale.drain_max,
                    runner=runner,
                )
                for name, cls in algorithms.items()
            }
        else:
            curves = {
                name: latency_load_curve(
                    _spec(scale.fb_k, cls, pattern_factory, kernel=kernel),
                    scale.loads,
                    scale.warmup,
                    scale.measure,
                    scale.drain_max,
                    runner=runner,
                    refine=4,
                )
                for name, cls in algorithms.items()
            }
        for i, load in enumerate(scale.loads):
            row = [load]
            for name in algorithms:
                curve = curves[name]
                if i >= len(curve):
                    row.append(float("inf"))
                    continue
                point = curve[i]
                if batch:
                    # A point is saturated if any replica saturated;
                    # its latency cell is the replica-mean latency.
                    if any(r.saturated for r in point.results):
                        row.append(float("inf"))
                    else:
                        row.append(
                            sum(r.latency.mean for r in point.results)
                            / len(point.results)
                        )
                elif not point.saturated:
                    row.append(point.latency.mean)
                else:
                    row.append(float("inf"))
            latency.add(*row)
        result.tables.append(latency)

        throughput = Table(
            title=f"saturation throughput, {pattern_name} traffic",
            headers=["algorithm", "accepted throughput"],
        )
        for name, cls in algorithms.items():
            if batch:
                # One lockstep job advances every replica of the load
                # point together; the seed family is the canonical
                # per-replica family, so replica i here is the same
                # RNG stream everywhere.
                seeds = (
                    replica_seeds(scale.seeds[0], replicas)
                    if replicas is not None
                    else tuple(scale.seeds)
                )
                job = BatchSaturationJob(
                    _spec(scale.fb_k, cls, pattern_factory, kernel=kernel),
                    seeds,
                    scale.warmup,
                    scale.measure,
                )
                throughputs = runner.run(job)
                replicated = _summarize(tuple(float(x) for x in throughputs))
                runner.report.note_replicated(replicated)
            else:
                replicated = replicate_jobs(
                    [
                        SaturationJob(
                            _spec(scale.fb_k, cls, pattern_factory, seed=seed),
                            scale.warmup,
                            scale.measure,
                        )
                        for seed in scale.seeds
                    ],
                    runner=runner,
                )
            throughput.add(name, replicated.mean)
        result.tables.append(throughput)
    result.notes.append(
        f"paper anchors: UR — all but VAL ~100%, VAL ~50%; "
        f"WC — MIN ~1/{scale.fb_k} = {1 / scale.fb_k:.3f}, non-minimal ~0.5"
    )
    if batch:
        result.notes.append(
            f"kernel=batch: restricted to {', '.join(algorithms)} "
            f"(CLOS AD needs the event kernel; latency curves ran as "
            f"one lockstep load-grid per algorithm — see docs/BATCH.md)"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
