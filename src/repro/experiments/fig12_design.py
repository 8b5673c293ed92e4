"""Figure 12 (and Table 4) — fixed-N design study.

For a fixed node count, every (k, n) with k**n = N is a valid
flattened butterfly; the paper compares them under VAL (Figure 12(a))
and MIN AD with 64 flits of storage per physical channel
(Figure 12(b)).

Paper anchors: with VAL every configuration reaches 50% of capacity
(constant bisection) while latency grows as k' shrinks (higher
diameter); with MIN AD the per-VC buffer shrinks as n' grows (VCs
proportional to n'), costing ~20% throughput from n'=1 to n'=5.  The
highest-radix, lowest-dimensionality design wins.
"""

from __future__ import annotations

from ..analysis.scaling import table4_configs
from ..core import MinimalAdaptive, Valiant
from ..core.flattened_butterfly import FlattenedButterfly
from ..network import SimulationConfig, Simulator, resolve_kernel
from ..runner import OpenLoopJob, SaturationJob, SimSpec, resolve_runner
from ..traffic import UniformRandom
from .common import ExperimentResult, Table, resolve_scale

MIN_AD_BUFFER_PER_PORT = 64  # paper: 64 flit buffers per PC in Fig 12(b)


def _make(topology, algorithm_cls, buffer_per_port: int = 32,
          kernel: str = None) -> Simulator:
    return Simulator(
        topology,
        algorithm_cls(),
        UniformRandom(),
        SimulationConfig(buffer_per_port=buffer_per_port),
        kernel=kernel,
    )


def run(scale=None, runner=None, kernel=None) -> ExperimentResult:
    scale = resolve_scale(scale)
    if kernel is not None:
        resolve_kernel(kernel)
    extra = {} if kernel is None else {"kernel": kernel}
    configs = [
        cfg for cfg in table4_configs(scale.design_study_n) if cfg.n_prime <= 8
    ]
    result = ExperimentResult(
        experiment="fig12",
        description=(
            f"Figure 12: N={scale.design_study_n} flattened-butterfly "
            "design points (Table 4 configurations)"
        ),
        scale=scale.name,
    )

    config_table = Table(
        title="Table 4: configurations",
        headers=["k", "n", "k'", "n'", "routers"],
    )
    for cfg in configs:
        config_table.add(cfg.k, cfg.n, cfg.k_prime, cfg.n_prime, cfg.num_routers)
    result.tables.append(config_table)

    val = Table(
        title="(a) VAL on UR traffic",
        headers=["config", "low-load latency", "saturation throughput"],
    )
    min_ad = Table(
        title="(b) MIN AD on UR traffic (64 flits per PC)",
        headers=["config", "low-load latency", "saturation throughput"],
    )
    jobs = []
    for cfg in configs:
        topo = SimSpec.of(FlattenedButterfly, cfg.k, cfg.n)
        val_spec = SimSpec.of(_make, Valiant, **extra).with_topology(topo)
        min_spec = SimSpec.of(
            _make, MinimalAdaptive,
            buffer_per_port=MIN_AD_BUFFER_PER_PORT,
            **extra,
        ).with_topology(topo)
        jobs.append(
            OpenLoopJob(val_spec, 0.1, scale.warmup, scale.measure,
                        scale.drain_max)
        )
        jobs.append(SaturationJob(val_spec, scale.warmup, scale.measure))
        jobs.append(
            OpenLoopJob(min_spec, 0.1, scale.warmup, scale.measure,
                        scale.drain_max)
        )
        jobs.append(SaturationJob(min_spec, scale.warmup, scale.measure))
    outcomes = resolve_runner(runner).map(jobs)
    point = iter(outcomes)
    for cfg in configs:
        label = f"{cfg.k}-ary {cfg.n}-flat"
        val.add(label, next(point).latency.mean, next(point))
        min_ad.add(label, next(point).latency.mean, next(point))
    result.tables.append(val)
    result.tables.append(min_ad)
    result.notes.append(
        "paper anchors: VAL throughput ~50% for every config, latency rises "
        "as n' grows; MIN AD throughput degrades ~20% from the lowest to the "
        "highest dimensionality as the per-VC buffer shrinks"
    )
    result.notes.append(
        "known deviation: the MIN AD throughput degradation does not appear "
        "under this simulator's sufficient-speedup router — its wire stage "
        "round-robins across VCs, so a shallow per-VC buffer is hidden as "
        "long as several VCs are active; the paper's deeper router pipeline "
        "makes per-VC depth binding"
    )
    if kernel == "batch":
        result.notes.append(
            "kernel=batch: the lockstep backend models sufficient "
            "buffering, so the 64-flit-per-PC setting of Fig 12(b) does "
            "not bind at all there; VAL saturation probes at offered "
            "load 1.0 read a few points low (no-backpressure FIFO model "
            "under deep saturation) — see docs/BATCH.md"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
