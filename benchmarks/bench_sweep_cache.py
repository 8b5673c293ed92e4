"""Sweep-runner benchmarks: parallel fan-out and cache-hit speed.

The equivalence assertions double as an end-to-end check that the
parallel and cached paths reproduce the serial results exactly, at
benchmark scale.
"""

from conftest import run_once

from repro.core import ClosAD
from repro.experiments.common import latency_load_curve
from repro.network import SimulationConfig, Simulator
from repro.runner import OpenLoopJob, ResultCache, SimSpec, SweepRunner
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.traffic import adversarial


def _make(k, seed=1):
    return Simulator(
        FlattenedButterfly(k, 2), ClosAD(), adversarial(),
        SimulationConfig(seed=seed),
    )


def _jobs(bench_scale):
    spec = SimSpec.of(_make, bench_scale.fb_k)
    return [
        OpenLoopJob(spec, load, bench_scale.warmup, bench_scale.measure,
                    bench_scale.drain_max)
        for load in bench_scale.loads
    ]


def test_sweep_parallel_jobs2(benchmark, bench_scale):
    """Load sweep through the pool; identical to the serial sweep."""
    jobs = _jobs(bench_scale)
    serial = SweepRunner(jobs=1).map(jobs)
    parallel = run_once(benchmark, lambda: SweepRunner(jobs=2).map(jobs))
    assert parallel == serial


def test_sweep_cache_hit(benchmark, bench_scale, tmp_path):
    """Warm-cache sweep: must be far below cold time and bit-identical."""
    cache = ResultCache(str(tmp_path))
    jobs = _jobs(bench_scale)
    cold = SweepRunner(jobs=1, cache=cache).map(jobs)

    warm_runner = SweepRunner(jobs=1, cache=cache)
    warm = run_once(benchmark, lambda: warm_runner.map(jobs))
    assert warm == cold
    assert warm_runner.report.cache_hits == len(jobs)


def test_latency_load_curve_speculative(benchmark, bench_scale):
    """The coarse→refine parallel curve equals the serial early-exit one."""
    spec = SimSpec.of(_make, bench_scale.fb_k)
    window = dict(warmup=bench_scale.warmup, measure=bench_scale.measure,
                  drain_max=bench_scale.drain_max)
    serial = latency_load_curve(spec, bench_scale.loads, **window)
    parallel = run_once(
        benchmark,
        lambda: latency_load_curve(
            spec, bench_scale.loads, runner=SweepRunner(jobs=2), **window
        ),
    )
    assert parallel == serial
