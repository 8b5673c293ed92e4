"""Tests for the sweep-scale machinery: warm worker pools, adaptive
refinement, replica statistics, and the persisted cache counters.

The central invariants pinned here:

* warm workers, the serial path, and a reference that builds every
  topology afresh return byte-identical results (warm reuse changes
  *where* a topology is built, never what a job computes);
* the construction counters prove the reuse (at most one topology and
  route table per process per distinct topology sub-spec) and prove
  that cache hits build nothing;
* per-seed fault replicas are distinct cache entries, while replica 0
  keeps the historical single-replica key;
* replicate_jobs() runs every job it is given, so outputs stay
  byte-stable.
"""

import dataclasses
import os
import pickle

import pytest

from repro.core import ClosAD, DimensionOrder
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.experiments import ext_resilience
from repro.experiments.common import latency_load_curve, replicate_jobs
from repro.network import SimulationConfig, Simulator
from repro.runner import (
    CallableJob,
    OpenLoopJob,
    ResultCache,
    SimSpec,
    SweepRunner,
    build_counters,
    clear_warm_cache,
    execute_job,
    job_key,
    resolve_jobs,
    stderr_progress,
)
from repro.traffic import UniformRandom, adversarial

LOADS = (0.2, 0.4, 0.6, 0.8, 1.0)
WINDOW = dict(warmup=50, measure=50, drain_max=400)


def make_fb_on(topology, algorithm_cls, pattern_factory, seed=1):
    """Module-level factory taking the topology first, so specs can
    carry it as a warm-cacheable sub-spec."""
    return Simulator(
        topology, algorithm_cls(), pattern_factory(),
        SimulationConfig(seed=seed),
    )


def warm_spec(algorithm_cls=DimensionOrder, pattern_factory=UniformRandom,
              **kwargs):
    return SimSpec.of(
        make_fb_on, algorithm_cls, pattern_factory, **kwargs
    ).with_topology(FlattenedButterfly, 4, 2)


def curve_jobs(spec=None):
    spec = spec or warm_spec()
    return [OpenLoopJob(spec, load, **WINDOW) for load in LOADS]


def payload_bytes(results):
    """Byte-level identity of the measurement payload.  The per-run
    ``kernel`` stats (wall seconds, per-process counters) legitimately
    differ between execution modes and are excluded from comparison
    (they are ``compare=False`` in the result dataclasses too)."""
    return pickle.dumps(
        [dataclasses.replace(r, kernel=None) for r in results]
    )


def cold_reference(jobs):
    """Every job on a freshly built topology and route table: the warm
    cache is emptied before each execution."""
    results = []
    for job in jobs:
        clear_warm_cache()
        results.append(execute_job(job))
    return results


def seed_metric(seed):
    """Picklable replica metric (identical across seeds on purpose:
    the summary's CI is then exactly zero)."""
    return 0.75


# ----------------------------------------------------------------------
# Byte-identical results across execution modes
# ----------------------------------------------------------------------
class TestWarmParity:
    def test_warm_cold_serial_identical(self):
        jobs = curve_jobs()
        serial = SweepRunner(jobs=1).map(jobs)
        with SweepRunner(jobs=2) as runner:
            warm = runner.map(jobs)
        assert payload_bytes(warm) == payload_bytes(serial)
        assert payload_bytes(cold_reference(jobs)) == payload_bytes(serial)

    def test_warm_serial_path_identical(self):
        jobs = curve_jobs()
        clear_warm_cache()
        runner = SweepRunner(jobs=1)
        warm = runner.map(jobs)
        assert runner.report.warm_topology_hits == len(jobs) - 1
        assert payload_bytes(warm) == payload_bytes(cold_reference(jobs))

    def test_persistent_pool_reused_across_maps(self):
        with SweepRunner(jobs=2) as runner:
            first = runner.map(curve_jobs())
            pool = runner._pool
            second = runner.map(curve_jobs())
            assert runner._pool is pool or pool is None
        assert payload_bytes(first) == payload_bytes(second)


# ----------------------------------------------------------------------
# Construction counters
# ----------------------------------------------------------------------
class TestBuildCounters:
    def test_warm_run_builds_topology_once_per_process(self):
        with SweepRunner(jobs=2) as runner:
            runner.map(curve_jobs())
        report = runner.report
        processes = report.workers + 1  # workers plus the parent
        assert report.sim_builds == report.executed
        assert 1 <= report.topology_builds <= processes
        assert report.route_table_builds <= processes
        assert report.warm_topology_hits >= report.executed - processes

    def test_cache_hit_builds_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = curve_jobs()
        SweepRunner(jobs=1, cache=cache).map(jobs)
        replay = SweepRunner(jobs=1, cache=cache)
        before = build_counters()
        replay.map(jobs)
        after = build_counters()
        assert replay.report.cache_hits == len(jobs)
        assert after["sim_builds"] == before["sim_builds"]
        assert after["topology_builds"] == before["topology_builds"]

    def test_distinct_topologies_each_built(self):
        small = warm_spec()
        large = SimSpec.of(
            make_fb_on, DimensionOrder, UniformRandom
        ).with_topology(FlattenedButterfly, 2, 2)
        jobs = [OpenLoopJob(spec, 0.4, **WINDOW) for spec in (small, large)]
        clear_warm_cache()
        before = build_counters()
        for job in jobs:
            execute_job(job)
        after = build_counters()
        assert after["topology_builds"] - before["topology_builds"] == 2


# ----------------------------------------------------------------------
# Per-seed fault replicas
# ----------------------------------------------------------------------
class TestFaultReplicaKeys:
    def test_replicas_hit_distinct_cache_keys(self):
        keys = set()
        for replica in (0, 1, 2):
            specs = ext_resilience.system_specs(4, 0.05, replica=replica)
            job = OpenLoopJob(specs["FB (UGAL)"], 0.3, 50, 50, 400)
            keys.add(job_key(job))
        assert len(keys) == 3

    def test_replica_zero_keeps_single_replica_key(self):
        base = ext_resilience.system_specs(4, 0.05)
        explicit = ext_resilience.system_specs(4, 0.05, replica=0)
        for name in base:
            assert job_key(
                OpenLoopJob(base[name], 0.3, 50, 50, 400)
            ) == job_key(OpenLoopJob(explicit[name], 0.3, 50, 50, 400))

    def test_replica_seeds_independent(self):
        assert ext_resilience.replica_seeds(0) == (1, ext_resilience.FAULT_SEED)
        drawn = {ext_resilience.replica_seeds(r) for r in range(4)}
        assert len(drawn) == 4

    def test_replicated_resilience_aggregate_table(self):
        result = ext_resilience.run(
            scale=None, runner=SweepRunner(jobs=1), replicas=2
        )
        titles = [table.title for table in result.tables]
        assert any("fault replicas" in title for title in titles)
        with pytest.raises(ValueError):
            ext_resilience.run(replicas=0)


# ----------------------------------------------------------------------
# REPRO_JOBS / --jobs interplay
# ----------------------------------------------------------------------
class TestJobsResolution:
    def test_explicit_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3
        assert SweepRunner(jobs=3).jobs == 3

    def test_env_fallback_and_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == (os.cpu_count() or 1)
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs() == 1

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_worker_budget_capped_at_cpu_count(self):
        cores = os.cpu_count() or 1
        assert SweepRunner(jobs=cores + 7).worker_budget() == cores
        assert SweepRunner(jobs=1).worker_budget() == 1


# ----------------------------------------------------------------------
# Replica statistics
# ----------------------------------------------------------------------
class TestReplicaStatistics:
    def test_default_runs_every_seed(self):
        runner = SweepRunner(jobs=1)
        summary = replicate_jobs(
            [CallableJob.of(seed_metric, seed) for seed in range(1, 6)],
            runner=runner,
        )
        assert summary.count == 5
        assert summary.ci95 == 0.0
        assert runner.report.replicated_metrics == 1
        assert runner.report.replica_samples == 5

    def test_ci95_halfwidth_matches_t_table(self):
        from repro.network.stats import ci95_halfwidth, t95

        assert ci95_halfwidth(0.0, 1) == 0.0
        assert t95(1) == pytest.approx(12.706)
        assert t95(100) == pytest.approx(1.960)
        with pytest.raises(ValueError):
            t95(0)


# ----------------------------------------------------------------------
# Adaptive refinement
# ----------------------------------------------------------------------
class TestRefinedCurve:
    def test_refined_curve_matches_serial(self):
        spec = warm_spec(algorithm_cls=ClosAD, pattern_factory=adversarial)
        serial = latency_load_curve(spec, LOADS, **WINDOW)
        with SweepRunner(jobs=2) as runner:
            refined = latency_load_curve(
                spec, LOADS, runner=runner, refine=3, **WINDOW
            )
        assert payload_bytes(refined) == payload_bytes(serial)

    def test_refine_skips_points_past_the_knee(self):
        # DOR on the worst-case pattern saturates near 1/k = 0.25, so
        # most of this grid lies past the knee: the refined curve must
        # skip some of it and still equal the serial early-exit sweep.
        spec = warm_spec(algorithm_cls=DimensionOrder,
                         pattern_factory=adversarial)
        loads = tuple(round(0.1 * i, 1) for i in range(1, 11))
        window = dict(warmup=100, measure=100, drain_max=300)
        serial = latency_load_curve(spec, loads, **window)
        with SweepRunner(jobs=2) as runner:
            refined = latency_load_curve(
                spec, loads, runner=runner, refine=4, **window
            )
        assert runner.report.executed < len(loads)
        assert payload_bytes(refined) == payload_bytes(serial)

    def test_refined_curve_never_exceeds_grid(self):
        spec = warm_spec(algorithm_cls=ClosAD, pattern_factory=adversarial)
        with SweepRunner(jobs=2) as runner:
            latency_load_curve(spec, LOADS, runner=runner, refine=3, **WINDOW)
        assert runner.report.executed <= len(LOADS)


# ----------------------------------------------------------------------
# Persisted cache counters and progress
# ----------------------------------------------------------------------
class TestPersistedCounters:
    def test_counters_accumulate_across_instances(self, tmp_path):
        jobs = curve_jobs()
        first = ResultCache(str(tmp_path))
        SweepRunner(jobs=1, cache=first).map(jobs)
        second = ResultCache(str(tmp_path))
        SweepRunner(jobs=1, cache=second).map(jobs)
        persisted = ResultCache(str(tmp_path)).persisted_counters()
        assert persisted["misses"] == len(jobs)
        assert persisted["hits"] == len(jobs)

    def test_stats_reports_counters_and_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepRunner(jobs=1, cache=cache).map(curve_jobs())
        stats = cache.stats()
        assert stats["entries"] == len(LOADS)
        assert stats["misses"] == len(LOADS)
        assert stats["total_bytes"] > 0

    def test_counters_file_not_an_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepRunner(jobs=1, cache=cache).map(curve_jobs())
        assert len(cache) == len(LOADS)
        cache.clear()
        assert cache.persisted_counters()["misses"] == len(LOADS)

    def test_cli_cache_stats_prints_lookups(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        cache = ResultCache(str(tmp_path))
        SweepRunner(jobs=1, cache=cache).map(curve_jobs())
        assert repro_main(
            ["cache", "--cache-dir", str(tmp_path), "stats"]
        ) == 0
        out = capsys.readouterr().out
        assert f"{len(LOADS)} misses" in out
        assert "hit rate" in out

    def test_stderr_progress_shows_eta(self, capsys):
        report = stderr_progress("test")
        job = curve_jobs()[0]
        report(1, 3, job)
        report(3, 3, job)
        err = capsys.readouterr().err
        assert "eta" in err
        assert "[test] 3/3" in err


# ----------------------------------------------------------------------
# Spec plumbing
# ----------------------------------------------------------------------
class TestTopologySubSpec:
    def test_with_topology_rejects_spec_plus_args(self):
        sub = SimSpec.of(FlattenedButterfly, 4, 2)
        base = SimSpec.of(make_fb_on, DimensionOrder, UniformRandom)
        with pytest.raises(TypeError):
            base.with_topology(sub, 4)

    def test_topology_key_shared_across_jobs(self):
        a = warm_spec(algorithm_cls=DimensionOrder)
        b = warm_spec(algorithm_cls=ClosAD)
        assert a.topology_key() == b.topology_key()
        assert a.topology_key() is not None
        assert SimSpec.of(make_fb_on, DimensionOrder).topology_key() is None
