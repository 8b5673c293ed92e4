"""Tests for the parallel sweep engine, the on-disk result cache, and
the determinism guarantees of the experiment helpers built on them."""

import functools
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import ClosAD, DimensionOrder, MinimalAdaptive
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.experiments.common import (
    latency_load_curve,
    replicate_jobs,
    saturation_throughput,
)
from repro.network import SimulationConfig, Simulator, derive_seed
from repro.network.stats import OpenLoopResult
from repro.runner import (
    BatchJob,
    CallableJob,
    OpenLoopJob,
    ResultCache,
    SaturationJob,
    SimSpec,
    SweepRunner,
    describe,
    execute_job,
    job_key,
    resolve_jobs,
    sim_build_count,
)
from repro.traffic import UniformRandom, adversarial

from tests._sweep_driver import KILLED_STATUS, curve_jobs, payload_bytes

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_fb(k, algorithm_cls, pattern_factory, seed=1, buffer_per_port=32):
    """Module-level factory so specs are picklable across processes."""
    return Simulator(
        FlattenedButterfly(k, 2),
        algorithm_cls(),
        pattern_factory(),
        SimulationConfig(seed=seed, buffer_per_port=buffer_per_port),
    )


def fb_spec(**overrides):
    params = dict(k=4, algorithm_cls=DimensionOrder, pattern_factory=UniformRandom)
    params.update(overrides)
    return SimSpec.of(make_fb, **params)


def saturation_metric(seed):
    """Picklable replica metric."""
    return make_fb(4, ClosAD, adversarial, seed=seed).measure_saturation_throughput(
        200, 200
    )


# ----------------------------------------------------------------------
# SimSpec
# ----------------------------------------------------------------------
class TestSimSpec:
    def test_builds_a_fresh_simulator_per_call(self):
        spec = fb_spec()
        first, second = spec.build(), spec.build()
        assert first is not second
        assert isinstance(first, Simulator)

    def test_kwargs_order_does_not_matter(self):
        a = SimSpec.of(make_fb, 4, seed=2, algorithm_cls=DimensionOrder,
                       pattern_factory=UniformRandom)
        b = SimSpec.of(make_fb, 4, pattern_factory=UniformRandom,
                       algorithm_cls=DimensionOrder, seed=2)
        assert a == b
        assert job_key(a) == job_key(b)

    def test_bind_appends_arguments(self):
        spec = SimSpec.of(make_fb, 4, algorithm_cls=DimensionOrder)
        bound = spec.bind(pattern_factory=UniformRandom, seed=3)
        assert dict(bound.kwargs)["seed"] == 3
        assert isinstance(bound.build(), Simulator)

    def test_specs_pickle(self):
        spec = fb_spec()
        job = OpenLoopJob(spec, 0.3, 50, 50, 400)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
class TestDescribe:
    def test_primitives_and_collections(self):
        assert describe(3) == 3
        assert describe("x") == "x"
        assert describe((1, 2)) == [1, 2]
        assert describe({"b": 1, "a": 2}) == {"a": 2, "b": 1}

    def test_floats_are_exact(self):
        assert describe(0.1) != describe(0.1 + 1e-12)

    def test_callables_named_by_import_path(self):
        assert describe(DimensionOrder) == {
            "__callable__": "repro.core.routing.dor:DimensionOrder"
        }

    def test_dataclasses_expand_fields(self):
        desc = describe(SimulationConfig(seed=7))
        assert desc["fields"]["seed"] == 7

    def test_partial_supported(self):
        part = functools.partial(make_fb, 4, seed=5)
        desc = describe(part)
        assert desc["kwargs"] == {"seed": 5}

    def test_lambdas_rejected(self):
        with pytest.raises(TypeError):
            describe(lambda: None)

    def test_instances_rejected(self):
        with pytest.raises(TypeError):
            describe(object())


class TestJobKey:
    def job(self, **overrides):
        spec_overrides = overrides.pop("spec", {})
        params = dict(load=0.3, warmup=50, measure=50, drain_max=400)
        params.update(overrides)
        return OpenLoopJob(fb_spec(**spec_overrides), **params)

    def test_stable_across_processes_inputs(self):
        assert job_key(self.job()) == job_key(self.job())

    def test_every_field_is_significant(self):
        base = job_key(self.job())
        assert job_key(self.job(load=0.4)) != base
        assert job_key(self.job(warmup=60)) != base
        assert job_key(self.job(spec={"seed": 2})) != base
        assert job_key(self.job(spec={"algorithm_cls": MinimalAdaptive})) != base
        assert job_key(self.job(spec={"buffer_per_port": 64})) != base

    def test_version_stamp_is_significant(self):
        assert job_key(self.job(), "v1") != job_key(self.job(), "v2")


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = SaturationJob(fb_spec(), 50, 50)
        hit, _ = cache.get(job)
        assert not hit
        cache.put(job, 0.75)
        hit, value = cache.get(job)
        assert hit and value == 0.75
        assert len(cache) == 1

    def test_version_stamp_invalidates(self, tmp_path):
        job = SaturationJob(fb_spec(), 50, 50)
        ResultCache(str(tmp_path), version="v1").put(job, 1.0)
        hit, _ = ResultCache(str(tmp_path), version="v2").get(job)
        assert not hit

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SaturationJob(fb_spec(), 50, 50), 1.0)
        assert cache.clear() == 1
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "entry, error",
        [
            (b"cno_such_module_for_repro\nResult\n.", ModuleNotFoundError),
            (b"crepro.runner.cache\nNoSuchResult\n.", AttributeError),
            (pickle.dumps(0.75)[:-3], (EOFError, pickle.UnpicklingError)),
        ],
        ids=["missing-module", "renamed-class", "truncated"],
    )
    def test_unloadable_entry_is_a_miss_and_recomputes(
        self, tmp_path, entry, error
    ):
        """An entry that no longer loads is dropped and counted as a
        miss; the sweep recomputes the job and stores it afresh."""
        with pytest.raises(error):
            pickle.loads(entry)
        cache = ResultCache(str(tmp_path))
        job = SaturationJob(fb_spec(), 50, 50)
        path = cache._path(cache.key(job))
        with open(path, "wb") as handle:
            handle.write(entry)
        assert cache.get(job) == (False, None)
        assert not os.path.exists(path)

        with open(path, "wb") as handle:
            handle.write(entry)
        runner = SweepRunner(jobs=1, cache=cache)
        value = runner.run(job)
        assert value == execute_job(job)
        assert runner.report.executed == 1
        assert cache.get(job) == (True, value)


# ----------------------------------------------------------------------
# SweepRunner
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()


LOADS = (0.2, 0.6, 1.0)
WINDOW = dict(warmup=100, measure=100, drain_max=800)


class TestSerialParallelEquivalence:
    """The same experiment run with jobs=1 and jobs=4 produces
    identical results for every point — same seeds, same tables."""

    def _jobs(self, spec):
        return [OpenLoopJob(spec, load, 100, 100, 800) for load in LOADS]

    def test_openloop_map_identical(self):
        spec = fb_spec(algorithm_cls=ClosAD, pattern_factory=adversarial)
        serial = SweepRunner(jobs=1).map(self._jobs(spec))
        parallel = SweepRunner(jobs=4).map(self._jobs(spec))
        assert serial == parallel
        assert all(isinstance(r, OpenLoopResult) for r in serial)

    def test_latency_load_curve_identical(self):
        spec = fb_spec(algorithm_cls=DimensionOrder, pattern_factory=adversarial)
        serial = latency_load_curve(
            spec, LOADS, runner=SweepRunner(jobs=1), **WINDOW
        )
        parallel = latency_load_curve(
            spec, LOADS, runner=SweepRunner(jobs=4), **WINDOW
        )
        assert serial == parallel
        # The early-exit contract survives speculation: nothing past
        # the first saturated point is reported.
        assert all(not r.saturated for r in serial[:-1])

    def test_helpers_reject_a_simulator_factory(self):
        """The helpers take a SimSpec job description only: a bare
        factory is refused before anything runs."""
        spec = fb_spec()
        with pytest.raises(TypeError, match="SimSpec"):
            latency_load_curve(lambda: spec.build(), LOADS, **WINDOW)
        with pytest.raises(TypeError, match="SimSpec"):
            saturation_throughput(spec.build, 100, 100)

    def test_replicate_identical(self):
        jobs = [CallableJob.of(saturation_metric, seed) for seed in (1, 2, 3, 4)]
        serial = replicate_jobs(jobs)
        parallel = replicate_jobs(jobs, runner=SweepRunner(jobs=4))
        assert serial == parallel

    def test_replicate_jobs_matches_direct_execution(self):
        jobs = [
            SaturationJob(fb_spec(algorithm_cls=ClosAD,
                                  pattern_factory=adversarial, seed=s), 200, 200)
            for s in (1, 2)
        ]
        direct = [execute_job(job) for job in jobs]
        summary = replicate_jobs(jobs, runner=SweepRunner(jobs=2))
        assert summary.samples == tuple(direct)

    def test_batch_jobs_identical(self):
        jobs = [
            BatchJob(fb_spec(algorithm_cls=ClosAD,
                             pattern_factory=adversarial), size)
            for size in (1, 2, 4)
        ]
        assert SweepRunner(jobs=1).map(jobs) == SweepRunner(jobs=3).map(jobs)


class TestCacheBehavior:
    """Second run of a sweep hits the cache: zero simulator
    constructions; changing any config field or the stamp misses."""

    def _sweep(self, runner, **spec_overrides):
        spec = fb_spec(algorithm_cls=ClosAD, pattern_factory=adversarial,
                       **spec_overrides)
        return latency_load_curve(spec, LOADS, runner=runner, **WINDOW)

    def test_second_run_builds_no_simulators(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = self._sweep(SweepRunner(jobs=1, cache=cache))
        before = sim_build_count()
        warm = self._sweep(SweepRunner(jobs=1, cache=cache))
        assert sim_build_count() == before, "cache hit must build nothing"
        assert warm == cold
        assert cache.hits == len(warm)

    def test_changed_config_field_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._sweep(SweepRunner(jobs=1, cache=cache))
        before = sim_build_count()
        self._sweep(SweepRunner(jobs=1, cache=cache), seed=2)
        assert sim_build_count() > before, "new seed must re-simulate"

    def test_changed_version_stamp_misses(self, tmp_path):
        self._sweep(SweepRunner(jobs=1, cache=ResultCache(str(tmp_path))))
        before = sim_build_count()
        other = ResultCache(str(tmp_path), version="other-stamp")
        self._sweep(SweepRunner(jobs=1, cache=other))
        assert sim_build_count() > before, "new stamp must re-simulate"

    def test_parallel_run_populates_cache_for_serial(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        parallel = self._sweep(SweepRunner(jobs=3, cache=cache))
        before = sim_build_count()
        warm = self._sweep(SweepRunner(jobs=1, cache=cache))
        assert sim_build_count() == before
        assert warm == parallel

    def test_uncacheable_jobs_still_run(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=ResultCache(str(tmp_path)))
        result = replicate_jobs(
            [CallableJob.of(lambda seed: float(seed), s) for s in (1, 2)],
            runner=runner,
        )
        assert result.mean == pytest.approx(1.5)

    def test_report_counts(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(jobs=1, cache=cache)
        self._sweep(runner)
        executed = runner.report.executed
        assert executed == runner.report.total > 0
        self._sweep(runner)
        assert runner.report.cache_hits == executed
        assert "cache hits" in runner.report.summary()

    def test_stale_kernel_variable_cannot_poison_cache(
        self, tmp_path, monkeypatch
    ):
        """A job built without ``kernel=`` runs, and is cached as, the
        event kernel whatever the environment says: a variable that
        switched it to the batch kernel would store a batch result
        under the event job's cache key.  The retired variable's name
        is spelled in two parts so a text search for it finds no live
        use."""
        from repro.experiments.fig04_routing import _spec

        job = OpenLoopJob(
            _spec(4, MinimalAdaptive, UniformRandom), 0.2, 100, 100, 800
        )
        monkeypatch.setenv("REPRO_" + "KERNEL", "batch")
        cache = ResultCache(str(tmp_path))
        (result,) = SweepRunner(jobs=1, cache=cache).map([job])
        assert result.kernel.kernel == "event"
        monkeypatch.delenv("REPRO_" + "KERNEL")
        assert result == execute_job(job)
        (cached,) = SweepRunner(jobs=1, cache=cache).map([job])
        assert cache.hits == 1
        assert cached.kernel.kernel == "event"

    def test_progress_callback_fires_per_point(self):
        ticks = []
        runner = SweepRunner(jobs=1,
                             progress=lambda done, total, job: ticks.append(done))
        runner.map([SaturationJob(fb_spec(), 50, 50) for _ in range(3)])
        assert ticks == [1, 2, 3]


# ----------------------------------------------------------------------
# Deterministic seed derivation
# ----------------------------------------------------------------------
class TestDeriveSeed:
    def test_pure_function_of_description(self):
        assert derive_seed(1, "fig04", 0.5) == derive_seed(1, "fig04", 0.5)

    def test_base_and_components_matter(self):
        base = derive_seed(1, "fig04", 0.5)
        assert derive_seed(2, "fig04", 0.5) != base
        assert derive_seed(1, "fig05", 0.5) != base
        assert derive_seed(1, "fig04", 0.6) != base

    def test_rejects_unstable_components(self):
        with pytest.raises(TypeError):
            derive_seed(1, object())

    def test_config_derived(self):
        config = SimulationConfig(seed=3)
        derived = config.derived("replica", 2)
        assert derived.seed == derive_seed(3, "replica", 2)
        assert derived.buffer_per_port == config.buffer_per_port
        # and the derivation itself is reproducible
        assert derived == config.derived("replica", 2)

    def test_with_seed(self):
        assert SimulationConfig(seed=1).with_seed(9).seed == 9


# ----------------------------------------------------------------------
# Multi-writer cache hardening (atomic puts + locked counters)
# ----------------------------------------------------------------------
def _flush_counter_deltas(cache_dir, rounds, per_round):
    """Worker body for the concurrent-flush test: accumulate hit/miss
    deltas in several small flushes racing the sibling processes."""
    cache = ResultCache(cache_dir)
    for _ in range(rounds):
        cache.hits += per_round
        cache.misses += per_round * 2
        cache.flush_counters()
    # a timed-out flush keeps its delta on the instance; drain it
    # before exiting so no increment is lost with the process
    while cache._flushed_hits < cache.hits:
        cache.flush_counters()


class TestCacheMultiWriter:
    def test_repeated_put_leaves_one_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = CallableJob.of(_return_value, 3)
        cache.put(job, "first")
        cache.put(job, "second")
        assert len(cache) == 1
        assert cache.get(job) == (True, "second")
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_counter_flushes_lose_nothing(self, tmp_path):
        cache_dir = str(tmp_path)
        rounds, per_round, procs = 5, 3, 6
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(
                target=_flush_counter_deltas,
                args=(cache_dir, rounds, per_round),
            )
            for _ in range(procs)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            assert writer.exitcode == 0
        persisted = ResultCache(cache_dir).persisted_counters()
        assert persisted["hits"] == procs * rounds * per_round
        assert persisted["misses"] == procs * rounds * per_round * 2

    def test_stale_lock_is_broken(self, tmp_path, monkeypatch):
        from repro.runner import cache as cache_module

        cache = ResultCache(str(tmp_path))
        lock = os.path.join(str(tmp_path), cache_module.COUNTERS_LOCK_FILENAME)
        with open(lock, "w"):
            pass
        old = time.time() - 2 * cache_module.LOCK_STALE_SECONDS
        os.utime(lock, (old, old))
        cache.hits = 4
        cache.flush_counters()  # must not dead-wait on the orphan lock
        assert ResultCache(str(tmp_path)).persisted_counters()["hits"] == 4


# ----------------------------------------------------------------------
# Worker-death recovery in the process-pool runner
# ----------------------------------------------------------------------
def _return_value(value):
    return value


def _die_once(flag_path):
    """Kill the worker process on first execution, succeed after."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os._exit(1)
    return "survived"


def _always_die():
    os._exit(1)


class TestBrokenPoolRecovery:
    def test_pool_rebuilt_and_lost_chunk_resubmitted(self, tmp_path):
        flag = str(tmp_path / "died-once")
        jobs = [CallableJob.of(_die_once, flag)] + [
            CallableJob.of(_return_value, i) for i in range(4)
        ]
        with SweepRunner(jobs=2, cache=None) as runner:
            results = runner.map(jobs)
        assert results == ["survived", 0, 1, 2, 3]
        assert os.path.exists(flag)
        # the rebuilt pool still serves later maps
        with SweepRunner(jobs=2, cache=None) as runner:
            first = runner.map(jobs)
            second = runner.map(
                [CallableJob.of(_return_value, i) for i in range(4)]
            )
        assert first == ["survived", 0, 1, 2, 3]
        assert second == [0, 1, 2, 3]

    def test_rebuild_budget_exhausted_raises(self, monkeypatch):
        from repro.runner import sweep

        monkeypatch.setattr(sweep, "POOL_REBUILDS", 1)
        jobs = [CallableJob.of(_always_die) for _ in range(2)]
        with SweepRunner(jobs=2, cache=None) as runner:
            with pytest.raises(BrokenProcessPool, match="giving up"):
                runner.map(jobs)


# ----------------------------------------------------------------------
# Kill-and-resume: the result cache is the sweep's checkpoint
# ----------------------------------------------------------------------
def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestKillAndResume:
    DIE_AFTER = 2
    #: Seconds the driver's pool workers get to notice it died.
    ORPHAN_GRACE_S = 10.0

    def _run_killed_sweep(self, cache_dir):
        """Run ``tests._sweep_driver`` (a ``jobs=2`` sweep that
        ``os._exit``s after ``DIE_AFTER`` results) and return its exit
        status and whether any process of its session outlived it by
        ``ORPHAN_GRACE_S``.  The driver gets its own session, so a
        leftover pool worker is found, and then killed with it."""
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
            ),
        )
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from tests._sweep_driver import main; raise SystemExit(main())",
             cache_dir, str(self.DIE_AFTER)],
            cwd=REPO_ROOT, env=env, start_new_session=True,
        )
        try:
            status = proc.wait(timeout=180)
            deadline = time.monotonic() + self.ORPHAN_GRACE_S
            while _group_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            return status, _group_alive(proc.pid)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    def test_killed_sweep_reruns_only_cache_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        status, orphans_left = self._run_killed_sweep(cache_dir)
        assert status == KILLED_STATUS
        # The pool workers exit once their sweep process is gone.
        assert not orphans_left
        jobs = curve_jobs()
        # Each result is stored before its progress tick, so exactly
        # the results that arrived before the kill survive, untorn.
        left = len(ResultCache(cache_dir))
        assert left == self.DIE_AFTER < len(jobs)
        assert not list((tmp_path / "cache").glob("*.tmp"))

        with SweepRunner(jobs=1, cache=ResultCache(cache_dir)) as runner:
            resumed = runner.map(jobs)
        report = runner.report
        assert report.cache_hits == left
        assert report.executed == len(jobs) - report.cache_hits
        assert report.sim_builds == report.executed
        assert ResultCache(cache_dir).persisted_counters() == {
            "hits": left, "misses": report.executed,
        }
        serial = SweepRunner(jobs=1).map(jobs)
        assert payload_bytes(resumed) == payload_bytes(serial)

        # A second rerun is a pure cache replay.
        with SweepRunner(jobs=1, cache=ResultCache(cache_dir)) as replay:
            replayed = replay.map(jobs)
        assert (replay.report.cache_hits, replay.report.executed) == (
            len(jobs), 0)
        assert payload_bytes(replayed) == payload_bytes(serial)
