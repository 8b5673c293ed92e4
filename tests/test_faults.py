"""The fault-injection subsystem (``repro.faults``).

Covers the deterministic fault model and its sampling semantics, the
fault-masked topology view, the fault-aware routing wrappers, the
simulator's undeliverable-packet accounting (including the headline
resilience claim: flattened butterfly + UGAL keeps delivering at 5%
failed links while the conventional butterfly severs pairs), the
cache-key sensitivity of fault parameters, and the empty-measurement-
window NaN regression the undeliverable path makes reachable.
"""

import dataclasses
import math

import pytest

from repro.core import MinimalAdaptive, UGAL
from repro.faults import (
    FaultAwareDestinationTag,
    FaultAwareFoldedClosAdaptive,
    FaultAwareMinimalAdaptive,
    FaultAwareUGAL,
    FaultModel,
    FaultSet,
    FaultedTopologyView,
)
from repro.network import SimulationConfig, Simulator
from repro.network.stats import LatencySummary, _percentile
from repro.runner.cache import CACHE_VERSION, job_key
from repro.runner.jobs import OpenLoopJob, SimSpec
from repro.topologies import Butterfly, FoldedClos
from repro.topologies.hyperx import HyperX
from repro.traffic import UniformRandom


def _fb(k=8):
    return HyperX(concentration=k, dims=(k,))


# ----------------------------------------------------------------------
# FaultModel / FaultSet
# ----------------------------------------------------------------------
class TestFaultModel:
    def test_default_is_trivial(self):
        assert FaultModel().trivial
        assert FaultModel().sample(_fb(4)).empty

    def test_nontrivial_detection(self):
        assert not FaultModel(link_failure_fraction=0.1).trivial
        assert FaultModel(seed=5).trivial

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_failure_fraction": -0.1},
            {"link_failure_fraction": 1.0},
            {"link_failure_fraction": 1.5},
            {"link_failure_fraction": float("nan")},
            {"link_failure_fraction": float("inf")},
            {"link_failure_fraction": float("-inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)

    def test_link_failures_are_the_only_fault_kind(self):
        assert [f.name for f in dataclasses.fields(FaultModel)] == [
            "link_failure_fraction",
            "seed",
        ]
        with pytest.raises(TypeError):
            FaultModel(0.1, 0, 0.1)

    def test_sampling_deterministic(self):
        model = FaultModel(link_failure_fraction=0.1, seed=42)
        topo = _fb(8)
        assert model.sample(topo) == model.sample(_fb(8))

    def test_sampling_independent_of_simulation_seed(self):
        """The fault streams derive from FaultModel.seed, so traffic
        seeds can vary over one fixed fault set."""
        model = FaultModel(link_failure_fraction=0.05, seed=5)
        sets = set()
        for sim_seed in (1, 2, 3):
            sim = Simulator(
                _fb(4), FaultAwareUGAL(), UniformRandom(),
                SimulationConfig(seed=sim_seed, faults=model),
            )
            sets.add(sim.fault_set)
        assert len(sets) == 1

    def test_different_fault_seeds_differ(self):
        topo = _fb(8)
        a = FaultModel(link_failure_fraction=0.1, seed=1).sample(topo)
        b = FaultModel(link_failure_fraction=0.1, seed=2).sample(topo)
        assert a.failed_channels != b.failed_channels

    def test_link_fraction_rounds_to_count(self):
        topo = _fb(8)  # 56 inter-router channels
        fs = FaultModel(link_failure_fraction=0.05, seed=1).sample(topo)
        assert len(fs.failed_channels) == round(0.05 * len(topo.channels))


# ----------------------------------------------------------------------
# FaultedTopologyView
# ----------------------------------------------------------------------
class TestFaultedTopologyView:
    def test_empty_fault_set_fully_connected(self):
        topo = _fb(4)
        view = FaultedTopologyView(topo, FaultModel().sample(topo))
        assert len(view.alive_channels) == len(topo.channels)
        assert view.disconnected_terminal_pairs() == 0

    @pytest.mark.parametrize(
        "topo_factory,model",
        [
            (lambda: _fb(8), FaultModel(link_failure_fraction=0.1, seed=3)),
            (
                lambda: Butterfly(8, 2),
                FaultModel(link_failure_fraction=0.05, seed=3),
            ),
            (
                lambda: FoldedClos(16, 4),
                FaultModel(link_failure_fraction=0.2, seed=5),
            ),
        ],
        ids=["fb-links", "butterfly-links", "clos-links"],
    )
    def test_aggregate_matches_enumeration(self, topo_factory, model):
        topo = topo_factory()
        view = FaultedTopologyView(topo, model.sample(topo))
        assert view.disconnected_terminal_pairs() == sum(
            1 for _ in view.severed_pairs()
        )

    def test_butterfly_severed_by_single_link(self):
        """The paper's path-diversity contrast in its purest form: one
        failed channel on a conventional butterfly severs every
        terminal pair routed over it, while the same fraction of
        failures leaves the flattened butterfly fully connected."""
        bf = Butterfly(8, 2)
        channel = bf.channels[0]
        fs = FaultSet(
            failed_channels=frozenset({channel.index}),
            num_channels=len(bf.channels),
        )
        view = FaultedTopologyView(bf, fs)
        # k src terminals at the channel's source router x k dst
        # terminals at its destination router.
        assert view.disconnected_terminal_pairs() == bf.k * bf.k
        assert not view.terminal_pair_connected(0, 0 + 0)  # severed pair
        fb = _fb(8)
        fs_fb = FaultSet(
            failed_channels=frozenset({0}),
            num_channels=len(fb.channels),
        )
        assert FaultedTopologyView(fb, fs_fb).disconnected_terminal_pairs() == 0


# ----------------------------------------------------------------------
# Fault-aware routing wrappers
# ----------------------------------------------------------------------
class TestFaultAwareRouting:
    def test_unaware_algorithm_rejected(self):
        with pytest.raises(TypeError, match="not fault-aware"):
            Simulator(
                _fb(4), UGAL(), UniformRandom(),
                SimulationConfig(faults=FaultModel(link_failure_fraction=0.1)),
            )

    def test_trivial_model_allowed_with_unaware_algorithm(self):
        sim = Simulator(
            _fb(4), UGAL(), UniformRandom(),
            SimulationConfig(faults=FaultModel()),
        )
        assert sim.fault_set is None

    @pytest.mark.parametrize(
        "base_cls,aware_cls",
        [(UGAL, FaultAwareUGAL), (MinimalAdaptive, FaultAwareMinimalAdaptive)],
        ids=["ugal", "min_ad"],
    )
    def test_wrapper_matches_base_when_fault_free(self, base_cls, aware_cls):
        """With no fault model the wrappers reproduce the base
        algorithms bit-for-bit (same RNG draw sequence)."""
        results = []
        for algo_cls in (base_cls, aware_cls):
            sim = Simulator(
                _fb(8), algo_cls(), UniformRandom(),
                SimulationConfig(seed=7),
            )
            results.append(
                sim.run_open_loop(0.3, warmup=100, measure=100, drain_max=2000)
            )
        assert results[0] == results[1]

    def test_min_ad_deliverable_requires_minimal_path(self):
        """MIN AD's deliverability is stricter than graph connectivity:
        killing the single direct channel of a 1-D flat severs the
        minimal route even though a two-hop detour exists."""
        sim2 = Simulator(
            _fb(4), FaultAwareMinimalAdaptive(), UniformRandom(),
            SimulationConfig(faults=FaultModel(link_failure_fraction=0.09, seed=3)),
        )
        failed = sim2.fault_set.failed_channels
        assert failed
        algo2 = sim2.algorithm
        t = sim2.topology
        for channel in t.channels:
            if channel.index in failed:
                src_t = channel.src * t.concentration
                dst_t = channel.dst * t.concentration
                assert not algo2.deliverable(src_t, dst_t)

    def test_ugal_deliverable_via_valiant_detour(self):
        """UGAL remains deliverable where MIN AD is not: the Valiant
        fallback routes around the dead minimal channel."""
        model = FaultModel(link_failure_fraction=0.09, seed=3)
        sim = Simulator(
            _fb(4), FaultAwareUGAL(), UniformRandom(),
            SimulationConfig(faults=model),
        )
        algo = sim.algorithm
        t = sim.topology
        for s in range(t.num_terminals):
            for d in range(t.num_terminals):
                assert algo.deliverable(s, d)


# ----------------------------------------------------------------------
# Resilience acceptance criterion
# ----------------------------------------------------------------------
class TestResilienceClaim:
    """The headline deterministic result: at 5% failed links the
    flattened butterfly under UGAL retains positive accepted
    throughput with zero undeliverable packets, while the conventional
    butterfly reports disconnected pairs and undeliverable packets —
    and neither simulation hangs in drain."""

    MODEL = FaultModel(link_failure_fraction=0.05, seed=3)

    def test_flattened_butterfly_ugal_retains_throughput(self):
        sim = Simulator(
            _fb(8), FaultAwareUGAL(), UniformRandom(),
            SimulationConfig(seed=7, faults=self.MODEL),
        )
        assert sim.fault_set.failed_channels  # faults actually present
        result = sim.run_open_loop(0.3, warmup=300, measure=300, drain_max=4000)
        assert not result.saturated
        assert result.accepted_throughput > 0
        assert result.packets_undeliverable == 0

    def test_conventional_butterfly_loses_pairs(self):
        bf = Butterfly(8, 2)
        view = FaultedTopologyView(bf, self.MODEL.sample(bf))
        assert view.disconnected_terminal_pairs() > 0
        sim = Simulator(
            Butterfly(8, 2), FaultAwareDestinationTag(), UniformRandom(),
            SimulationConfig(seed=7, faults=self.MODEL),
        )
        result = sim.run_open_loop(0.3, warmup=300, measure=300, drain_max=4000)
        assert not result.saturated  # drain terminated
        assert result.packets_undeliverable > 0
        # The surviving pairs still flow.
        assert result.accepted_throughput > 0

    def test_folded_clos_spine_diversity(self):
        sim = Simulator(
            FoldedClos(64, 8), FaultAwareFoldedClosAdaptive(), UniformRandom(),
            SimulationConfig(seed=7, faults=self.MODEL),
        )
        result = sim.run_open_loop(0.3, warmup=300, measure=300, drain_max=4000)
        assert not result.saturated
        assert result.packets_undeliverable == 0

    def test_ext_resilience_experiment_runs(self):
        from repro.experiments import ext_resilience

        result = ext_resilience.run(scale="ci")
        undeliv = result.table(
            "undeliverable packets vs failed-link fraction"
        )
        fractions = undeliv.column("failed_fraction")
        assert 0.05 in fractions
        row = undeliv.rows[fractions.index(0.05)]
        by_name = dict(zip(undeliv.headers, row))
        assert by_name["FB (UGAL)"] == 0
        assert by_name["butterfly"] > 0
        throughput = result.table(
            "accepted throughput vs failed-link fraction"
        )
        t_row = dict(
            zip(
                throughput.headers,
                throughput.rows[
                    throughput.column("failed_fraction").index(0.05)
                ],
            )
        )
        assert t_row["FB (UGAL)"] > 0

    def test_ext_resilience_replicas_reach_the_report(self):
        """Each (fraction, system) cell of the replica aggregate is one
        replicated metric in the runner's report, so the footer counts
        them."""
        import dataclasses

        from repro.experiments import ext_resilience
        from repro.experiments.common import CI_SCALE
        from repro.runner import SweepRunner

        scale = dataclasses.replace(
            CI_SCALE, fb_k=4, warmup=100, measure=100, drain_max=2000
        )
        runner = SweepRunner(jobs=1)
        ext_resilience.run(scale, runner=runner, replicas=2)
        cells = len(ext_resilience.FAIL_FRACTIONS) * len(
            ext_resilience.system_specs(4, 0.0)
        )
        assert runner.report.replicated_metrics == cells > 0
        assert runner.report.replica_samples == 2 * cells
        assert "replicated metrics" in runner.report.summary()


# ----------------------------------------------------------------------
# Cache-key sensitivity
# ----------------------------------------------------------------------
class TestFaultCacheKeys:
    def _job(self, model):
        config = SimulationConfig(seed=7, faults=model)
        spec = SimSpec.of(
            Simulator, HyperX, FaultAwareUGAL, UniformRandom, config
        )
        return OpenLoopJob(spec, 0.3, 100, 100, 2000)

    def test_cache_version_bumped(self):
        # v3 introduced the faults field; v4 (profiling counters in
        # KernelStats), v5 (SimSpec topology sub-spec changed every
        # job description), v6 (kernel field in SimSpec kwargs for
        # batch-kernel jobs), and v7 (workload field in
        # SimulationConfig, per_class in OpenLoopResult, WorkloadJob)
        # must not replay older entries either.
        assert CACHE_VERSION == "repro-results-v7"

    def test_same_fault_model_same_key(self):
        a = self._job(FaultModel(link_failure_fraction=0.05, seed=3))
        b = self._job(FaultModel(link_failure_fraction=0.05, seed=3))
        assert job_key(a) == job_key(b)

    @pytest.mark.parametrize(
        "other",
        [
            None,
            FaultModel(),
            FaultModel(link_failure_fraction=0.02, seed=3),
            FaultModel(link_failure_fraction=0.05, seed=4),
        ],
        ids=["no-model", "trivial", "fraction", "fault-seed"],
    )
    def test_any_fault_parameter_change_misses(self, other):
        base = self._job(FaultModel(link_failure_fraction=0.05, seed=3))
        assert job_key(base) != job_key(self._job(other))

    def test_cached_fault_sweep_roundtrip(self, tmp_path):
        """Same SimSpec + same fault seed hits the cache; the replayed
        result equals the fresh one."""
        from repro.runner import ResultCache, SweepRunner
        from repro.experiments.ext_resilience import _fb as make_fb

        cache = ResultCache(str(tmp_path))
        spec = SimSpec.of(make_fb, 0.05, FaultAwareUGAL).with_topology(
            HyperX, concentration=4, dims=(4,)
        )
        job = OpenLoopJob(spec, 0.3, 50, 80, 1500)
        runner = SweepRunner(jobs=1, cache=cache)
        first = runner.run(job)
        assert cache.misses == 1 and cache.hits == 0
        second = SweepRunner(jobs=1, cache=ResultCache(str(tmp_path))).run(job)
        assert second == first


# ----------------------------------------------------------------------
# Empty-measurement-window NaN regression (satellite)
# ----------------------------------------------------------------------
class TestEmptyWindowNaN:
    def test_percentile_of_empty_is_nan(self):
        assert math.isnan(_percentile([], 0.5))
        assert math.isnan(_percentile([], 0.99))

    def test_latency_summary_of_empty_is_all_nan(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        for value in (
            summary.mean, summary.p50, summary.p95, summary.p99, summary.max
        ):
            assert math.isnan(value)

    def test_fully_severed_run_reports_nan_not_crash(self):
        """All four inter-router channels of a 2-ary 2-fly fail (90%
        of 4 rounds to 4), so *every* packet is undeliverable: the
        measurement window ejects zero labeled packets and the result
        must carry NaN latencies and zero throughput, not raise."""
        model = FaultModel(link_failure_fraction=0.9, seed=3)
        bf = Butterfly(2, 2)
        assert model.sample(bf).failed_channels == frozenset(
            channel.index for channel in bf.channels
        )
        sim = Simulator(
            Butterfly(2, 2), FaultAwareDestinationTag(), UniformRandom(),
            SimulationConfig(seed=1, faults=model),
        )
        result = sim.run_open_loop(0.5, warmup=50, measure=80, drain_max=1500)
        assert not result.saturated
        assert result.packets_delivered == 0
        assert result.packets_undeliverable > 0
        assert result.accepted_throughput == 0.0
        assert result.packets_labeled == 0
        assert math.isnan(result.latency.mean)
        assert math.isnan(result.network_latency.mean)
        assert math.isnan(result.mean_hops)
        assert math.isnan(result.avg_latency)
