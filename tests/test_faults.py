"""The fault-injection subsystem (``repro.faults``).

Covers the deterministic fault model and its sampling semantics, the
fault-masked topology view, the fault-aware routing wrappers, the
simulator's undeliverable-packet accounting (including the headline
resilience claim: flattened butterfly + UGAL keeps delivering at 5%
failed links while the conventional butterfly severs pairs), the
cache-key sensitivity of fault parameters, and the empty-measurement-
window NaN regression the undeliverable path makes reachable.
"""

import math

import pytest

from repro.core import MinimalAdaptive, UGAL
from repro.faults import (
    TRANSIENT_COST_PENALTY,
    FaultAwareDestinationTag,
    FaultAwareFoldedClosAdaptive,
    FaultAwareMinimalAdaptive,
    FaultAwareUGAL,
    FaultAwareValiant,
    FaultModel,
    FaultSet,
    FaultState,
    FaultedTopologyView,
    TransientFault,
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
        assert not FaultModel(router_failure_fraction=0.1).trivial
        assert not FaultModel(transient_links=1).trivial
        assert not FaultModel(
            transients=(TransientFault(0, 10, 20),)
        ).trivial

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_failure_fraction": -0.1},
            {"link_failure_fraction": 1.0},
            {"router_failure_fraction": 1.5},
            {"transient_links": -1},
            {"transient_links": 1, "transient_span": 0},
            {"transient_links": 1, "transient_duration": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)

    def test_transient_fault_validation(self):
        with pytest.raises(ValueError, match="empty outage"):
            TransientFault(0, 10, 10)
        with pytest.raises(ValueError):
            TransientFault(-1, 0, 10)

    def test_sampling_deterministic(self):
        model = FaultModel(
            link_failure_fraction=0.1,
            router_failure_fraction=0.1,
            transient_links=2,
            seed=42,
        )
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

    def test_failed_router_takes_incident_channels(self):
        topo = _fb(4)
        fs = FaultModel(router_failure_fraction=0.3, seed=1).sample(topo)
        assert fs.failed_routers
        for channel in topo.channels:
            if (
                channel.src in fs.failed_routers
                or channel.dst in fs.failed_routers
            ):
                assert channel.index in fs.failed_channels

    def test_failed_router_kills_attached_terminals(self):
        topo = _fb(4)
        fs = FaultModel(router_failure_fraction=0.3, seed=1).sample(topo)
        state = FaultState(fs, topo)
        for terminal in range(topo.num_terminals):
            expected = (
                topo.injection_router(terminal) in fs.failed_routers
                or topo.ejection_router(terminal) in fs.failed_routers
            )
            assert state.terminal_dead(terminal) == expected

    def test_sampled_transients_avoid_failed_channels(self):
        model = FaultModel(
            link_failure_fraction=0.2, transient_links=5, seed=9
        )
        fs = model.sample(_fb(8))
        for fault in fs.transients:
            assert fault.channel not in fs.failed_channels
            assert fault.end == fault.start + model.transient_duration

    def test_explicit_transient_out_of_range_rejected(self):
        model = FaultModel(transients=(TransientFault(10_000, 0, 10),))
        with pytest.raises(ValueError, match="only"):
            model.sample(_fb(4))

    def test_channel_down_windows(self):
        fs = FaultSet(
            failed_channels=frozenset({7}),
            transients=(TransientFault(3, 100, 150),),
            num_channels=20,
            num_routers=4,
        )
        state = FaultState(fs, _fb(4))
        assert state.channel_failed(7)
        assert state.channel_down(7, 0) and state.channel_down(7, 10**6)
        assert not state.channel_failed(3)
        assert not state.channel_down(3, 99)
        assert state.channel_down(3, 100)
        assert state.channel_down(3, 149)
        assert not state.channel_down(3, 150)
        assert state.transient_channels() == frozenset({3})
        assert state.last_transient_end == 150


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
                lambda: _fb(4),
                FaultModel(router_failure_fraction=0.3, seed=1),
            ),
            (
                lambda: FoldedClos(16, 4),
                FaultModel(link_failure_fraction=0.2, seed=5),
            ),
        ],
        ids=["fb-links", "butterfly-links", "fb-routers", "clos-links"],
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
            num_routers=bf.num_routers,
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
            num_routers=fb.num_routers,
        )
        assert FaultedTopologyView(fb, fs_fb).disconnected_terminal_pairs() == 0

    def test_transients_do_not_disconnect(self):
        topo = _fb(4)
        model = FaultModel(transient_links=5, seed=1)
        view = FaultedTopologyView(topo, model.sample(topo))
        assert view.disconnected_terminal_pairs() == 0
        assert len(view.alive_channels) == len(topo.channels)


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
        assert sim.fault_state is None

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
        topo = _fb(4)
        direct = topo.channels_between(0, 1)[0]
        model = FaultModel()  # sampled set replaced below
        sim = Simulator(
            topo, FaultAwareMinimalAdaptive(), UniformRandom(),
            SimulationConfig(
                faults=FaultModel(
                    transients=(TransientFault(direct.index, 1, 2),)
                )
            ),
        )
        # Transients never affect deliverability...
        algo = sim.algorithm
        assert algo.deliverable(0, 4)
        # ...but a permanent failure of the only minimal channel does.
        sim2 = Simulator(
            _fb(4), FaultAwareMinimalAdaptive(), UniformRandom(),
            SimulationConfig(faults=FaultModel(link_failure_fraction=0.09, seed=3)),
        )
        failed = sim2.fault_state.failed_channels
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

    def test_transient_penalty_magnitude(self):
        assert TRANSIENT_COST_PENALTY > 10**5  # dominates any real queue

    def test_valiant_intermediates_avoid_failed_routers(self):
        model = FaultModel(router_failure_fraction=0.3, seed=1)
        sim = Simulator(
            _fb(4), FaultAwareValiant(), UniformRandom(),
            SimulationConfig(seed=5, faults=model),
        )
        failed = sim.fault_state.failed_routers
        assert failed
        result = sim.run_open_loop(0.2, warmup=50, measure=80, drain_max=1500)
        assert result.packets_delivered > 0
        # Dead terminals only source undeliverable packets.
        assert result.packets_undeliverable > 0


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
# Transient outages
# ----------------------------------------------------------------------
class TestTransients:
    def test_transient_blocks_then_heals(self):
        """A staged flit behind a transiently-down channel waits out
        the outage and is delivered afterwards; nothing is lost."""
        outage = TransientFault(channel=0, start=0, end=120)
        sim = Simulator(
            _fb(4), FaultAwareUGAL(), UniformRandom(),
            SimulationConfig(seed=3, faults=FaultModel(transients=(outage,))),
        )
        result = sim.run_open_loop(0.2, warmup=60, measure=60, drain_max=2000)
        assert not result.saturated
        assert result.packets_undeliverable == 0
        assert sim.packets_created == sim.packets_delivered + sim.in_flight

    def test_transient_only_model_delivers_everything(self):
        model = FaultModel(
            transient_links=4,
            transient_start=50,
            transient_span=100,
            transient_duration=60,
            seed=11,
        )
        sim = Simulator(
            _fb(8), FaultAwareUGAL(), UniformRandom(),
            SimulationConfig(seed=7, faults=model),
        )
        result = sim.run_open_loop(0.3, warmup=100, measure=100, drain_max=2500)
        assert not result.saturated
        assert result.packets_undeliverable == 0


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
            FaultModel(link_failure_fraction=0.05, seed=3, transient_links=1),
            FaultModel(
                link_failure_fraction=0.05,
                seed=3,
                transients=(TransientFault(0, 10, 20),),
            ),
            FaultModel(
                link_failure_fraction=0.05,
                seed=3,
                router_failure_fraction=0.05,
            ),
        ],
        ids=[
            "no-model", "trivial", "fraction", "fault-seed", "transient-count",
            "explicit-transient", "router-fraction",
        ],
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
        """Both ejection routers of a 2-ary 2-fly fail (seed 3 at 50%
        router failures), so *every* packet is undeliverable: the
        measurement window ejects zero labeled packets and the result
        must carry NaN latencies and zero throughput, not raise."""
        model = FaultModel(router_failure_fraction=0.5, seed=3)
        bf = Butterfly(2, 2)
        assert model.sample(bf).failed_routers == frozenset({2, 3})
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
