"""Cross-kernel equivalence: the event kernel must be bit-identical
to the polling kernel.

The event kernel (default) and the legacy polling kernel (behind
``REPRO_KERNEL=polling``) implement the same cycle contract; these
tests drive both over a matrix of small configurations and require
*exactly* equal per-cycle ejection traces and end-of-run results —
not statistically close, byte-for-byte equal — plus consistent
activation-set bookkeeping.

Also covered here: kernel selection (argument / environment), the
idle-cycle skip, the ``rng_streams`` seed-derivation modes, the
``drain_max`` validation, and the credit-starved wire-port behavior.
"""

import random

import pytest

from repro.core import (
    ClosAD,
    DimensionOrder,
    MinimalAdaptive,
    UGAL,
    UGALSequential,
    Valiant,
)
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.core.routing.table import (
    ROUTE_TABLE_ENV,
    route_tables_enabled,
    shared_route_table,
)
from repro.faults import (
    FaultAwareDestinationTag,
    FaultAwareFoldedClosAdaptive,
    FaultAwareMinimalAdaptive,
    FaultAwareUGAL,
    FaultAwareValiant,
    FaultModel,
    TransientFault,
)
from repro.network import (
    KERNEL_ENV,
    KERNELS,
    QueueTrace,
    SimulationConfig,
    Simulator,
    ThroughputTrace,
    resolve_kernel,
)

#: Kernels that must agree bit-for-bit.  The vectorized batch
#: kernel models queues statistically rather than replaying the
#: event kernel exactly; its equivalence tests live in
#: tests/test_batch_kernel.py.
EXACT_KERNELS = ("event", "polling")
from repro.network.config import derive_seed
from repro.network.buffers import CHANNEL_PORT
from repro.topologies import Butterfly, FoldedClos
from repro.topologies.routing import DestinationTag
from repro.topologies.hyperx import HyperX
from repro.topologies.torus import Torus, TorusDOR
from repro.traffic import GroupShift, RandomPermutation, UniformRandom


ALGORITHMS = {
    "min_ad": MinimalAdaptive,
    "ugal": UGAL,
    "ugal_s": UGALSequential,
    "val": Valiant,
    "dor": DimensionOrder,
}

PATTERNS = {
    "ur": UniformRandom,
    "perm": RandomPermutation,
    "adv": lambda: GroupShift(1),
}


def _random_matrix(count=20, master_seed=20240806):
    """A reproducible pseudo-random matrix of small configurations."""
    rng = random.Random(master_seed)
    cases = []
    for i in range(count):
        cases.append(
            (
                rng.choice([(2, 2), (4, 2), (8, 2)]),
                rng.choice(sorted(ALGORITHMS)),
                rng.choice(sorted(PATTERNS)),
                rng.choice([0.05, 0.15, 0.4, 0.8]),
                rng.choice([1, 2, 4]),
                rng.randrange(1000),
                rng.choice(["legacy", "legacy", "mixed"]),
            )
        )
    return cases


MATRIX = _random_matrix()

#: Topology builders for the cross-topology matrix: the flattened
#: butterfly plus the families historically exercised only by their
#: own test files — tori (ring wraparound, dateline VCs) and generic
#: HyperX instances (multi-dimensional and multiplicity > 1).
TOPOLOGIES = {
    "fb4": lambda: FlattenedButterfly(4, 2),
    "torus4": lambda: Torus((4,)),
    "torus33": lambda: Torus((3, 3)),
    "torus44": lambda: Torus((4, 4)),
    "hx222": lambda: HyperX(concentration=2, dims=(2, 2)),
    "hx2222": lambda: HyperX(concentration=2, dims=(2, 2, 2)),
    "hx4m2": lambda: HyperX(concentration=4, dims=(4,), multiplicity=(2,)),
}

#: Algorithms valid per topology family (TorusDOR needs a Torus; the
#: HyperX algorithms need a HyperX).
TOPOLOGY_ALGORITHMS = {
    "fb4": ("min_ad", "ugal", "ugal_s", "val", "dor"),
    "torus4": ("torus_dor",),
    "torus33": ("torus_dor",),
    "torus44": ("torus_dor",),
    "hx222": ("min_ad", "ugal", "val", "dor"),
    "hx2222": ("min_ad", "ugal_s", "val", "dor"),
    "hx4m2": ("min_ad", "ugal", "val"),
}

ALGORITHMS["torus_dor"] = TorusDOR


def _random_topology_matrix(count=12, master_seed=20260806):
    """A reproducible random matrix spanning all topology families."""
    rng = random.Random(master_seed)
    names = sorted(TOPOLOGIES)
    cases = []
    for i in range(count):
        topology = names[i % len(names)]  # every family appears
        cases.append(
            (
                topology,
                rng.choice(TOPOLOGY_ALGORITHMS[topology]),
                rng.choice(sorted(PATTERNS)),
                rng.choice([0.05, 0.2, 0.5]),
                rng.choice([1, 2]),
                rng.randrange(1000),
                rng.choice(["legacy", "mixed"]),
            )
        )
    return cases


TOPO_MATRIX = _random_topology_matrix()

#: CLOS AD across the HyperX shapes that exercise every branch of its
#: ascent: one dimension (fb4), several dimensions to ascend through
#: (hx222, hx2222) and parallel channels per candidate (hx4m2).  An
#: explicit list rather than a new ``ALGORITHMS`` entry, which would
#: reshuffle the MATRIX / TOPO_MATRIX draws.
CLOS_AD_CASES = [
    # (topology, pattern, load, packet_size, seed, streams)
    ("fb4", "ur", 0.2, 1, 11, "legacy"),
    ("fb4", "perm", 0.5, 2, 12, "mixed"),
    ("fb4", "adv", 0.8, 1, 13, "legacy"),
    ("hx222", "ur", 0.5, 2, 21, "legacy"),
    ("hx222", "perm", 0.8, 1, 22, "legacy"),
    ("hx222", "adv", 0.2, 2, 23, "mixed"),
    ("hx2222", "ur", 0.8, 1, 31, "mixed"),
    ("hx2222", "perm", 0.2, 2, 32, "legacy"),
    ("hx2222", "adv", 0.5, 1, 33, "legacy"),
    ("hx4m2", "ur", 0.5, 1, 41, "legacy"),
    ("hx4m2", "perm", 0.2, 2, 42, "legacy"),
    ("hx4m2", "adv", 0.8, 2, 43, "mixed"),
]


def _run(kernel, fb, algorithm, pattern, load, packet_size, seed, streams):
    sim = Simulator(
        FlattenedButterfly(*fb),
        ALGORITHMS[algorithm](),
        PATTERNS[pattern](),
        SimulationConfig(seed=seed, packet_size=packet_size, rng_streams=streams),
        kernel=kernel,
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_open_loop(load, warmup=50, measure=80, drain_max=1500)
    sim.check_activation_invariants()
    return sim, trace.series, result


def _run_topology(
    kernel, topology, algorithm_cls, pattern, load, packet_size, seed, streams
):
    sim = Simulator(
        TOPOLOGIES[topology](),
        algorithm_cls(),
        PATTERNS[pattern](),
        SimulationConfig(seed=seed, packet_size=packet_size, rng_streams=streams),
        kernel=kernel,
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_open_loop(load, warmup=50, measure=80, drain_max=1500)
    sim.check_activation_invariants()
    return sim, trace.series, result


class TestKernelSelection:
    def test_default_is_event(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel() == "event"
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        assert sim.kernel == "event"

    def test_environment_selects_polling(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "polling")
        assert resolve_kernel() == "polling"
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        assert sim.kernel == "polling"

    def test_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "polling")
        assert resolve_kernel("event") == "event"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("quantum")
        with pytest.raises(ValueError, match="unknown kernel"):
            Simulator(
                FlattenedButterfly(2, 2),
                MinimalAdaptive(),
                UniformRandom(),
                kernel="quantum",
            )

    def test_kernel_names_exported(self):
        assert KERNELS == ("event", "polling", "batch")


class TestBitIdenticalResults:
    @pytest.mark.parametrize(
        "fb,algorithm,pattern,load,packet_size,seed,streams",
        MATRIX,
        ids=[
            f"{c[1]}-{c[2]}-k{c[0][0]}-l{c[3]}-p{c[4]}-s{c[5]}-{c[6]}"
            for c in MATRIX
        ],
    )
    def test_matrix_point(
        self, fb, algorithm, pattern, load, packet_size, seed, streams
    ):
        sim_p, series_p, res_p = _run(
            "polling", fb, algorithm, pattern, load, packet_size, seed, streams
        )
        sim_e, series_e, res_e = _run(
            "event", fb, algorithm, pattern, load, packet_size, seed, streams
        )
        # Per-cycle ejected-flit counts must match exactly, cycle by
        # cycle — the strongest observable the tracer API exposes.
        assert series_p == series_e
        assert res_p.accepted_throughput == res_e.accepted_throughput
        assert res_p.latency == res_e.latency
        assert res_p.network_latency == res_e.network_latency
        assert res_p.cycles == res_e.cycles
        assert res_p.packets_labeled == res_e.packets_labeled
        assert res_p.packets_delivered == res_e.packets_delivered
        assert res_p.saturated == res_e.saturated
        assert sim_p.packets_created == sim_e.packets_created
        assert sim_p.flits_ejected == sim_e.flits_ejected
        # The shared route RNG must have advanced identically.
        assert sim_p.route_rng.getstate() == sim_e.route_rng.getstate()

    @pytest.mark.parametrize(
        "topology,algorithm,pattern,load,packet_size,seed,streams",
        TOPO_MATRIX,
        ids=[
            f"{c[0]}-{c[1]}-{c[2]}-l{c[3]}-p{c[4]}-s{c[5]}-{c[6]}"
            for c in TOPO_MATRIX
        ],
    )
    def test_topology_matrix_point(
        self, topology, algorithm, pattern, load, packet_size, seed, streams
    ):
        """Torus and HyperX configurations (previously exercised only
        by their own test files) agree bit-for-bit across kernels."""
        self._assert_kernels_agree(
            topology, ALGORITHMS[algorithm], pattern, load, packet_size, seed,
            streams,
        )

    @pytest.mark.parametrize(
        "topology,pattern,load,packet_size,seed,streams",
        CLOS_AD_CASES,
        ids=[
            f"{c[0]}-clos_ad-{c[1]}-l{c[2]}-p{c[3]}-s{c[4]}-{c[5]}"
            for c in CLOS_AD_CASES
        ],
    )
    def test_clos_ad_point(
        self, topology, pattern, load, packet_size, seed, streams
    ):
        """CLOS AD's ascent/descent agree bit-for-bit across kernels,
        including multi-dimensional ascents and parallel channels."""
        self._assert_kernels_agree(
            topology, ClosAD, pattern, load, packet_size, seed, streams
        )

    @staticmethod
    def _assert_kernels_agree(
        topology, algorithm_cls, pattern, load, packet_size, seed, streams
    ):
        sim_p, series_p, res_p = _run_topology(
            "polling", topology, algorithm_cls, pattern, load, packet_size,
            seed, streams,
        )
        sim_e, series_e, res_e = _run_topology(
            "event", topology, algorithm_cls, pattern, load, packet_size,
            seed, streams,
        )
        assert series_p == series_e
        assert res_p == res_e
        assert sim_p.packets_created == sim_e.packets_created
        assert sim_p.flits_ejected == sim_e.flits_ejected
        assert sim_p.route_rng.getstate() == sim_e.route_rng.getstate()

    def test_batch_runs_identical(self):
        results = []
        for kernel in EXACT_KERNELS:
            sim = Simulator(
                FlattenedButterfly(4, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=3, packet_size=2),
                kernel=kernel,
            )
            results.append(sim.run_batch(4))
        event, polling = results
        assert event.completion_cycles == polling.completion_cycles
        assert event.packets == polling.packets

    def test_event_does_less_phase_work(self):
        """The point of the refactor: far fewer router-phase
        invocations for the same simulated cycles."""
        _, _, res_p = _run("polling", (8, 2), "min_ad", "ur", 0.1, 1, 1, "legacy")
        _, _, res_e = _run("event", (8, 2), "min_ad", "ur", 0.1, 1, 1, "legacy")
        assert res_p.cycles == res_e.cycles
        assert res_e.kernel.router_phase_calls < res_p.kernel.router_phase_calls / 2


class TestIdleSkip:
    def test_low_load_skips_idle_cycles(self):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=2),
            kernel="event",
        )
        result = sim.run_open_loop(0.005, warmup=200, measure=300, drain_max=5000)
        assert result.kernel.idle_cycles_skipped > 0
        assert result.kernel.cycles == result.cycles

    def test_skip_does_not_change_results(self):
        """Idle-skipped runs must agree with the polling kernel, which
        never skips anything."""
        outcomes = []
        for kernel in EXACT_KERNELS:
            sim = Simulator(
                FlattenedButterfly(4, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=2),
                kernel=kernel,
            )
            result = sim.run_open_loop(
                0.005, warmup=200, measure=300, drain_max=5000
            )
            outcomes.append(
                (
                    result.accepted_throughput,
                    result.latency,
                    result.cycles,
                    result.packets_delivered,
                    sim.packets_created,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_skip_preserves_throughput_trace(self):
        series = []
        for kernel in EXACT_KERNELS:
            sim = Simulator(
                FlattenedButterfly(4, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=9),
                kernel=kernel,
            )
            trace = ThroughputTrace(interval=10)
            sim.attach_tracer(trace)
            sim.run_open_loop(0.005, warmup=200, measure=300, drain_max=5000)
            series.append(trace.series)
        assert series[0] == series[1]

    def test_non_skippable_tracer_disables_skip(self):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=2),
            kernel="event",
        )
        sim.attach_tracer(QueueTrace([sim.topology.channels[0]]))
        result = sim.run_open_loop(0.005, warmup=100, measure=150, drain_max=3000)
        assert result.kernel.idle_cycles_skipped == 0

    def test_polling_never_skips(self):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=2),
            kernel="polling",
        )
        result = sim.run_open_loop(0.005, warmup=100, measure=150, drain_max=3000)
        assert result.kernel.idle_cycles_skipped == 0


class TestKernelStats:
    def test_stats_attached_and_consistent(self):
        for kernel in EXACT_KERNELS:
            sim = Simulator(
                FlattenedButterfly(4, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=1),
                kernel=kernel,
            )
            result = sim.run_open_loop(0.2, warmup=100, measure=100, drain_max=2000)
            stats = result.kernel
            assert stats is not None
            assert stats.kernel == kernel
            assert stats.cycles == result.cycles
            assert stats.router_phase_calls > 0
            assert stats.events_dispatched > 0
            assert stats.wall_seconds > 0
            assert stats.cycles_per_second > 0
            assert sim.kernel_stats is stats

    def test_stats_do_not_break_result_equality(self):
        """KernelStats is excluded from result comparison, so results
        from different kernels (different wall time) still compare
        equal field-for-field."""
        results = []
        for kernel in EXACT_KERNELS:
            sim = Simulator(
                FlattenedButterfly(4, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=4),
                kernel=kernel,
            )
            results.append(
                sim.run_open_loop(0.2, warmup=100, measure=100, drain_max=2000)
            )
        assert results[0] == results[1]
        assert results[0].kernel.wall_seconds != 0


class TestRngStreams:
    def test_legacy_is_default(self):
        assert SimulationConfig().rng_streams == "legacy"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="rng_streams"):
            SimulationConfig(rng_streams="bogus")

    def test_legacy_seed_zero_degenerates(self):
        """Under the legacy derivation, ``seed * 2654435761 % 2**31``
        is 0 for seed 0, so the streams collapse to Random(1..3)."""
        sim = Simulator(
            FlattenedButterfly(2, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=0, rng_streams="legacy"),
        )
        assert sim.traffic_rng.getstate() == random.Random(1).getstate()
        assert sim.route_rng.getstate() == random.Random(2).getstate()
        assert sim.injection_rng.getstate() == random.Random(3).getstate()

    def test_legacy_seeds_collide_mod_2_31(self):
        """Seeds 2**31 apart produce identical legacy streams — the
        defect the mixed mode fixes."""
        seeds = (5, 5 + 2**31)
        states = []
        for seed in seeds:
            sim = Simulator(
                FlattenedButterfly(2, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=seed, rng_streams="legacy"),
            )
            states.append(sim.traffic_rng.getstate())
        assert states[0] == states[1]

    def test_mixed_separates_colliding_seeds(self):
        seeds = (5, 5 + 2**31)
        states = []
        for seed in seeds:
            sim = Simulator(
                FlattenedButterfly(2, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=seed, rng_streams="mixed"),
            )
            states.append(sim.traffic_rng.getstate())
        assert states[0] != states[1]

    def test_mixed_streams_distinct_at_seed_zero(self):
        sim = Simulator(
            FlattenedButterfly(2, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=0, rng_streams="mixed"),
        )
        states = {
            sim.traffic_rng.getstate()[1],
            sim.route_rng.getstate()[1],
            sim.injection_rng.getstate()[1],
        }
        assert len(states) == 3

    def test_mixed_uses_derive_seed(self):
        sim = Simulator(
            FlattenedButterfly(2, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=7, rng_streams="mixed"),
        )
        assert (
            sim.route_rng.getstate()
            == random.Random(derive_seed(7, "route")).getstate()
        )

    def test_mixed_changes_results_but_not_equivalence(self):
        """Mixed streams give different trajectories than legacy, but
        the two kernels still agree under either mode."""
        per_mode = {}
        for streams in ("legacy", "mixed"):
            _, series_p, res_p = _run(
                "polling", (4, 2), "min_ad", "ur", 0.3, 1, 11, streams
            )
            _, series_e, res_e = _run(
                "event", (4, 2), "min_ad", "ur", 0.3, 1, 11, streams
            )
            assert series_p == series_e
            assert res_p.latency == res_e.latency
            per_mode[streams] = series_p
        assert per_mode["legacy"] != per_mode["mixed"]


class TestDrainMaxValidation:
    def test_equal_budget_rejected(self):
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        with pytest.raises(ValueError, match="drain_max=300 must exceed"):
            sim.run_open_loop(0.1, warmup=100, measure=200, drain_max=300)

    def test_smaller_budget_rejected(self):
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        with pytest.raises(ValueError, match="must exceed warmup\\+measure"):
            sim.run_open_loop(0.1, warmup=100, measure=200, drain_max=50)

    def test_rejected_run_does_not_consume_simulator(self):
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        with pytest.raises(ValueError):
            sim.run_open_loop(0.1, warmup=100, measure=200, drain_max=100)
        # The guard fired before _consume, so the instance is reusable.
        result = sim.run_open_loop(0.1, warmup=20, measure=20, drain_max=500)
        assert result.cycles > 0


#: Faulted configurations for the cross-kernel sweep:
#: (id, topology factory, algorithm class, fault model).
FAULTED_CONFIGS = [
    (
        "fb-ugal-links5",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareUGAL,
        FaultModel(link_failure_fraction=0.05, seed=3),
    ),
    (
        "fb-minad-links10",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareMinimalAdaptive,
        FaultModel(link_failure_fraction=0.10, seed=5),
    ),
    (
        "fb-val-router",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareValiant,
        FaultModel(router_failure_fraction=0.25, seed=7),
    ),
    (
        "fb-ugal-transients",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareUGAL,
        FaultModel(
            transient_links=3,
            transient_start=60,
            transient_span=80,
            transient_duration=40,
            seed=11,
        ),
    ),
    (
        "fb-ugal-mixed",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareUGAL,
        FaultModel(
            link_failure_fraction=0.05,
            transient_links=2,
            transient_start=60,
            transient_span=60,
            transient_duration=30,
            seed=13,
        ),
    ),
    (
        "butterfly-links5",
        lambda: Butterfly(4, 2),
        FaultAwareDestinationTag,
        FaultModel(link_failure_fraction=0.05, seed=3),
    ),
    (
        "clos-links10",
        lambda: FoldedClos(16, 4),
        FaultAwareFoldedClosAdaptive,
        FaultModel(link_failure_fraction=0.10, seed=9),
    ),
    (
        "fb-ugal-explicit-transient",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareUGAL,
        FaultModel(transients=(TransientFault(channel=0, start=70, end=140),)),
    ),
]


class TestFaultedBitIdentical:
    """Acceptance criterion: the two kernels produce bit-identical
    results under identical fault schedules — permanent link and
    router failures, sampled and explicit transient outages, and
    their combination, across all three compared topology families."""

    def _run_faulted(self, kernel, topo_factory, algo_cls, faults):
        sim = Simulator(
            topo_factory(),
            algo_cls(),
            UniformRandom(),
            SimulationConfig(seed=17, faults=faults),
            kernel=kernel,
        )
        trace = ThroughputTrace(interval=1)
        sim.attach_tracer(trace)
        result = sim.run_open_loop(0.25, warmup=50, measure=80, drain_max=1500)
        sim.check_activation_invariants()
        return sim, trace.series, result

    @pytest.mark.parametrize(
        "topo_factory,algo_cls,faults",
        [c[1:] for c in FAULTED_CONFIGS],
        ids=[c[0] for c in FAULTED_CONFIGS],
    )
    def test_faulted_point(self, topo_factory, algo_cls, faults):
        sim_p, series_p, res_p = self._run_faulted(
            "polling", topo_factory, algo_cls, faults
        )
        sim_e, series_e, res_e = self._run_faulted(
            "event", topo_factory, algo_cls, faults
        )
        assert series_p == series_e
        assert res_p == res_e
        assert res_p.packets_undeliverable == res_e.packets_undeliverable
        assert sim_p.packets_created == sim_e.packets_created
        assert sim_p.packets_undeliverable == sim_e.packets_undeliverable
        assert sim_p.flits_ejected == sim_e.flits_ejected
        assert sim_p.route_rng.getstate() == sim_e.route_rng.getstate()
        assert sim_p.traffic_rng.getstate() == sim_e.traffic_rng.getstate()
        # Both kernels sampled the identical fault set.
        assert sim_p.fault_set == sim_e.fault_set

    def test_faulted_run_terminates_drain(self):
        """Undeliverable pairs never enter the network, so the drain
        phase completes even when the fault set severs many pairs."""
        faults = FaultModel(link_failure_fraction=0.10, seed=3)
        for kernel in EXACT_KERNELS:
            sim = Simulator(
                Butterfly(4, 2),
                FaultAwareDestinationTag(),
                UniformRandom(),
                SimulationConfig(seed=1, faults=faults),
                kernel=kernel,
            )
            result = sim.run_open_loop(
                0.25, warmup=50, measure=80, drain_max=1500
            )
            # The labeled window drained well before drain_max (the
            # run would report saturated had undeliverable packets
            # been allowed to enter and wedge the drain).
            assert not result.saturated
            assert result.packets_undeliverable > 0


#: Route-table parity configurations: every algorithm that consults the
#: shared table, healthy and faulted.  (id, topology factory, algorithm
#: class, fault model or None.)
ROUTE_TABLE_CONFIGS = [
    ("min_ad", lambda: FlattenedButterfly(4, 2), MinimalAdaptive, None),
    ("ugal", lambda: FlattenedButterfly(4, 2), UGAL, None),
    ("ugal_s", lambda: FlattenedButterfly(4, 2), UGALSequential, None),
    ("val", lambda: FlattenedButterfly(4, 2), Valiant, None),
    ("dor", lambda: FlattenedButterfly(4, 2), DimensionOrder, None),
    ("dest_tag", lambda: Butterfly(4, 2), DestinationTag, None),
    ("clos_ad", lambda: FlattenedButterfly(4, 2), ClosAD, None),
    (
        "clos_ad-hx33m2",
        lambda: HyperX(concentration=2, dims=(3, 3), multiplicity=(2, 1)),
        ClosAD,
        None,
    ),
    # The fault-aware wrapper on a healthy network takes UGAL's table
    # path through its own attach.
    ("ugal-ft-healthy", lambda: HyperX(concentration=4, dims=(4,)),
     FaultAwareUGAL, None),
    (
        "min_ad-faulted",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareMinimalAdaptive,
        FaultModel(link_failure_fraction=0.10, seed=5),
    ),
    (
        "ugal-faulted",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareUGAL,
        FaultModel(link_failure_fraction=0.05, seed=3),
    ),
    (
        "ugal-transients",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareUGAL,
        FaultModel(
            link_failure_fraction=0.05,
            transient_links=2,
            transient_start=60,
            transient_span=60,
            transient_duration=30,
            seed=13,
        ),
    ),
    (
        "val-faulted",
        lambda: HyperX(concentration=4, dims=(4,)),
        FaultAwareValiant,
        FaultModel(router_failure_fraction=0.25, seed=7),
    ),
    (
        "dest_tag-faulted",
        lambda: Butterfly(4, 2),
        FaultAwareDestinationTag,
        FaultModel(link_failure_fraction=0.05, seed=3),
    ),
]


class TestRouteTableParity:
    """The shared precomputed route table is a pure lookup cache: runs
    with it enabled (default) and disabled (``REPRO_ROUTE_TABLE=0``)
    must be bit-identical — per-cycle ejection series, results, and
    final RNG states — for every table-consuming algorithm, healthy
    and under faults."""

    def _run_once(self, monkeypatch, enabled, topo_factory, algo_cls, faults):
        monkeypatch.setenv(ROUTE_TABLE_ENV, "1" if enabled else "0")
        algorithm = algo_cls()
        sim = Simulator(
            topo_factory(),
            algorithm,
            UniformRandom(),
            SimulationConfig(seed=23, faults=faults),
            kernel="event",
        )
        # Guard against the parity comparison degenerating: the toggle
        # must actually have taken effect at attach time.
        table = getattr(algorithm, "_route_table", None)
        if enabled:
            assert table is not None
        else:
            assert table is None
        trace = ThroughputTrace(interval=1)
        sim.attach_tracer(trace)
        result = sim.run_open_loop(0.3, warmup=50, measure=80, drain_max=1500)
        sim.check_activation_invariants()
        return sim, trace.series, result

    @pytest.mark.parametrize(
        "topo_factory,algo_cls,faults",
        [c[1:] for c in ROUTE_TABLE_CONFIGS],
        ids=[c[0] for c in ROUTE_TABLE_CONFIGS],
    )
    def test_table_on_off_identical(
        self, monkeypatch, topo_factory, algo_cls, faults
    ):
        sim_on, series_on, res_on = self._run_once(
            monkeypatch, True, topo_factory, algo_cls, faults
        )
        sim_off, series_off, res_off = self._run_once(
            monkeypatch, False, topo_factory, algo_cls, faults
        )
        assert series_on == series_off
        assert res_on == res_off
        assert sim_on.packets_created == sim_off.packets_created
        assert sim_on.flits_ejected == sim_off.flits_ejected
        assert sim_on.route_rng.getstate() == sim_off.route_rng.getstate()
        assert sim_on.traffic_rng.getstate() == sim_off.traffic_rng.getstate()

    @pytest.mark.parametrize(
        "topo_factory,algo_cls,faults",
        [c[1:] for c in ROUTE_TABLE_CONFIGS],
        ids=[c[0] for c in ROUTE_TABLE_CONFIGS],
    )
    def test_table_matches_polling_kernel(
        self, monkeypatch, topo_factory, algo_cls, faults
    ):
        """With tables on, the event kernel still agrees bit-for-bit
        with the polling kernel, which routes through the un-tabled
        ``route()`` path — a cross-check that the table and the
        original code compute the same function."""
        monkeypatch.setenv(ROUTE_TABLE_ENV, "1")
        outcomes = []
        for kernel in EXACT_KERNELS:
            sim = Simulator(
                topo_factory(),
                algo_cls(),
                UniformRandom(),
                SimulationConfig(seed=23, faults=faults),
                kernel=kernel,
            )
            trace = ThroughputTrace(interval=1)
            sim.attach_tracer(trace)
            result = sim.run_open_loop(
                0.3, warmup=50, measure=80, drain_max=1500
            )
            outcomes.append((trace.series, result, sim.route_rng.getstate()))
        assert outcomes[0] == outcomes[1]

    def test_table_shared_across_simulators(self, monkeypatch):
        """One topology object yields one table, reused by every
        simulator (and algorithm instance) built on it."""
        monkeypatch.setenv(ROUTE_TABLE_ENV, "1")
        topo = FlattenedButterfly(4, 2)
        algorithms = [MinimalAdaptive(), UGAL(), Valiant()]
        tables = set()
        for algorithm in algorithms:
            Simulator(topo, algorithm, UniformRandom(), SimulationConfig(seed=1))
            tables.add(id(algorithm._route_table))
        assert len(tables) == 1
        assert shared_route_table(topo) is algorithms[0]._route_table

    def test_disabled_by_environment(self, monkeypatch):
        monkeypatch.setenv(ROUTE_TABLE_ENV, "0")
        assert not route_tables_enabled()
        algorithm = MinimalAdaptive()
        Simulator(
            FlattenedButterfly(4, 2),
            algorithm,
            UniformRandom(),
            SimulationConfig(seed=1),
        )
        assert algorithm._route_table is None


class TestFlitPoolParity:
    """Flit pooling recycles ejected flit objects; a pooled run and an
    unpooled run (``REPRO_FLIT_POOL=0``) must be bit-identical."""

    def _run_once(self, monkeypatch, pooled):
        monkeypatch.setenv("REPRO_FLIT_POOL", "1" if pooled else "0")
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=29, packet_size=2),
            kernel="event",
        )
        assert sim._flit_pool_enabled is pooled
        trace = ThroughputTrace(interval=1)
        sim.attach_tracer(trace)
        result = sim.run_open_loop(0.4, warmup=50, measure=80, drain_max=1500)
        sim.check_activation_invariants()
        return sim, trace.series, result

    def test_pooled_vs_unpooled_identical(self, monkeypatch):
        sim_on, series_on, res_on = self._run_once(monkeypatch, True)
        sim_off, series_off, res_off = self._run_once(monkeypatch, False)
        assert series_on == series_off
        assert res_on == res_off
        assert sim_on.packets_created == sim_off.packets_created
        assert sim_on.flits_ejected == sim_off.flits_ejected
        assert sim_on.route_rng.getstate() == sim_off.route_rng.getstate()
        # The pooled run actually reused flits; the unpooled run never did.
        assert res_on.kernel.flits_reused > 0
        assert res_off.kernel.flits_reused == 0
        assert res_off.kernel.flits_allocated > res_on.kernel.flits_allocated


class TestCreditStarvedWirePort:
    """Satellite: pin the wire phase's handling of a staged output
    port whose every VC is credit-starved — it stays in the staged set
    and sends nothing until a credit returns."""

    def _starved_engine(self, kernel):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=1),
            kernel=kernel,
        )
        engine = sim.engines[0]
        out = next(o for o in engine.out_ports if o.kind == CHANNEL_PORT)
        from repro.network.packet import Flit, Packet

        packet = Packet(0, 0, 9, sim.topology.ejection_router(9), 1, 0)
        flit = Flit(packet, True, True)
        out.staging[0].append(flit)
        engine._staged_ports[out] = None
        sim._wire_engines[engine.router_id] = engine
        saved_credits = list(out.credits)
        for vc in range(out.num_vcs):
            out.credits[vc] = 0
        return sim, engine, out, flit, saved_credits

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_starved_port_stays_staged(self, kernel):
        sim, engine, out, flit, saved = self._starved_engine(kernel)
        wire = engine.wire_event if kernel == "event" else engine.wire_phase
        wire(0)
        assert list(out.staging[0]) == [flit]
        assert out in engine._staged_ports
        assert engine.router_id in sim._wire_engines
        assert not sim.pipes[out.channel_index].flits

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_credit_return_releases_port(self, kernel):
        sim, engine, out, flit, saved = self._starved_engine(kernel)
        wire = engine.wire_event if kernel == "event" else engine.wire_phase
        wire(0)
        out.credits[0] = saved[0]
        wire(1)
        pipe = sim.pipes[out.channel_index]
        assert not out.staging[0]
        assert len(pipe.flits) == 1
        arrival, sent, vc = pipe.flits[0]
        assert sent is flit
        assert vc == 0
        assert arrival == 1 + sim.config.channel_latency
        assert out.credits[0] == saved[0] - 1
        assert out not in engine._staged_ports
        assert engine.router_id not in sim._wire_engines
