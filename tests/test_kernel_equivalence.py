"""Exact-kernel regression: the event kernel must reproduce the
committed fingerprints bit for bit.

``tests/golden/exact_fingerprints.json`` pins, for a matrix of small
configurations (random flattened-butterfly points, every topology
family, CLOS AD, faults, every route-table consumer), the result, the
per-cycle ejection series, the final RNG states and the router-phase
work of each run.  The file was recorded while a second, polling
kernel still existed and agreed with the event kernel on every case,
so it also carries that oracle forward.  The checks are exact — not
statistically close, byte-for-byte equal — plus consistent
activation-set bookkeeping after every run.

Also covered here: kernel selection (the ``kernel`` argument), the
idle-cycle skip, the ``rng_streams`` seed-derivation modes, the
``drain_max`` validation, and the credit-starved wire-port behavior.
Regenerate the file (only after an intentional change to simulated
behavior) with ``PYTHONPATH=src python -m tests.test_kernel_equivalence``.
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
from repro.core.routing.table import shared_route_table
from repro.faults import (
    FaultAwareDestinationTag,
    FaultAwareFoldedClosAdaptive,
    FaultAwareMinimalAdaptive,
    FaultAwareUGAL,
    FaultModel,
)
from repro.network import (
    KERNELS,
    ChannelLoadTrace,
    QueueTrace,
    SimulationConfig,
    Simulator,
    ThroughputTrace,
    resolve_kernel,
)
from repro.network.config import derive_seed
from repro.network.buffers import CHANNEL_PORT
from repro.topologies import Butterfly, FoldedClos
from repro.topologies.routing import DestinationTag
from repro.topologies.hyperx import HyperX
from repro.topologies.torus import Torus, TorusDOR
from repro.traffic import GroupShift, RandomPermutation, UniformRandom
from tests import fingerprints


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
MATRIX_IDS = [
    f"{c[1]}-{c[2]}-k{c[0][0]}-l{c[3]}-p{c[4]}-s{c[5]}-{c[6]}" for c in MATRIX
]

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
TOPO_IDS = [
    f"{c[0]}-{c[1]}-{c[2]}-l{c[3]}-p{c[4]}-s{c[5]}-{c[6]}" for c in TOPO_MATRIX
]

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
CLOS_AD_IDS = [
    f"{c[0]}-clos_ad-{c[1]}-l{c[2]}-p{c[3]}-s{c[4]}-{c[5]}" for c in CLOS_AD_CASES
]


def _run(fb, algorithm, pattern, load, packet_size, seed, streams):
    sim = Simulator(
        FlattenedButterfly(*fb),
        ALGORITHMS[algorithm](),
        PATTERNS[pattern](),
        SimulationConfig(seed=seed, packet_size=packet_size, rng_streams=streams),
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_open_loop(load, warmup=50, measure=80, drain_max=1500)
    sim.check_activation_invariants()
    return sim, trace.series, result


def _run_topology(
    topology, algorithm_cls, pattern, load, packet_size, seed, streams
):
    sim = Simulator(
        TOPOLOGIES[topology](),
        algorithm_cls(),
        PATTERNS[pattern](),
        SimulationConfig(seed=seed, packet_size=packet_size, rng_streams=streams),
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_open_loop(load, warmup=50, measure=80, drain_max=1500)
    sim.check_activation_invariants()
    return sim, trace.series, result


def _assert_pinned(name):
    """Run the pinned case ``name`` on the event kernel and compare it
    with its committed fingerprint."""
    fingerprints.assert_pinned(name, _all_pinned_cases()[name]())


class TestKernelSelection:
    def test_default_is_event(self):
        assert resolve_kernel() == "event"
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        assert sim.kernel == "event"

    def test_polling_argument_rejected(self):
        with pytest.raises(ValueError, match="pick one of event, batch"):
            Simulator(
                FlattenedButterfly(2, 2),
                MinimalAdaptive(),
                UniformRandom(),
                kernel="polling",
            )

    def test_cli_rejects_polling(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(["fig05", "--kernel", "polling"])
        assert info.value.code == 2
        assert "invalid choice: 'polling'" in capsys.readouterr().err

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
        assert KERNELS == ("event", "batch")


class TestBitIdenticalResults:
    @pytest.mark.parametrize("case_id", MATRIX_IDS)
    def test_matrix_point(self, case_id):
        _assert_pinned(f"matrix/{case_id}")

    @pytest.mark.parametrize("case_id", TOPO_IDS)
    def test_topology_matrix_point(self, case_id):
        """Torus and HyperX configurations (previously exercised only
        by their own test files) reproduce their fingerprints."""
        _assert_pinned(f"topology/{case_id}")

    @pytest.mark.parametrize("case_id", CLOS_AD_IDS)
    def test_clos_ad_point(self, case_id):
        """CLOS AD's ascent/descent reproduce their fingerprints,
        including multi-dimensional ascents and parallel channels."""
        _assert_pinned(f"clos_ad/{case_id}")

    def test_batch_runs_identical(self):
        _assert_pinned("batch/fb4-min_ad-p2")


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
        """Idle-skipped runs reproduce the fingerprint that the polling
        kernel, which never skipped anything, agreed with."""
        sim, series, result = _run_idle(2, None)
        assert result.kernel.idle_cycles_skipped > 0
        fingerprints.assert_pinned(
            "idle_skip/s2", fingerprints.run_record(sim, series, result)
        )

    def test_skip_preserves_throughput_trace(self):
        sim, series, result = _run_idle(9, 10)
        assert result.kernel.idle_cycles_skipped > 0
        fingerprints.assert_pinned(
            "idle_skip/s9-trace10", fingerprints.run_record(sim, series, result)
        )

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


class TestKernelStats:
    def test_stats_attached_and_consistent(self):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=1),
            kernel="event",
        )
        result = sim.run_open_loop(0.2, warmup=100, measure=100, drain_max=2000)
        stats = result.kernel
        assert stats is not None
        assert stats.kernel == "event"
        assert stats.cycles == result.cycles
        assert stats.router_phase_calls > 0
        assert stats.events_dispatched > 0
        assert stats.wall_seconds > 0
        assert stats.cycles_per_second > 0
        assert sim.kernel_stats is stats

    def test_stats_do_not_break_result_equality(self):
        """KernelStats is excluded from result comparison, so two runs
        of one configuration (different wall time) still compare equal
        field-for-field."""
        results = []
        for _ in range(2):
            sim = Simulator(
                FlattenedButterfly(4, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=4),
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
        """Mixed streams give different trajectories than legacy, and
        each mode reproduces its fingerprint."""
        per_mode = {}
        for streams in ("legacy", "mixed"):
            run = _run((4, 2), "min_ad", "ur", 0.3, 1, 11, streams)
            fingerprints.assert_pinned(
                f"streams/{streams}", fingerprints.run_record(*run)
            )
            per_mode[streams] = run[1]
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
]


def _run_faulted(topo_factory, algo_cls, faults):
    sim = Simulator(
        topo_factory(),
        algo_cls(),
        UniformRandom(),
        SimulationConfig(seed=17, faults=faults),
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_open_loop(0.25, warmup=50, measure=80, drain_max=1500)
    sim.check_activation_invariants()
    return sim, trace.series, result


class TestFaultedBitIdentical:
    """Acceptance criterion: runs under permanent link failures, across
    three topology families and three fault-aware algorithms, reproduce
    their fingerprints, undeliverable counts included."""

    @pytest.mark.parametrize("case_id", [c[0] for c in FAULTED_CONFIGS])
    def test_faulted_point(self, case_id):
        _assert_pinned(f"faulted/{case_id}")

    def test_faulted_run_terminates_drain(self):
        """Undeliverable pairs never enter the network, so the drain
        phase completes even when the fault set severs many pairs."""
        faults = FaultModel(link_failure_fraction=0.10, seed=3)
        sim = Simulator(
            Butterfly(4, 2),
            FaultAwareDestinationTag(),
            UniformRandom(),
            SimulationConfig(seed=1, faults=faults),
        )
        result = sim.run_open_loop(0.25, warmup=50, measure=80, drain_max=1500)
        # The labeled window drained well before drain_max (the run
        # would report saturated had undeliverable packets been allowed
        # to enter and wedge the drain).
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
        "dest_tag-faulted",
        lambda: Butterfly(4, 2),
        FaultAwareDestinationTag,
        FaultModel(link_failure_fraction=0.05, seed=3),
    ),
]


def _run_route_table(topo_factory, algo_cls, faults):
    sim = Simulator(
        topo_factory(),
        algo_cls(),
        UniformRandom(),
        SimulationConfig(seed=23, faults=faults),
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_open_loop(0.3, warmup=50, measure=80, drain_max=1500)
    sim.check_activation_invariants()
    return sim, trace.series, result


class TestRouteTableParity:
    """The shared route table is a pure lookup cache.  Runs whose
    decisions are served from it (``route_event``, the default) and runs
    whose every decision goes through the algorithm's reference
    ``route()`` must be bit-identical — per-cycle ejection series,
    results, and final RNG states — for every table-consuming
    algorithm, healthy and under faults.  The event kernel has no
    switch for this: the reference run rebinds ``route_event`` to
    ``route`` on its algorithm instance."""

    def _run_once(self, served, topo_factory, algo_cls, faults):
        algorithm = algo_cls()
        if not served:
            algorithm.route_event = algorithm.route
        sim = Simulator(
            topo_factory(),
            algorithm,
            UniformRandom(),
            SimulationConfig(seed=23, faults=faults),
            kernel="event",
        )
        assert algorithm._route_table is not None
        trace = ThroughputTrace(interval=1)
        sim.attach_tracer(trace)
        result = sim.run_open_loop(0.3, warmup=50, measure=80, drain_max=1500)
        sim.check_activation_invariants()
        assert sim._route_calls > 0
        return sim, trace.series, result

    @pytest.mark.parametrize(
        "topo_factory,algo_cls,faults",
        [c[1:] for c in ROUTE_TABLE_CONFIGS],
        ids=[c[0] for c in ROUTE_TABLE_CONFIGS],
    )
    def test_table_on_off_identical(self, topo_factory, algo_cls, faults):
        sim_on, series_on, res_on = self._run_once(
            True, topo_factory, algo_cls, faults
        )
        sim_off, series_off, res_off = self._run_once(
            False, topo_factory, algo_cls, faults
        )
        assert series_on == series_off
        assert res_on == res_off
        assert sim_on.packets_created == sim_off.packets_created
        assert sim_on.flits_ejected == sim_off.flits_ejected
        assert sim_on.route_rng.getstate() == sim_off.route_rng.getstate()
        assert sim_on.traffic_rng.getstate() == sim_off.traffic_rng.getstate()

    @pytest.mark.parametrize("case_id", [c[0] for c in ROUTE_TABLE_CONFIGS])
    def test_table_matches_polling_kernel(self, case_id):
        """The event kernel reproduces the fingerprint the polling
        kernel recorded while it routed every decision through the
        un-tabled ``route()`` path — a cross-check that the table and
        the original code compute the same function."""
        _assert_pinned(f"route_table/{case_id}")

    def test_table_shared_across_simulators(self):
        """One topology object yields one table, reused by every
        simulator (and algorithm instance) built on it."""
        topo = FlattenedButterfly(4, 2)
        algorithms = [MinimalAdaptive(), UGAL(), Valiant()]
        tables = set()
        for algorithm in algorithms:
            Simulator(topo, algorithm, UniformRandom(), SimulationConfig(seed=1))
            tables.add(id(algorithm._route_table))
        assert len(tables) == 1
        assert shared_route_table(topo) is algorithms[0]._route_table


#: Every faulted configuration above with the seed and load its pinned
#: run uses: (case name, topology factory, algorithm class, fault
#: model, seed, offered load).
FAULTED_RUNS = [
    (f"faulted/{case_id}", *config, 17, 0.25)
    for case_id, *config in FAULTED_CONFIGS
] + [
    (f"route_table/{case_id}", *config, 23, 0.3)
    for case_id, *config in ROUTE_TABLE_CONFIGS
    if config[2] is not None
]


class TestNoFlitOnFailedChannel:
    """The wire phase has no fault check: routing is the only place an
    output channel is chosen, so a fault-aware algorithm must never
    pick a failed one.  Every faulted configuration drains with zero
    flits carried on each failed channel."""

    @pytest.mark.parametrize(
        "topo_factory,algo_cls,faults,seed,load",
        [run[1:] for run in FAULTED_RUNS],
        ids=[run[0] for run in FAULTED_RUNS],
    )
    def test_failed_channels_carry_nothing(
        self, topo_factory, algo_cls, faults, seed, load
    ):
        sim = Simulator(
            topo_factory(),
            algo_cls(),
            UniformRandom(),
            SimulationConfig(seed=seed, faults=faults),
        )
        trace = ChannelLoadTrace()
        sim.attach_tracer(trace)
        result = sim.run_open_loop(load, warmup=50, measure=80, drain_max=1500)
        failed = sim.fault_set.failed_channels
        assert failed
        assert sum(trace.flits.values()) > 0
        assert {index: trace.flits[index] for index in failed} == dict.fromkeys(
            failed, 0
        )
        assert not result.saturated


def _starved_engine():
    sim = Simulator(
        FlattenedButterfly(4, 2),
        MinimalAdaptive(),
        UniformRandom(),
        SimulationConfig(seed=1),
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


class TestCreditStarvedWirePort:
    """Satellite: pin the wire phase's handling of a staged output
    port whose every VC is credit-starved — it stays in the staged set
    and sends nothing until a credit returns.  The ``polling``
    reference checks the port state against the one the polling
    kernel's wire phase left, pinned in the fingerprint file."""

    @pytest.mark.parametrize("reference", fingerprints.REFERENCES)
    def test_starved_port_stays_staged(self, reference):
        if reference == "polling":
            _assert_pinned("credit_starved/staged")
            return
        sim, engine, out, flit, saved = _starved_engine()
        engine.wire_event(0)
        assert list(out.staging[0]) == [flit]
        assert out in engine._staged_ports
        assert engine.router_id in sim._wire_engines
        assert not sim.pipes[out.channel_index].flits

    @pytest.mark.parametrize("reference", fingerprints.REFERENCES)
    def test_credit_return_releases_port(self, reference):
        if reference == "polling":
            _assert_pinned("credit_starved/released")
            return
        sim, engine, out, flit, saved = _starved_engine()
        engine.wire_event(0)
        out.credits[0] = saved[0]
        engine.wire_event(1)
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


# ----------------------------------------------------------------------
# Committed fingerprints: exact output pinned to data
# ----------------------------------------------------------------------


def _run_batch():
    sim = Simulator(
        FlattenedButterfly(4, 2),
        MinimalAdaptive(),
        UniformRandom(),
        SimulationConfig(seed=3, packet_size=2),
    )
    return sim, None, sim.run_batch(4)


def _run_idle(seed, interval):
    """A near-idle run, so the event kernel skips quiescent cycles."""
    sim = Simulator(
        FlattenedButterfly(4, 2),
        MinimalAdaptive(),
        UniformRandom(),
        SimulationConfig(seed=seed),
    )
    trace = None
    if interval is not None:
        trace = ThroughputTrace(interval=interval)
        sim.attach_tracer(trace)
    result = sim.run_open_loop(0.005, warmup=200, measure=300, drain_max=5000)
    return sim, None if trace is None else trace.series, result


def _wire_outcome(release):
    """State of a credit-starved staged port after ``wire_event(0)``
    (and, with ``release``, a returned credit and ``wire_event(1)``)."""
    sim, engine, out, flit, saved = _starved_engine()
    engine.wire_event(0)
    if release:
        out.credits[0] = saved[0]
        engine.wire_event(1)
    return {
        "staging": [len(queue) for queue in out.staging],
        "port_staged": out in engine._staged_ports,
        "wire_active": engine.router_id in sim._wire_engines,
        "pipe_flits": [
            [arrival, vc] for arrival, _, vc in sim.pipes[out.channel_index].flits
        ],
        "credits": list(out.credits),
    }


def _pinned_cases():
    """``{case name: thunk returning its record}`` for every pinned
    configuration of this module."""

    def pin(run, *args):
        return lambda: fingerprints.run_record(*run(*args))

    cases = {}
    for case, case_id in zip(MATRIX, MATRIX_IDS):
        cases[f"matrix/{case_id}"] = pin(_run, *case)
    for (topo, algo, *rest), case_id in zip(TOPO_MATRIX, TOPO_IDS):
        cases[f"topology/{case_id}"] = pin(
            _run_topology, topo, ALGORITHMS[algo], *rest
        )
    for (topo, *rest), case_id in zip(CLOS_AD_CASES, CLOS_AD_IDS):
        cases[f"clos_ad/{case_id}"] = pin(_run_topology, topo, ClosAD, *rest)
    for case_id, *config in FAULTED_CONFIGS:
        cases[f"faulted/{case_id}"] = pin(_run_faulted, *config)
    for case_id, *config in ROUTE_TABLE_CONFIGS:
        cases[f"route_table/{case_id}"] = pin(_run_route_table, *config)
    cases["batch/fb4-min_ad-p2"] = pin(_run_batch)
    cases["idle_skip/s2"] = pin(_run_idle, 2, None)
    cases["idle_skip/s9-trace10"] = pin(_run_idle, 9, 10)
    for streams in ("legacy", "mixed"):
        cases[f"streams/{streams}"] = pin(
            _run, (4, 2), "min_ad", "ur", 0.3, 1, 11, streams
        )
    cases["credit_starved/staged"] = lambda: _wire_outcome(False)
    cases["credit_starved/released"] = lambda: _wire_outcome(True)
    return cases


PINNED_CASES = _pinned_cases()


def _all_pinned_cases():
    from tests.test_profiling import PINNED_CASES as PROFILING_CASES
    from tests.test_workloads import PINNED_CASES as WORKLOAD_CASES

    return {**PINNED_CASES, **WORKLOAD_CASES, **PROFILING_CASES}


class TestExactFingerprints:
    def test_cases_match_file(self):
        """Every pinned case has a committed record and vice versa (the
        per-case comparisons live in the tests above and in
        test_workloads.py / test_profiling.py)."""
        assert sorted(fingerprints.load()) == sorted(_all_pinned_cases())


if __name__ == "__main__":
    fingerprints.write(
        {name: case() for name, case in _all_pinned_cases().items()}
    )
