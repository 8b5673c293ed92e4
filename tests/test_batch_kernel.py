"""Statistical equivalence and contract tests for the batch kernel.

The vectorized batch backend (``repro.network.batch``) is validated
*statistically* against the event kernel: over matched families of
N >= 20 independent replicas, the 95% confidence intervals of mean
latency and accepted throughput must overlap (see
``tests/statcheck.py``) for every supported (topology, algorithm)
cell of the equivalence matrix, at loads below the saturation knee.

Also covered: exact per-run packet conservation, the canonical
replica-seed family (pinned values, cross-path agreement), the
unsupported-feature ``NotImplementedError`` envelope, kernel
selection plumbing, and exact output pinned to the committed
fingerprints in ``tests/golden/batch_fingerprints.json``.
"""

import dataclasses
import json
import os

import pytest

np = pytest.importorskip("numpy")

from repro.core import (
    ClosAD,
    DimensionOrder,
    MinimalAdaptive,
    UGAL,
    UGALSequential,
    Valiant,
)
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.experiments import ext_resilience
from repro.faults import FaultAwareMinimalAdaptive, FaultModel
from repro.network import (
    KERNELS,
    SimulationConfig,
    Simulator,
    replica_seeds,
    resolve_kernel,
)
from repro.network.batch import (
    _KEY_MAJOR_BOUND,
    INJECTION_CHUNK,
    BatchBackend,
    BatchRunResult,
    supported_algorithms,
    unsupported_reason,
)
from repro.network.config import derive_seed
from repro.network.workload import WorkloadSpec
from repro.topologies import Butterfly, FoldedClos
from repro.topologies.routing import DestinationTag, FoldedClosAdaptive
from repro.traffic import RandomPermutation, UniformRandom, adversarial

from tests.statcheck import assert_statistically_equal

#: Replicas per side of each statistical comparison.
N_REPLICAS = 20

#: Measurement window of the statistical matrix: short enough to keep
#: the matrix fast, long enough that per-replica means are stable (the
#: CI machinery absorbs the residual noise).
WARMUP, MEASURE, DRAIN = 300, 400, 4000

#: The equivalence matrix: every supported algorithm family on its
#: home topology, below saturation.  The non-minimal families (UGAL at
#: three loads spanning quiet to near-knee, UGAL-S, VAL) exercise the
#: vectorized Valiant-intermediate draw, the credit-lagged UGAL
#: compare, and the sequential-wave emulation.
MATRIX = [
    ("dor-fb", lambda: FlattenedButterfly(4, 2), DimensionOrder, 0.3),
    ("minad-fb", lambda: FlattenedButterfly(4, 3), MinimalAdaptive, 0.3),
    ("dtag-butterfly", lambda: Butterfly(4, 2), DestinationTag, 0.3),
    ("clos-ad", lambda: FoldedClos(16, 4), FoldedClosAdaptive, 0.3),
    ("ugal-fb-quiet", lambda: FlattenedButterfly(4, 2), UGAL, 0.15),
    ("ugal-fb-mid", lambda: FlattenedButterfly(4, 2), UGAL, 0.3),
    ("ugal-fb-busy", lambda: FlattenedButterfly(4, 2), UGAL, 0.45),
    ("ugal-s-fb", lambda: FlattenedButterfly(4, 2), UGALSequential, 0.3),
    ("val-fb", lambda: FlattenedButterfly(4, 2), Valiant, 0.2),
]


def _event_replicas(make_topo, algorithm_cls, load, seeds):
    results = []
    for seed in seeds:
        sim = Simulator(
            make_topo(), algorithm_cls(), UniformRandom(),
            SimulationConfig(seed=seed), kernel="event",
        )
        results.append(sim.run_open_loop(
            load, warmup=WARMUP, measure=MEASURE, drain_max=DRAIN
        ))
    return results


def _batch_replicas(make_topo, algorithm_cls, load, seeds):
    sim = Simulator(
        make_topo(), algorithm_cls(), UniformRandom(),
        SimulationConfig(seed=seeds[0]), kernel="batch",
    )
    return sim.run_open_loop_grid(
        [load], seeds=seeds, warmup=WARMUP, measure=MEASURE, drain_max=DRAIN
    )[0]


class TestStatisticalMatrix:
    @pytest.mark.parametrize(
        "name,make_topo,algorithm_cls,load",
        MATRIX,
        ids=[row[0] for row in MATRIX],
    )
    def test_matches_event_kernel(self, name, make_topo, algorithm_cls, load):
        seeds = replica_seeds(1234, N_REPLICAS)
        event = _event_replicas(make_topo, algorithm_cls, load, seeds)
        batch = _batch_replicas(make_topo, algorithm_cls, load, seeds)
        assert len(batch) == N_REPLICAS
        assert not any(r.saturated for r in event), (
            f"{name}: load {load} saturates the event kernel; the "
            f"statistical comparison is only valid below the knee"
        )
        assert not any(r.saturated for r in batch)
        assert_statistically_equal(
            [r.latency.mean for r in event],
            [r.latency.mean for r in batch.results],
            f"{name}: mean latency",
        )
        assert_statistically_equal(
            [r.accepted_throughput for r in event],
            [r.accepted_throughput for r in batch.results],
            f"{name}: accepted throughput",
        )
        assert_statistically_equal(
            [r.mean_hops for r in event],
            [r.mean_hops for r in batch.results],
            f"{name}: mean hops",
        )

    def test_conservation_exact(self):
        seeds = replica_seeds(55, 8)
        batch = _batch_replicas(
            lambda: FlattenedButterfly(4, 2), DimensionOrder, 0.4, seeds
        )
        for b in range(len(batch)):
            created = batch.packets_created[b]
            delivered = batch.packets_delivered[b]
            in_flight = batch.packets_in_flight[b]
            dropped = batch.packets_dropped[b]
            assert created == delivered + in_flight + dropped
            assert dropped == 0
            assert 0 <= delivered <= created
            result = batch.results[b]
            assert result.kernel.kernel == "batch"
            assert result.packets_delivered == delivered
            if not result.saturated:
                # A drained run observed every labeled packet eject.
                assert result.latency.count == result.packets_labeled
                assert result.packets_labeled > 0

    def test_batch_result_metadata(self):
        seeds = replica_seeds(9, 3)
        batch = _batch_replicas(
            lambda: FlattenedButterfly(4, 2), DimensionOrder, 0.2, seeds
        )
        assert isinstance(batch, BatchRunResult)
        assert batch.seeds == seeds
        assert batch.offered_load == 0.2
        assert (batch.warmup, batch.measure) == (WARMUP, MEASURE)
        assert list(batch) == batch.results
        assert batch.wall_seconds > 0
        for result in batch:
            assert result.cycles >= WARMUP + MEASURE
            assert result.kernel.events_dispatched > 0
            assert result.kernel.route_calls > 0

    def test_saturation_batch_matches_event(self):
        seeds = replica_seeds(77, N_REPLICAS)
        event = []
        for seed in seeds:
            sim = Simulator(
                FlattenedButterfly(4, 2), DimensionOrder(), UniformRandom(),
                SimulationConfig(seed=seed), kernel="event",
            )
            event.append(sim.measure_saturation_throughput(WARMUP, MEASURE))
        sim = Simulator(
            FlattenedButterfly(4, 2), DimensionOrder(), UniformRandom(),
            SimulationConfig(seed=seeds[0]), kernel="batch",
        )
        batch = sim.measure_saturation_throughput_batch(
            seeds=seeds, warmup=WARMUP, measure=MEASURE
        )
        assert len(batch) == N_REPLICAS
        assert_statistically_equal(
            event, batch, "saturation throughput", rel_slack=0.03
        )


class TestSeedFamily:
    def test_replica_seeds_pinned(self):
        # Pinned literals: any change to the derivation silently
        # decouples batch replicas from event-kernel replicas, so the
        # family is frozen here byte-for-byte.
        assert replica_seeds(1, 4) == (
            1,
            11340906639259149990,
            8148806329698258183,
            15378539652167375039,
        )
        assert replica_seeds(7, 3) == (
            7,
            11732661365298342040,
            2918442744165200352,
        )

    def test_replica_zero_is_base_seed(self):
        assert replica_seeds(42, 1) == (42,)
        assert replica_seeds(42, 5)[0] == 42

    def test_matches_derive_seed_family(self):
        base = 1234
        family = replica_seeds(base, 6)
        for i in range(1, 6):
            assert family[i] == derive_seed(base, "replica", i)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            replica_seeds(1, 0)

    def test_simulator_replicas_use_canonical_family(self):
        sim = Simulator(
            FlattenedButterfly(2, 2), DimensionOrder(), UniformRandom(),
            SimulationConfig(seed=31), kernel="batch",
        )
        batch = sim.run_open_loop_grid(
            [0.2], replicas=3, warmup=50, measure=80, drain_max=1000
        )[0]
        assert batch.seeds == replica_seeds(31, 3)

    def test_ext_resilience_traffic_seeds_rebased(self):
        # The seed-coupling fix: ext_resilience replicas must draw
        # their traffic stream from the same canonical family as every
        # other replication path (they historically used a private
        # "resilience-replica" stream).
        assert ext_resilience.replica_seeds(0) == (
            1, ext_resilience.FAULT_SEED
        )
        for replica in range(1, 4):
            traffic_seed, fault_seed = ext_resilience.replica_seeds(replica)
            assert traffic_seed == replica_seeds(1, replica + 1)[replica]
            assert fault_seed == derive_seed(
                ext_resilience.FAULT_SEED, "fault-replica", replica
            )
        # Replicas stay pairwise distinct on both streams.
        drawn = [ext_resilience.replica_seeds(r) for r in range(4)]
        assert len({t for t, _ in drawn}) == 4
        assert len({f for _, f in drawn}) == 4


class TestUnsupportedFeatures:
    def _sim(self, algorithm=None, pattern=None, config=None, topo=None):
        return Simulator(
            topo or FlattenedButterfly(4, 2),
            algorithm or DimensionOrder(),
            pattern or UniformRandom(),
            config or SimulationConfig(seed=1),
            kernel="batch",
        )

    def test_clos_ad_raises_cleanly(self):
        # The core two-phase CLOS AD is the one remaining fig04
        # algorithm without a dense-array program; its refusal must
        # name the registry-derived supported set and the fallback.
        sim = self._sim(algorithm=ClosAD())
        with pytest.raises(NotImplementedError) as excinfo:
            sim.run_open_loop_grid(
                [0.2], replicas=2, warmup=50, measure=50, drain_max=1000
            )
        message = str(excinfo.value)
        assert "CLOS AD" in message
        assert "use kernel='event'" in message
        for name in supported_algorithms():
            assert name in message

    def test_supported_algorithms_derived_from_registry(self):
        names = supported_algorithms()
        assert names == tuple(sorted(names))
        for name in ("DOR", "MIN AD", "UGAL", "UGAL-S", "VAL"):
            assert name in names

    def test_unsupported_reason_probe(self):
        # The sweep-layer probe agrees with what run time raises,
        # without compiling anything.
        assert unsupported_reason(algorithm=UGAL()) is None
        assert unsupported_reason(pattern=UniformRandom()) is None
        reason = unsupported_reason(algorithm=ClosAD())
        assert "use kernel='event'" in reason
        reason = unsupported_reason(pattern=RandomPermutation())
        assert "use kernel='event'" in reason
        reason = unsupported_reason(
            config=SimulationConfig(seed=1, packet_size=2)
        )
        assert "single-flit" in reason

    def test_multiflit_packets_raise(self):
        sim = self._sim(config=SimulationConfig(seed=1, packet_size=4))
        with pytest.raises(NotImplementedError, match="single-flit"):
            sim.run_open_loop_grid(
                [0.2], replicas=2, warmup=50, measure=50, drain_max=1000
            )

    def test_faults_raise(self):
        # A fault-aware algorithm gets past the Simulator's own
        # fault-awareness check; the batch backend must then refuse
        # the non-trivial fault model itself.
        from repro.faults import FaultAwareMinimalAdaptive

        config = SimulationConfig(
            seed=1, faults=FaultModel(link_failure_fraction=0.05)
        )
        sim = self._sim(
            algorithm=FaultAwareMinimalAdaptive(), config=config
        )
        with pytest.raises(NotImplementedError, match="fault"):
            sim.run_open_loop_grid(
                [0.2], replicas=2, warmup=50, measure=50, drain_max=1000
            )

    def test_unsupported_pattern_raises(self):
        sim = self._sim(pattern=RandomPermutation())
        with pytest.raises(NotImplementedError, match="pattern"):
            sim.run_open_loop_grid(
                [0.2], replicas=2, warmup=50, measure=50, drain_max=1000
            )

    def test_unequal_group_shift_refused(self):
        # Every topology the batch kernel routes gives each router the
        # same number of terminals, so group-shift groups are equal and
        # one scalar bound draws every destination...
        from repro.topologies import (
            GeneralizedHypercube, Hypercube, HyperX, Torus,
        )

        for topo in (
            FlattenedButterfly(4, 2), FlattenedButterfly(2, 3),
            HyperX(concentration=2, dims=(3, 3), multiplicity=(2, 2)),
            GeneralizedHypercube((3, 4)), Hypercube(3), Torus((4, 4)),
            Butterfly(2, 3), FoldedClos(16, 4),
        ):
            pattern = adversarial()
            pattern.bind(topo)
            assert len({len(g) for g in pattern._groups}) == 1, topo
        # ...and a grouping of unequal sizes is refused, not misdrawn.
        backend = BatchBackend(
            FlattenedButterfly(4, 2), DimensionOrder(), adversarial()
        )
        lopsided = FlattenedButterfly(4, 2)
        lopsided.injection_router = lambda t: int(t >= 3)
        pattern = adversarial()
        pattern.bind(lopsided)
        with pytest.raises(NotImplementedError) as excinfo:
            backend._compile_pattern(pattern)
        message = str(excinfo.value)
        assert "unequal sizes [3, 13]" in message
        assert "use kernel='event'" in message

    def test_run_batch_not_supported(self):
        with pytest.raises(NotImplementedError):
            self._sim().run_batch(4)

    def test_event_kernel_rejects_batch_methods(self):
        sim = Simulator(
            FlattenedButterfly(2, 2), DimensionOrder(), UniformRandom(),
            SimulationConfig(seed=1), kernel="event",
        )
        with pytest.raises(ValueError, match="kernel"):
            sim.run_open_loop_grid([0.2], replicas=2)

    def test_batch_kernel_refuses_event_methods(self):
        """A batch simulator builds no event routers or pipes, and each
        method that drives or inspects them refuses, naming the kernel,
        while its batched runs still work."""
        from repro.network import ChannelLoadTrace

        sim = self._sim()
        assert not hasattr(sim, "engines") and not hasattr(sim, "pipes")
        calls = {
            "step": sim.step,
            "attach_tracer": lambda: sim.attach_tracer(ChannelLoadTrace()),
            "flits_accounted": sim.flits_accounted,
            "check_activation_invariants": sim.check_activation_invariants,
            "quiescent": sim.quiescent,
        }
        for method, call in calls.items():
            with pytest.raises(ValueError) as excinfo:
                call()
            message = str(excinfo.value)
            assert f"{method}()" in message
            assert "kernel='batch'" in message
        result = sim.run_open_loop(0.2, warmup=50, measure=50,
                                   drain_max=1000)
        assert not result.saturated

    def test_replicas_xor_seeds(self):
        with pytest.raises(ValueError, match="exactly one"):
            self._sim().run_open_loop_grid([0.2])
        with pytest.raises(ValueError, match="exactly one"):
            self._sim().run_open_loop_grid([0.2], replicas=2, seeds=(1, 2))

    def test_drain_max_validation(self):
        with pytest.raises(ValueError, match="drain_max"):
            self._sim().run_open_loop_grid(
                [0.2], replicas=2, warmup=100, measure=100, drain_max=200
            )

    def test_grid_beyond_sort_key_bound_refused(self):
        """runs x queues must fit the packed sort key's 31-bit major: a
        grid one load past the bound on the paper's 32-ary 2-flat is
        refused up front, and the refusal leaves the backend unused."""
        backend = BatchBackend(
            FlattenedButterfly(32, 2), UGAL(), UniformRandom(),
            SimulationConfig(seed=1),
        )
        queues = backend.program.C + backend.program.T
        seeds = tuple(range(1024))
        loads = [0.5] * (_KEY_MAJOR_BOUND // (queues * len(seeds)) + 1)
        assert len(loads) * len(seeds) * queues >= _KEY_MAJOR_BOUND
        with pytest.raises(ValueError, match="runs x 2016 queues"):
            backend.run_load_grid(
                loads, seeds, warmup=10, measure=10, drain_max=100
            )
        batch, = backend.run_load_grid([0.1], (1,), warmup=5, measure=5,
                                       drain_max=100)
        assert not batch.results[0].saturated

    def test_backend_single_use(self):
        backend = BatchBackend(
            FlattenedButterfly(2, 2), DimensionOrder(), UniformRandom(),
            SimulationConfig(seed=1),
        )
        backend.run_load_grid([0.2], (1, 2), warmup=50, measure=50,
                              drain_max=1000)
        with pytest.raises(RuntimeError, match="already executed"):
            backend.run_load_grid([0.2], (1, 2), warmup=50, measure=50,
                                  drain_max=1000)


#: ``SimulationConfig`` fields the batch kernel models, each with a
#: non-default value that must move its output.
BATCH_MODELLED = {
    "channel_latency": 3,
    "credit_latency": 4,
    "channel_period": 2,
    "seed": 2,
}

#: Fields whose values outside the batch envelope are refused: the
#: value probed and the pinned refusal text.
BATCH_REFUSED = {
    "packet_size": (2, "multi-flit packets: use kernel='event'"),
    "faults": (
        FaultModel(link_failure_fraction=0.05),
        "fault injection: use kernel='event'",
    ),
    "workload": (
        WorkloadSpec.of("permutation_churn", load=0.2),
        "cannot run the workload 'permutation-churn'",
    ),
}

#: Fields the batch kernel ignores, each with a non-default value that
#: must leave its output alone; docs/BATCH.md lists each as a gap.
BATCH_GAPS = {"buffer_per_port": 8, "rng_streams": "mixed"}


def _inventory_run(config):
    # UGAL reads the credit-lagged occupancy estimate; a fault-aware
    # algorithm gets a faulted config past the Simulator's own check,
    # so the batch backend's refusal is what is probed.
    sim = Simulator(
        FlattenedButterfly(4, 2),
        FaultAwareMinimalAdaptive() if config.faults else UGAL(),
        None if config.workload else UniformRandom(), config,
        kernel="batch",
    )
    window = dict(warmup=50, measure=50, drain_max=1000)
    if config.workload is not None:
        return sim.run_workload(**window)
    return sim.run_open_loop(0.4, **window)


class TestConfigInventory:
    """Every ``SimulationConfig`` field is modelled, refused or a
    documented gap under ``kernel='batch'`` — exactly one of them."""

    def test_every_field_in_exactly_one_class(self):
        classes = (set(BATCH_MODELLED), set(BATCH_REFUSED), set(BATCH_GAPS))
        fields = [f.name for f in dataclasses.fields(SimulationConfig)]
        for name in fields:
            owners = [c for c in classes if name in c]
            assert len(owners) == 1, (
                f"SimulationConfig.{name} needs exactly one batch-kernel "
                f"class (modelled, refused or gap), has {len(owners)}"
            )
        assert set().union(*classes) == set(fields)

    @pytest.mark.parametrize("name", sorted(BATCH_MODELLED))
    def test_modelled_field_moves_the_result(self, name):
        default = _fingerprint(_inventory_run(SimulationConfig()))
        changed = SimulationConfig(**{name: BATCH_MODELLED[name]})
        assert _fingerprint(_inventory_run(changed)) != default

    @pytest.mark.parametrize("name", sorted(BATCH_REFUSED))
    def test_refusal_pinned(self, name):
        value, message = BATCH_REFUSED[name]
        config = SimulationConfig(**{name: value})
        with pytest.raises(NotImplementedError, match=message) as refusal:
            _inventory_run(config)
        # The up-front probe gives the same refusal, without a run.
        assert unsupported_reason(config=config) == str(refusal.value)

    @pytest.mark.parametrize("name", sorted(BATCH_GAPS))
    def test_gap_leaves_the_result_alone(self, name):
        # What makes a gap a gap: the field is silently ignored, so
        # it must be documented.
        default = _fingerprint(_inventory_run(SimulationConfig()))
        changed = SimulationConfig(**{name: BATCH_GAPS[name]})
        assert _fingerprint(_inventory_run(changed)) == default

    def test_docs_table_matches(self):
        path = os.path.join(os.path.dirname(__file__), "..", "docs", "BATCH.md")
        with open(path) as handle:
            text = handle.read()
        section = text.split("### `SimulationConfig` fields", 1)[1]
        section = section.split("\n#", 1)[0]
        documented = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                field, treatment = line.split("|")[1:3]
                documented[field.strip().strip("`")] = (
                    treatment.split()[0].rstrip(":")
                )
        expected = {name: "modelled" for name in BATCH_MODELLED}
        expected.update({name: "refused" for name in BATCH_REFUSED})
        expected.update({name: "gap" for name in BATCH_GAPS})
        assert documented == expected


class TestKernelSelection:
    def test_batch_in_kernels(self):
        assert "batch" in KERNELS

    def test_resolve(self):
        assert resolve_kernel("batch") == "batch"
        assert resolve_kernel(None) == "event"

    def test_single_seed_dispatch(self):
        """``run_open_loop`` on a batch-kernel simulator is the B=1
        reshape of the batched path: an ordinary OpenLoopResult."""
        sim = Simulator(
            FlattenedButterfly(2, 2), DimensionOrder(), UniformRandom(),
            SimulationConfig(seed=3), kernel="batch",
        )
        result = sim.run_open_loop(0.2, warmup=50, measure=80,
                                   drain_max=1000)
        assert result.kernel.kernel == "batch"
        assert result.latency.count > 0


# ----------------------------------------------------------------------
# Whole-load-grid lockstep stepping
# ----------------------------------------------------------------------

GRID_LOADS = (0.1, 0.3, 0.5)
GRID_SEEDS = replica_seeds(21, 4)


def _grid_sim(algorithm_cls):
    return Simulator(
        FlattenedButterfly(4, 2), algorithm_cls(), UniformRandom(),
        SimulationConfig(seed=GRID_SEEDS[0]), kernel="batch",
    )


def _grid_sim_on(topology, algorithm_cls):
    """:func:`_grid_sim` taking the topology first, so a spec can carry
    it as a warm-cacheable sub-spec."""
    return Simulator(
        topology, algorithm_cls(), UniformRandom(),
        SimulationConfig(seed=GRID_SEEDS[0]), kernel="batch",
    )


def _fingerprint(result):
    """Every observable of one per-seed OpenLoopResult, exactly."""
    return (
        result.offered_load,
        result.accepted_throughput,
        result.latency.mean,
        result.latency.count,
        result.mean_hops,
        result.saturated,
        result.cycles,
        result.packets_labeled,
        result.packets_delivered,
    )


class TestLoadGrid:
    @pytest.mark.parametrize(
        "algorithm_cls", [DimensionOrder, UGAL, UGALSequential, Valiant],
        ids=["dor", "ugal", "ugal-s", "val"],
    )
    def test_grid_bit_identical_to_pointwise(self, algorithm_cls):
        """Per-run state and RNG streams are fully independent across
        the batch axis, so one (load x seed) lockstep grid must be
        bit-identical to running each load as its own batch."""
        grid = _grid_sim(algorithm_cls).run_open_loop_grid(
            list(GRID_LOADS), seeds=GRID_SEEDS,
            warmup=WARMUP, measure=MEASURE, drain_max=DRAIN,
        )
        assert len(grid) == len(GRID_LOADS)
        for load, batch in zip(GRID_LOADS, grid):
            pointwise = _grid_sim(algorithm_cls).run_open_loop_grid(
                [load], seeds=GRID_SEEDS,
                warmup=WARMUP, measure=MEASURE, drain_max=DRAIN,
            )[0]
            assert batch.offered_load == load
            assert batch.seeds == GRID_SEEDS
            assert len(batch.results) == len(GRID_SEEDS)
            for a, b in zip(batch.results, pointwise.results):
                assert _fingerprint(a) == _fingerprint(b)

    def test_grid_metadata(self):
        grid = _grid_sim(DimensionOrder).run_open_loop_grid(
            [0.2, 0.4], seeds=GRID_SEEDS[:2],
            warmup=50, measure=80, drain_max=1000,
        )
        assert [b.offered_load for b in grid] == [0.2, 0.4]
        for b in grid:
            assert (b.warmup, b.measure) == (50, 80)
            assert b.wall_seconds > 0

    def test_grid_cache_interchangeable_with_pointwise(self, tmp_path):
        """run_batch_grid fills the same per-point BatchOpenLoopJob
        cache entries a pointwise sweep would: after one grid run,
        every per-point probe is a hit, and a re-run executes no
        jobs."""
        from repro.runner import (
            BatchOpenLoopJob,
            ResultCache,
            SimSpec,
            SweepRunner,
            run_batch_grid,
        )

        spec = SimSpec.of(_grid_sim, UGAL)
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(jobs=1, cache=cache)
        first = run_batch_grid(
            spec, GRID_LOADS, GRID_SEEDS, WARMUP, MEASURE, DRAIN,
            runner=runner,
        )
        for load, batch in zip(GRID_LOADS, first):
            job = BatchOpenLoopJob(
                spec, load, GRID_SEEDS, WARMUP, MEASURE, DRAIN
            )
            hit, value = cache.get(job)
            assert hit
            for a, b in zip(value.results, batch.results):
                assert _fingerprint(a) == _fingerprint(b)
        again = run_batch_grid(
            spec, GRID_LOADS, GRID_SEEDS, WARMUP, MEASURE, DRAIN,
            runner=SweepRunner(jobs=1, cache=cache),
        )
        for a, b in zip(first, again):
            for ra, rb in zip(a.results, b.results):
                assert _fingerprint(ra) == _fingerprint(rb)


    def test_grid_stores_only_per_point_entries(self, tmp_path):
        """A cold grid leaves one cache entry and one miss per load (the
        grid itself is never stored), and a warm rerun through a fresh
        runner and cache object hits every point and executes none."""
        from repro.runner import ResultCache, SimSpec, SweepRunner, run_batch_grid

        spec = SimSpec.of(_grid_sim, UGAL)
        window = (GRID_LOADS, GRID_SEEDS, 50, 50, 500)
        cache = ResultCache(str(tmp_path))
        cold = SweepRunner(jobs=1, cache=cache)
        run_batch_grid(spec, *window, runner=cold)
        n = len(GRID_LOADS)
        assert len(cache) == n
        assert cache.persisted_counters() == {"hits": 0, "misses": n}
        assert (cold.report.total, cold.report.executed) == (n, n)

        warm = SweepRunner(jobs=1, cache=ResultCache(str(tmp_path)))
        run_batch_grid(spec, *window, runner=warm)
        assert len(cache) == n
        assert cache.persisted_counters() == {"hits": n, "misses": n}
        assert (warm.report.cache_hits, warm.report.executed) == (n, 0)

    def test_cold_grid_reports_its_builds(self):
        """A grid folds its construction counters into the sweep
        report: with the warm cache emptied, a cold grid on a fresh
        runner builds its simulator, topology and route table."""
        from repro.runner import (
            SimSpec, SweepRunner, clear_warm_cache, run_batch_grid,
        )

        spec = SimSpec.of(_grid_sim_on, UGAL).with_topology(
            FlattenedButterfly, 4, 2
        )
        clear_warm_cache()
        runner = SweepRunner(jobs=1)
        run_batch_grid(spec, GRID_LOADS, GRID_SEEDS[:2], 50, 50, 500,
                       runner=runner)
        report = runner.report
        assert report.sim_builds == 1
        assert report.topology_builds >= 1
        assert report.route_table_builds >= 1
        assert "0 topologies" not in report.summary()

    def test_fig04_footer_counts_batch_work(self):
        """fig04 under the batch kernel reports what its grids built and
        one replicated metric per (algorithm, pattern) saturation probe,
        as its event-kernel run does."""
        from repro.experiments import fig04_routing
        from repro.experiments.common import Scale
        from repro.runner import SweepRunner, clear_warm_cache

        scale = Scale(name="tiny", fb_k=4, loads=(0.2,), warmup=30,
                      measure=30, drain_max=500, batch_sizes=(1,),
                      design_study_n=16)
        clear_warm_cache()
        runner = SweepRunner(jobs=1)
        fig04_routing.run(scale, runner=runner, kernel="batch", replicas=2)
        report = runner.report
        assert report.topology_builds >= 1
        assert report.route_table_builds >= 1
        assert report.replicated_metrics == 2 * len(
            fig04_routing.BATCH_ALGORITHMS
        )
        assert "replicated metrics" in report.summary()


# ----------------------------------------------------------------------
# Committed fingerprints: exact batch output pinned to data
# ----------------------------------------------------------------------

#: Exact per-run output of every case below.  Regenerate (only after an
#: intentional, numerically-understood change to the batch kernel) with
#: ``PYTHONPATH=src python -m tests.test_batch_kernel``.
GOLDEN_FINGERPRINTS = os.path.join(
    os.path.dirname(__file__), "golden", "batch_fingerprints.json"
)

#: Short windows: the check is exact, so there is no noise to average
#: away, and a few hundred cycles reach every code path (injection,
#: adaptive decisions, FIFO ties, drain).
PIN_WARMUP, PIN_MEASURE, PIN_DRAIN = 60, 80, 1200
PIN_SEEDS = replica_seeds(1234, 4)

#: Every supported algorithm family on its home topology, at loads
#: that keep the short windows below saturation, under uniform traffic
#: unless a pattern is given.  On a k-ary 2-flat every minimal route
#: has one candidate, so UGAL's minimal pick never reads its tie-break
#: uniforms; the 3-flat rows have two-candidate rows and do.
PIN_MATRIX = [
    ("dor-fb", lambda: FlattenedButterfly(4, 2), DimensionOrder, 0.4),
    ("minad-fb", lambda: FlattenedButterfly(4, 3), MinimalAdaptive, 0.3),
    ("dtag-butterfly", lambda: Butterfly(4, 2), DestinationTag, 0.3),
    ("clos-ad", lambda: FoldedClos(16, 4), FoldedClosAdaptive, 0.3),
    ("ugal-fb", lambda: FlattenedButterfly(4, 2), UGAL, 0.45),
    ("ugal-s-fb", lambda: FlattenedButterfly(4, 2), UGALSequential, 0.3),
    ("val-fb", lambda: FlattenedButterfly(4, 2), Valiant, 0.2),
    ("ugal-fb3", lambda: FlattenedButterfly(4, 3), UGAL, 0.4),
    ("ugal-s-fb3", lambda: FlattenedButterfly(4, 3), UGALSequential, 0.3),
    ("ugal-wc-fb3", lambda: FlattenedButterfly(4, 3), UGAL, 0.25,
     adversarial),
]

#: These rows also run past two injection chunks: every combination of
#: the non-minimal and adaptive per-packet columns, and the waves.
MULTICHUNK_CASES = (
    "dor-fb", "clos-ad", "ugal-fb", "ugal-s-fb", "val-fb", "ugal-fb3",
    "ugal-s-fb3", "ugal-wc-fb3",
)


def _pin_sim(make_topo, algorithm_cls, make_pattern=UniformRandom):
    return Simulator(
        make_topo(), algorithm_cls(), make_pattern(),
        SimulationConfig(seed=PIN_SEEDS[0]), kernel="batch",
    )


def _batch_fingerprint(batch):
    return {
        "runs": [list(_fingerprint(r)) for r in batch.results],
        "created": list(batch.packets_created),
        "delivered": list(batch.packets_delivered),
    }


def _pinned_cases():
    """``{case name: thunk}``: each row pointwise and as a three-load
    grid, one saturation probe, and one overloaded run cut off at
    ``drain_max``."""
    window = dict(
        seeds=PIN_SEEDS, warmup=PIN_WARMUP, measure=PIN_MEASURE,
        drain_max=PIN_DRAIN,
    )
    cases = {}
    for name, *row in PIN_MATRIX:
        def pointwise(row=row):
            make_topo, cls, load, *pattern = row
            return _batch_fingerprint(
                _pin_sim(make_topo, cls, *pattern).run_open_loop_grid(
                    [load], **window
                )[0]
            )

        def grid(row=row):
            make_topo, cls, load, *pattern = row
            loads = [load / 3, 2 * load / 3, load]
            return [
                _batch_fingerprint(batch)
                for batch in _pin_sim(make_topo, cls, *pattern)
                .run_open_loop_grid(loads, **window)
            ]

        cases[f"pointwise/{name}"] = pointwise
        cases[f"grid/{name}"] = grid

    def saturation():
        return _pin_sim(
            lambda: FlattenedButterfly(4, 2), UGAL
        ).measure_saturation_throughput_batch(
            seeds=replica_seeds(9, 3), warmup=80, measure=120
        )

    def drain_cutoff():
        return _batch_fingerprint(
            _pin_sim(lambda: FlattenedButterfly(4, 2), UGAL
                     ).run_open_loop_grid(
                [0.9], seeds=replica_seeds(7, 3), warmup=60, measure=80,
                drain_max=160,
            )[0]
        )

    cases["saturation/ugal-fb"] = saturation
    cases["drain-cutoff/ugal-fb"] = drain_cutoff

    # Long windows: the packets in flight at each INJECTION_CHUNK
    # boundary keep reading their per-packet draws after the next chunk
    # is drawn.
    multichunk = dict(window, warmup=300, measure=300, drain_max=3000)
    assert multichunk["warmup"] + multichunk["measure"] > 2 * INJECTION_CHUNK
    for name, *row in PIN_MATRIX:
        if name not in MULTICHUNK_CASES:
            continue

        def long_run(row=row):
            make_topo, cls, load, *pattern = row
            return _batch_fingerprint(
                _pin_sim(make_topo, cls, *pattern).run_open_loop_grid(
                    [load], **multichunk
                )[0]
            )

        cases[f"multichunk/{name}"] = long_run
    return cases


PINNED_CASES = _pinned_cases()


def _load_golden():
    with open(GOLDEN_FINGERPRINTS) as handle:
        return json.load(handle)


class TestGoldenFingerprints:
    def test_cases_match_file(self):
        assert sorted(_load_golden()) == sorted(PINNED_CASES)

    @pytest.mark.parametrize("name", sorted(PINNED_CASES))
    def test_matches_committed(self, name):
        # Compared as JSON text: exact for every float, NaN included.
        current = json.dumps(PINNED_CASES[name]())
        assert current == json.dumps(_load_golden()[name]), (
            f"{name}: batch output moved off tests/golden/"
            f"batch_fingerprints.json"
        )


class TestScratchCounters:
    def test_scratch_reused_and_stats_keys(self):
        """The per-cycle step reuses its scratch buffers: after the
        first few cycles every request hits a preallocated buffer, so
        reuses must dwarf allocations.  ``stats`` carries exactly these
        two counters (perfbench's paper-grid-batch reads both) and the
        per-layer seconds of the predraw, step and finalize calls."""
        batch = _grid_sim(UGAL).run_open_loop_grid(
            [0.3], seeds=PIN_SEEDS, warmup=PIN_WARMUP, measure=PIN_MEASURE,
            drain_max=PIN_DRAIN,
        )[0]
        assert batch.stats["scratch_reuses"] > batch.stats["scratch_allocs"]
        layers = {"predraw_s", "step_s", "finalize_s"}
        counters = {"scratch_allocs", "scratch_reuses"}
        assert set(batch.stats) == counters | layers
        for key in layers:
            assert isinstance(batch.stats[key], float)
            assert batch.stats[key] >= 0.0
        # The layers are timed inside the run's wall clock, which stops
        # before finalize.
        assert (
            batch.stats["predraw_s"] + batch.stats["step_s"]
            <= batch.wall_seconds
        )


if __name__ == "__main__":
    golden = {name: case() for name, case in sorted(PINNED_CASES.items())}
    with open(GOLDEN_FINGERPRINTS, "w") as handle:
        handle.write("{\n")
        handle.write(",\n".join(
            f"  {json.dumps(name)}: {json.dumps(value)}"
            for name, value in golden.items()
        ))
        handle.write("\n}\n")
    print(f"wrote {os.path.normpath(GOLDEN_FINGERPRINTS)}")
