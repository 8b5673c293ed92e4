"""Edge-case tests for smaller public surfaces across the library."""

import pytest

from repro.core.flattened_butterfly import FlattenedButterfly
from repro.experiments.common import ExperimentResult, PAPER_SCALE, Table
from repro.network.stats import LatencySummary
from repro.topologies import FoldedClos
from repro.traffic import GroupShift, HotSpot


class TestTopologyBase:
    def test_radix_counts_channels_plus_terminals(self):
        fb = FlattenedButterfly(4, 2)
        # 3 out channels + 4 terminals.
        assert fb.radix(0) == 7

    def test_channel_between_errors(self):
        fb = FlattenedButterfly(4, 2)
        with pytest.raises(KeyError):
            fb.channel_between(0, 0)  # no self channel
        multi = FlattenedButterfly(4, 2, multiplicity=(2,))
        with pytest.raises(ValueError):
            multi.channel_between(0, 1)  # two parallel channels

    def test_channels_between_empty_for_unconnected(self):
        fb = FlattenedButterfly(2, 3)
        # Routers differing in two dims are not directly connected.
        assert fb.channels_between(0, 3) == ()

    def test_add_channel_validation(self):
        fb = FlattenedButterfly(4, 2)
        with pytest.raises(ValueError):
            fb._add_channel(0, 0)
        with pytest.raises(ValueError):
            fb._add_channel(0, 99)
        with pytest.raises(ValueError):
            fb._add_channel(-1, 0)

    def test_base_constructor_validation(self):
        from repro.topologies.base import DirectTopology

        class Tiny(DirectTopology):
            def router_of_terminal(self, t):
                return 0

            def min_router_hops(self, a, b):
                return 0

        with pytest.raises(ValueError):
            Tiny(num_terminals=0, num_routers=1)
        with pytest.raises(ValueError):
            Tiny(num_terminals=1, num_routers=0)


class TestGroupShiftOnHierarchies:
    def test_groups_by_leaf_on_folded_clos(self):
        clos = FoldedClos(64, 8)
        pattern = GroupShift(1)
        pattern.bind(clos)
        import random

        rng = random.Random(0)
        dst = pattern.destination(0, rng)
        assert clos.leaf_of_terminal(dst) == 1


class TestHotSpotFullFraction:
    def test_fraction_one_sends_everything_to_hot(self):
        fb = FlattenedButterfly(4, 2)
        pattern = HotSpot(hot_terminal=3, fraction=1.0)
        pattern.bind(fb)
        import random

        rng = random.Random(0)
        assert all(pattern.destination(s, rng) == 3 for s in range(16))


class TestLatencySummaryEdges:
    def test_two_samples_percentiles(self):
        summary = LatencySummary.from_samples([1, 100])
        assert summary.p50 == 1
        assert summary.p99 == 100

    def test_identical_samples(self):
        summary = LatencySummary.from_samples([7] * 10)
        assert summary.mean == 7
        assert summary.p95 == 7
        assert summary.max == 7


class TestExperimentResultEdges:
    def test_table_lookup_error(self):
        result = ExperimentResult("x", "desc", "ci", tables=[Table("a", ["c"])])
        assert result.table("a").title == "a"
        with pytest.raises(KeyError):
            result.table("missing")

    def test_paper_scale_parameters(self):
        assert PAPER_SCALE.fb_k == 32  # the paper's 32-ary 2-flat
        assert PAPER_SCALE.fb_k**2 == 1024


class TestWireDelayAdjacent:
    def test_adjacent_route_constant_for_direct(self):
        from repro.analysis import WireDelayModel

        model = WireDelayModel()
        small_direct, _ = model.adjacent_traffic_route_m(1024)
        large_direct, _ = model.adjacent_traffic_route_m(65536)
        # Direct adjacent traffic never leaves the cabinet pair.
        assert small_direct == large_direct


class TestTraceAttachResets:
    def test_throughput_trace_baseline(self):
        from repro.core import DimensionOrder
        from repro.network import SimulationConfig, Simulator, ThroughputTrace
        from repro.traffic import UniformRandom

        sim = Simulator(
            FlattenedButterfly(4, 2), DimensionOrder(), UniformRandom(),
            SimulationConfig(seed=1),
        )
        sim.run_batch(1)
        # Attaching after a run must baseline at the current count.
        trace = ThroughputTrace(interval=1)
        trace.attach(sim)
        assert trace._last_ejected == sim.flits_ejected


class TestSimulatorSingleUse:
    def test_each_run_method_consumes(self):
        from repro.core import DimensionOrder
        from repro.network import SimulationConfig, Simulator
        from repro.traffic import UniformRandom

        for method in ("run_batch", "run_open_loop", "saturation"):
            sim = Simulator(
                FlattenedButterfly(4, 2), DimensionOrder(), UniformRandom(),
                SimulationConfig(seed=1),
            )
            if method == "run_batch":
                sim.run_batch(1)
            elif method == "run_open_loop":
                sim.run_open_loop(0.1, warmup=50, measure=50, drain_max=1000)
            else:
                sim.measure_saturation_throughput(50, 50)
            with pytest.raises(RuntimeError):
                sim.run_batch(1)
