"""Tests for simulator primitives: config, packets, buffers, channel
pipes, allocators, and injection processes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.allocators import (
    GreedyAllocator,
    SequentialAllocator,
    make_allocator,
)
from repro.network.buffers import CHANNEL_PORT, EJECTION_PORT, InputVC, OutPort
from repro.network.channel import ChannelPipe
from repro.network.config import SimulationConfig
from repro.network.injection import BatchInjection, BernoulliInjection
from repro.network.packet import Flit, Packet, make_flits


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.buffer_per_port == 32  # Section 3.2
        assert config.packet_size == 1

    def test_vc_depth_division(self):
        config = SimulationConfig(buffer_per_port=32)
        assert config.vc_depth(1) == 32
        assert config.vc_depth(2) == 16
        assert config.vc_depth(5) == 6

    def test_vc_depth_must_fit_packet(self):
        config = SimulationConfig(buffer_per_port=8, packet_size=5)
        assert config.vc_depth(1) == 8
        with pytest.raises(ValueError):
            config.vc_depth(2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_per_port": 0},
            {"packet_size": 0},
            {"channel_latency": 0},
            {"credit_latency": 0},
            {"channel_period": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)


class TestPacket:
    def test_latencies(self):
        packet = Packet(0, src=1, dst=2, dst_router=0, size=1, time_created=10)
        packet.time_injected = 12
        packet.time_ejected = 20
        assert packet.total_latency == 10
        assert packet.network_latency == 8

    def test_undelivered_raises(self):
        packet = Packet(0, 1, 2, 0, 1, 0)
        with pytest.raises(ValueError):
            _ = packet.total_latency

    def test_make_flits_single(self):
        packet = Packet(0, 1, 2, 0, 1, 0)
        flits = make_flits(packet)
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail

    def test_make_flits_multi(self):
        packet = Packet(0, 1, 2, 0, 4, 0)
        flits = make_flits(packet)
        assert [f.is_head for f in flits] == [True, False, False, False]
        assert [f.is_tail for f in flits] == [False, False, False, True]


class TestBuffers:
    def test_input_vc_space(self):
        invc = InputVC(0, 0, depth=2, order=0)
        assert invc.has_space()
        packet = Packet(0, 0, 1, 0, 1, 0)
        invc.fifo.append(Flit(packet, True, True))
        invc.fifo.append(Flit(packet, True, True))
        assert not invc.has_space()
        assert invc.occupancy() == 2

    def test_out_port_occupancy_tracks_credits_pending_staging(self):
        out = OutPort(0, CHANNEL_PORT, num_vcs=2, vc_depth=8, staging_depth=4)
        assert out.occupancy() == 0
        out.credits[0] -= 3
        out.pending[1] += 2
        packet = Packet(0, 0, 1, 0, 1, 0)
        out.staging[0].append(Flit(packet, True, True))
        assert out.occupancy() == 6
        assert out.occupancy_vc(0) == 4
        assert out.occupancy_vc(1) == 2

    def test_ejection_port_reads_empty(self):
        out = OutPort(0, EJECTION_PORT, num_vcs=1, vc_depth=0, staging_depth=4)
        assert out.occupancy() == 0
        assert out.credits[0] > 10**6  # effectively infinite


class TestChannelPipe:
    def test_ordered_delivery(self):
        pipe = ChannelPipe(0, 0, 1, 0, 0)
        packet = Packet(0, 0, 1, 0, 1, 0)
        assert not pipe.busy()
        pipe.flits.append((5, Flit(packet, True, True), 0))
        pipe.credits.append((6, 1))
        assert pipe.busy()
        assert pipe.flits[0][0] == 5
        assert pipe.credits[0] == (6, 1)


class TestAllocators:
    def _out(self):
        return OutPort(0, CHANNEL_PORT, num_vcs=1, vc_depth=8, staging_depth=4)

    def test_sequential_applies_immediately(self):
        alloc = SequentialAllocator()
        out = self._out()
        alloc.begin_cycle()
        alloc.record(out, 0, 1)
        # Visible before end_cycle: this is the whole point.
        assert out.pending[0] == 1
        alloc.end_cycle()
        assert out.pending[0] == 1

    def test_greedy_defers_to_end_of_cycle(self):
        alloc = GreedyAllocator()
        out = self._out()
        alloc.begin_cycle()
        alloc.record(out, 0, 1)
        alloc.record(out, 0, 2)
        # Invisible until the routing cycle completes ("en masse").
        assert out.pending[0] == 0
        alloc.end_cycle()
        assert out.pending[0] == 3

    def test_greedy_resets_between_cycles(self):
        alloc = GreedyAllocator()
        out = self._out()
        alloc.begin_cycle()
        alloc.record(out, 0, 1)
        alloc.begin_cycle()  # new cycle discards unapplied records
        alloc.end_cycle()
        assert out.pending[0] == 0

    def test_factory(self):
        assert isinstance(make_allocator(True), SequentialAllocator)
        assert isinstance(make_allocator(False), GreedyAllocator)


class TestBernoulliInjection:
    def test_rate_statistics(self):
        process = BernoulliInjection(0.25)
        process.start(num_terminals=8, packet_size=1, rng=random.Random(0))
        injections = 0
        cycles = 4000
        for now in range(cycles):
            injections += sum(count for _, count in process.injections(now))
        rate = injections / (cycles * 8)
        assert 0.22 < rate < 0.28

    def test_full_load_injects_every_cycle(self):
        process = BernoulliInjection(1.0)
        process.start(num_terminals=4, packet_size=1, rng=random.Random(0))
        for now in range(10):
            assert len(process.injections(now)) == 4

    def test_at_most_one_packet_per_terminal_per_cycle(self):
        process = BernoulliInjection(0.9)
        process.start(num_terminals=4, packet_size=1, rng=random.Random(1))
        for now in range(500):
            terminals = [t for t, _ in process.injections(now)]
            assert len(terminals) == len(set(terminals))

    def test_packet_size_scales_rate(self):
        process = BernoulliInjection(0.5)
        process.start(num_terminals=8, packet_size=2, rng=random.Random(0))
        injections = 0
        for now in range(4000):
            injections += sum(count for _, count in process.injections(now))
        # 0.25 packets per terminal per cycle.
        assert 0.22 < injections / (4000 * 8) < 0.28

    def test_rejects_bad_load(self):
        with pytest.raises(ValueError):
            BernoulliInjection(0.0)
        with pytest.raises(ValueError):
            BernoulliInjection(1.5)

    def test_stop(self):
        process = BernoulliInjection(1.0)
        process.start(num_terminals=2, packet_size=1, rng=random.Random(0))
        process.stop()
        assert process.injections(0) == []
        assert process.exhausted()


class TestBatchInjection:
    def test_all_at_cycle_zero(self):
        process = BatchInjection(5)
        process.start(num_terminals=3, packet_size=1, rng=random.Random(0))
        assert process.injections(0) == [(0, 5), (1, 5), (2, 5)]
        assert process.injections(1) == []
        assert process.exhausted()

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchInjection(0)


@settings(max_examples=20, deadline=None)
@given(load=st.floats(min_value=0.05, max_value=1.0), seed=st.integers(0, 99))
def test_bernoulli_rate_property(load, seed):
    process = BernoulliInjection(load)
    process.start(num_terminals=16, packet_size=1, rng=random.Random(seed))
    injections = 0
    cycles = 1500
    for now in range(cycles):
        injections += len(process.injections(now))
    rate = injections / (cycles * 16)
    assert abs(rate - load) < 0.08
