"""Tests for the time-series instrumentation."""

import pytest

from repro.core import ClosAD, DimensionOrder, UGAL, UGALSequential
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import (
    ChannelLoadTrace,
    QueueTrace,
    SimulationConfig,
    Simulator,
    ThroughputTrace,
)
from repro.network.trace import Tracer
from repro.traffic import UniformRandom, adversarial


def make_sim(algorithm=None, pattern=None, **kwargs):
    return Simulator(
        FlattenedButterfly(8, 2),
        algorithm or DimensionOrder(),
        pattern or UniformRandom(),
        SimulationConfig(seed=1, **kwargs),
    )


class _SharedSlots(Tracer):
    """Watches the wheel slot that the cycle's sent flits arrive in.

    Counts the pipes with both a credit and a flit due in that slot
    (the filing pattern that could list a pipe twice in a slot) and
    the pipes the slot lists more than once."""

    supports_idle_skip = True

    def __init__(self):
        self.shared = 0
        self.repeats = 0

    def on_cycle(self, now):
        sim = self.simulator
        due = now + sim.config.channel_latency
        pipes = list(sim._wheel.get(due, ()))
        self.repeats += len(pipes) - len(set(pipes))
        self.shared += sum(
            1 for pipe in pipes
            if any(item[0] == due for item in pipe.credits)
            and any(item[0] == due for item in pipe.flits)
        )

    def on_idle_gap(self, start, end):
        pass


class TestThroughputTrace:
    def test_series_length(self):
        sim = make_sim()
        trace = ThroughputTrace(interval=10)
        sim.attach_tracer(trace)
        sim.run_batch(4)
        assert len(trace.series) == sim.now // 10

    def test_series_integrates_to_total(self):
        sim = make_sim()
        trace = ThroughputTrace(interval=1)
        sim.attach_tracer(trace)
        sim.run_batch(4)
        flits = sum(trace.series) * sim.topology.num_terminals
        assert flits == pytest.approx(sim.flits_ejected)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputTrace(interval=0)


class TestQueueTrace:
    def test_records_every_cycle(self):
        fb = FlattenedButterfly(8, 2)
        channel = fb.channel_to(0, 1, 1)
        sim = Simulator(fb, DimensionOrder(), adversarial(), SimulationConfig(seed=1))
        trace = QueueTrace([channel])
        sim.attach_tracer(trace)
        sim.run_batch(2)
        assert len(trace.series[channel.index]) == sim.now
        assert trace.peak(channel) > 0

    def test_greedy_overloads_minimal_channel_more(self):
        """Figure 5's mechanism, observed directly: the peak occupancy
        of the hot minimal channel is higher under the greedy UGAL
        allocator than under CLOS AD's sequential spreading."""
        fb = FlattenedButterfly(8, 2)
        hot = fb.channel_to(0, 1, 1)  # R0 -> R1 under the WC pattern

        def peak(algorithm):
            sim = Simulator(
                FlattenedButterfly(8, 2), algorithm, adversarial(),
                SimulationConfig(seed=1),
            )
            trace = QueueTrace([hot])
            sim.attach_tracer(trace)
            sim.run_batch(4)
            return trace.peak(hot)

        assert peak(ClosAD()) < peak(UGAL())

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueTrace([])


class TestChannelLoadTrace:
    def test_utilization_bounds(self):
        sim = make_sim()
        trace = ChannelLoadTrace()
        sim.attach_tracer(trace)
        sim.run_batch(8)
        assert 0.0 < trace.max_utilization() <= 1.0
        for index in trace.flits:
            assert 0.0 <= trace.utilization(index) <= 1.0

    def test_counts_every_sent_flit(self):
        """Total traced channel flits equals total hops taken.

        Each (channel, credit) latency pair makes some pipe get a
        credit and a flit due in the wheel slot its sent flits arrive
        in.  The slot must list that pipe once, so the tracer counts
        its flits once."""
        for channel_latency, credit_latency in ((1, 1), (2, 2), (1, 2)):
            sim = make_sim(
                channel_latency=channel_latency, credit_latency=credit_latency
            )
            trace = ChannelLoadTrace()
            sim.attach_tracer(trace)
            slots = _SharedSlots()
            sim.attach_tracer(slots)
            packets = []
            original = sim.on_flit_ejected

            def spy(flit, now, original=original, packets=packets):
                original(flit, now)
                if flit.is_tail:
                    packets.append(flit.packet)

            sim.on_flit_ejected = spy
            sim.run_batch(2)
            assert slots.shared > 0
            assert slots.repeats == 0
            assert sum(trace.flits.values()) == sum(p.hops for p in packets)

    def test_hot_channel_identified_under_wc(self):
        fb = FlattenedButterfly(8, 2)
        hot = fb.channel_to(0, 1, 1)
        sim = Simulator(fb, DimensionOrder(), adversarial(), SimulationConfig(seed=1))
        trace = ChannelLoadTrace()
        sim.attach_tracer(trace)
        sim.measure_saturation_throughput(400, 400)
        # Under minimal routing the hot channel runs at ~100% duty.
        assert trace.utilization(hot.index) > 0.9

    def test_empty_trace(self):
        trace = ChannelLoadTrace()
        assert trace.max_utilization() == 0.0


class TestMultipleTracers:
    def test_tracers_compose(self):
        sim = make_sim()
        a = ThroughputTrace(interval=5)
        b = ChannelLoadTrace()
        sim.attach_tracer(a)
        sim.attach_tracer(b)
        sim.run_batch(2)
        assert a.series and b.cycles == sim.now


class TestPacketJourneyTrace:
    def test_journeys_follow_valid_channels(self):
        from repro.network import PacketJourneyTrace

        fb = FlattenedButterfly(4, 2)
        sim = Simulator(fb, ClosAD(), adversarial(), SimulationConfig(seed=1))
        trace = PacketJourneyTrace()
        sim.attach_tracer(trace)
        sim.run_batch(2)
        assert trace.visits
        for pid, visits in trace.visits.items():
            routers = [router for _, router in visits]
            for a, b in zip(routers, routers[1:]):
                assert fb.channels_between(a, b), f"{a}->{b} not a channel"
            cycles = [cycle for cycle, _ in visits]
            assert cycles == sorted(cycles)

    def test_hops_match_packet_counter(self):
        from repro.network import PacketJourneyTrace

        sim = Simulator(
            FlattenedButterfly(4, 2), DimensionOrder(), adversarial(),
            SimulationConfig(seed=1),
        )
        trace = PacketJourneyTrace()
        sim.attach_tracer(trace)
        packets = {}
        original = sim.on_flit_ejected

        def spy(flit, now):
            original(flit, now)
            if flit.is_tail:
                packets[flit.packet.pid] = flit.packet

        sim.on_flit_ejected = spy
        sim.run_batch(2)
        for pid, packet in packets.items():
            assert trace.hops(pid) == packet.hops

    def test_predicate_filters(self):
        from repro.network import PacketJourneyTrace

        sim = Simulator(
            FlattenedButterfly(4, 2), DimensionOrder(), adversarial(),
            SimulationConfig(seed=1),
        )
        trace = PacketJourneyTrace(predicate=lambda p: p.pid == 0)
        sim.attach_tracer(trace)
        sim.run_batch(2)
        assert set(trace.visits) <= {0}

    def test_untraced_packet_empty(self):
        from repro.network import PacketJourneyTrace

        trace = PacketJourneyTrace()
        assert trace.journey(99) == []
        assert trace.hops(99) == 0
