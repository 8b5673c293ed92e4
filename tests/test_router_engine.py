"""Low-level router-engine tests: credit protocol, arbitration,
staging, wormhole ownership, and flow-control invariants."""

from collections import deque

import pytest

from repro.core import DimensionOrder, MinimalAdaptive
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import SimulationConfig, Simulator
from repro.network.buffers import CHANNEL_PORT, EJECTION_PORT
from repro.network.packet import Flit, Packet
from repro.traffic import UniformRandom, adversarial


def build(algorithm=None, **config_kwargs):
    return Simulator(
        FlattenedButterfly(4, 2),
        algorithm or MinimalAdaptive(),
        UniformRandom(),
        SimulationConfig(**config_kwargs),
    )


class TestConstructionShape:
    def test_port_counts(self):
        sim = build()
        engine = sim.engines[0]
        # 4-ary 2-flat router: 3 channel outputs + 4 ejection ports,
        # 3 channel inputs + 4 injection ports.
        assert len(engine.out_ports) == 7
        assert len(engine.in_ports) == 7
        kinds = [p.kind for p in engine.out_ports]
        assert kinds.count(CHANNEL_PORT) == 3
        assert kinds.count(EJECTION_PORT) == 4

    def test_channel_port_mapping(self):
        sim = build()
        for channel in sim.topology.channels:
            engine = sim.engines[channel.src]
            port = engine.port_for_channel(channel)
            assert engine.out_ports[port].channel_index == channel.index

    def test_ejection_port_mapping(self):
        sim = build()
        for terminal in range(sim.topology.num_terminals):
            router = sim.topology.ejection_router(terminal)
            port = sim.engines[router].ejection_port(terminal)
            assert sim.engines[router].out_ports[port].terminal == terminal

    def test_pipes_wired_to_ports(self):
        sim = build()
        for pipe, channel in zip(sim.pipes, sim.topology.channels):
            assert pipe.src_router == channel.src
            assert pipe.dst_router == channel.dst
            src_port = sim.engines[channel.src].out_ports[pipe.src_port]
            assert src_port.channel_index == channel.index

    def test_vc_depth_applied(self):
        sim = build(buffer_per_port=16)
        # MIN AD on a 2-flat uses 1 VC -> depth 16.
        engine = sim.engines[0]
        channel_inputs = [
            vcs for port, vcs in enumerate(engine.in_ports)
            if engine.in_port_kind[port] == 0
        ]
        assert all(vcs[0].depth == 16 for vcs in channel_inputs)


class TestCreditProtocol:
    def test_overflow_guard(self):
        sim = build()
        engine = sim.engines[0]
        # Find a channel input and flood it beyond its depth.
        port = next(
            p for p, kind in enumerate(engine.in_port_kind) if kind == 0
        )
        invc = engine.in_ports[port][0]
        packet = Packet(0, 0, 1, 0, 1, 0)
        for _ in range(invc.depth):
            engine.deliver(port, 0, Flit(packet, True, True))
        with pytest.raises(AssertionError):
            engine.deliver(port, 0, Flit(packet, True, True))

    def test_credits_conserved_after_run(self):
        """After a fully drained run, every credit counter is back at
        its initial value."""
        sim = build()
        sim.run_batch(8)
        # Drain the last in-flight credits (the spent batch injects
        # nothing more).
        for _ in range(10):
            sim.step()
        num_vcs = sim.algorithm.num_vcs
        depth = sim.config.vc_depth(num_vcs)
        for engine in sim.engines:
            for out in engine.out_ports:
                if out.kind == CHANNEL_PORT:
                    assert out.credits == [depth] * num_vcs
                    assert out.pending == [0] * num_vcs
                    assert all(not q for q in out.staging)

    def test_pending_returns_to_zero(self):
        sim = build(algorithm=DimensionOrder())
        sim.run_batch(4)
        for engine in sim.engines:
            for out in engine.out_ports:
                assert all(p == 0 for p in out.pending)


class TestWormholeOwnership:
    def test_no_flit_interleaving_on_vc(self):
        """With multi-flit packets, flits of different packets never
        interleave within one VC: every ejected packet's flits arrive
        contiguously per (channel, vc)."""
        sim = Simulator(
            FlattenedButterfly(4, 2),
            DimensionOrder(),
            adversarial(),
            SimulationConfig(packet_size=3, seed=5),
        )
        # Spy on pipe traffic: per (pipe, vc), packet ids must change
        # only at head flits.  The wire phase appends
        # ``(arrival, flit, vc)`` to each pipe's flit deque, so swap in
        # a deque that checks every append.
        violations = []
        state = {}
        sent = []

        class SpyDeque(deque):
            def append(self, item):
                _, flit, vc = item
                key = (self.pipe_index, vc)
                current = state.get(key)
                if flit.is_head:
                    if current is not None:
                        violations.append(key)
                    state[key] = flit.packet.pid
                elif current != flit.packet.pid:
                    violations.append(key)
                if flit.is_tail:
                    state[key] = None
                sent.append(key)
                super().append(item)

        for pipe in sim.pipes:
            pipe.flits = SpyDeque()
            pipe.flits.pipe_index = pipe.index
        sim.run_batch(4)
        assert sent  # the spy saw the traffic
        assert not violations
        assert sim.packets_delivered == 64


class TestArbitration:
    def test_round_robin_shares_output(self):
        """Under a hotspot where several inputs target one ejection
        port, all sources eventually get through (no starvation)."""

        class ToZero:
            name = "to-zero"

            def bind(self, topology):
                pass

            def destination(self, src, rng):
                return 0

        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            ToZero(),
            SimulationConfig(seed=1),
        )
        result = sim.run_batch(4)
        assert sim.packets_delivered == result.packets


class TestWirePhase:
    def test_channel_period_paces_wire(self):
        sim = build(algorithm=DimensionOrder(), channel_period=3)
        result = sim.run_batch(2)
        assert sim.packets_delivered == 32
        # Pacing must slow the batch versus full-bandwidth channels.
        fast = build(algorithm=DimensionOrder()).run_batch(2)
        assert result.completion_cycles >= fast.completion_cycles

    def test_speedup_bound_respected(self):
        """A speedup-1 router (no sub-iteration repeats) still delivers
        everything, just slower."""
        limited = build(algorithm=DimensionOrder(), speedup=1)
        unlimited = build(algorithm=DimensionOrder())
        r_limited = limited.run_batch(8)
        r_unlimited = unlimited.run_batch(8)
        assert limited.packets_delivered == 128
        assert r_limited.completion_cycles >= r_unlimited.completion_cycles

    def test_hol_blocking_with_speedup_one(self):
        """Speedup 1 exhibits the classic ~59% head-of-line limit on
        uniform traffic; sufficient speedup lifts it."""
        k = 8
        slow = Simulator(
            FlattenedButterfly(k, 2), MinimalAdaptive(), UniformRandom(),
            SimulationConfig(speedup=1, staging_depth=1, seed=1),
        ).measure_saturation_throughput(600, 600)
        fast = Simulator(
            FlattenedButterfly(k, 2), MinimalAdaptive(), UniformRandom(),
            SimulationConfig(seed=1),
        ).measure_saturation_throughput(600, 600)
        assert slow < 0.75
        assert fast > 0.9
