"""Stress and deadlock-freedom tests.

Every (algorithm, traffic, packet size) combination must fully drain a
saturating batch — a wedged run here would indicate a broken virtual-
channel discipline or credit protocol.  These are the library's
deadlock regression tests; the VC orderings they validate are the ones
argued in each algorithm's docstring.
"""

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
from repro.network import SimulationConfig, Simulator
from repro.topologies import (
    Butterfly,
    DestinationTag,
    ECube,
    FoldedClos,
    FoldedClosAdaptive,
    Hypercube,
)
from repro.traffic import (
    BitComplement,
    GroupShift,
    RandomPermutation,
    Transpose,
    UniformRandom,
    adversarial,
)

FB_ALGORITHMS = [
    MinimalAdaptive,
    DimensionOrder,
    Valiant,
    UGAL,
    UGALSequential,
    ClosAD,
]

PATTERNS = [
    ("UR", UniformRandom),
    ("WC", adversarial),
    ("bitcomp", BitComplement),
    ("transpose", Transpose),
    ("perm", lambda: RandomPermutation(seed=9)),
]


@pytest.mark.parametrize("algorithm_cls", FB_ALGORITHMS)
@pytest.mark.parametrize("pattern_name,pattern_factory", PATTERNS)
def test_saturating_batch_drains(algorithm_cls, pattern_name, pattern_factory):
    """A 16-packet-per-node batch (well past saturation) must drain on
    a 3-dimensional flattened butterfly for every algorithm/pattern."""
    sim = Simulator(
        FlattenedButterfly(2, 4),  # N=16, n'=3: multi-dim VC disciplines
        algorithm_cls(),
        pattern_factory(),
        SimulationConfig(seed=11),
    )
    result = sim.run_batch(16, max_cycles=200_000)
    assert sim.packets_delivered == result.packets
    assert sim.quiescent()


@pytest.mark.parametrize("algorithm_cls", [MinimalAdaptive, Valiant, ClosAD, UGAL])
@pytest.mark.parametrize("packet_size", [2, 5])
def test_multiflit_wormhole_drains(algorithm_cls, packet_size):
    """Wormhole with multi-flit packets and tight buffers must not
    wedge (VC ownership + credit protocol under pressure)."""
    sim = Simulator(
        FlattenedButterfly(4, 3),
        algorithm_cls(),
        adversarial(),
        SimulationConfig(packet_size=packet_size, buffer_per_port=20, seed=3),
    )
    result = sim.run_batch(4, max_cycles=200_000)
    assert sim.packets_delivered == result.packets
    assert sim.quiescent()


@pytest.mark.parametrize("packet_size", [1, 3])
def test_tiny_buffers_do_not_wedge(packet_size):
    """Minimum-size VC buffers exercise the credit loop hardest."""
    sim = Simulator(
        FlattenedButterfly(4, 2),
        MinimalAdaptive(),
        adversarial(),
        SimulationConfig(
            packet_size=packet_size, buffer_per_port=packet_size, seed=5,
        ),
    )
    result = sim.run_batch(8, max_cycles=300_000)
    assert sim.packets_delivered == result.packets


def test_slow_channels_do_not_wedge():
    sim = Simulator(
        FlattenedButterfly(4, 2),
        ClosAD(),
        adversarial(),
        SimulationConfig(channel_period=4, seed=5),
    )
    result = sim.run_batch(8, max_cycles=300_000)
    assert sim.packets_delivered == result.packets


def test_long_latency_channels_do_not_wedge():
    sim = Simulator(
        FlattenedButterfly(4, 2),
        UGALSequential(),
        adversarial(),
        SimulationConfig(channel_latency=8, credit_latency=8, seed=5),
    )
    result = sim.run_batch(8, max_cycles=300_000)
    assert sim.packets_delivered == result.packets


@pytest.mark.parametrize(
    "make_sim",
    [
        lambda: Simulator(
            Butterfly(2, 4), DestinationTag(), UniformRandom(),
            SimulationConfig(seed=2),
        ),
        lambda: Simulator(
            FoldedClos(32, 4), FoldedClosAdaptive(), adversarial(),
            SimulationConfig(seed=2),
        ),
        lambda: Simulator(
            Hypercube(5), ECube(), adversarial(), SimulationConfig(seed=2),
        ),
    ],
    ids=["butterfly", "folded-clos", "hypercube"],
)
def test_baseline_topologies_drain_saturating_batches(make_sim):
    sim = make_sim()
    result = sim.run_batch(16, max_cycles=300_000)
    assert sim.packets_delivered == result.packets
    assert sim.quiescent()


def test_various_group_shifts_drain():
    for shift in (2, 3, -1):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            ClosAD(),
            GroupShift(shift),
            SimulationConfig(seed=4),
        )
        result = sim.run_batch(8, max_cycles=200_000)
        assert sim.packets_delivered == result.packets
