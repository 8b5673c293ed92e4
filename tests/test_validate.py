"""Tests for the topology validation utility — and a sweep running it
over every topology the library ships."""

import pytest

from repro.core.flattened_butterfly import FlattenedButterfly
from repro.topologies import (
    Butterfly,
    FoldedClos,
    GeneralizedHypercube,
    Hypercube,
    TopologyError,
    Torus,
    verify_topology,
)
from repro.topologies.base import DirectTopology


ALL_TOPOLOGIES = [
    FlattenedButterfly(4, 2),
    FlattenedButterfly(2, 4),
    FlattenedButterfly(4, 2, multiplicity=(2,)),
    FlattenedButterfly(concentration=4, dims=(5,), k=4),
    Butterfly(4, 2),
    Butterfly(2, 4),
    FoldedClos(64, 8),
    FoldedClos(64, 8, taper=1),
    Hypercube(5),
    GeneralizedHypercube((3, 4)),
    Torus((4, 4)),
    Torus((2, 3, 4)),
]


@pytest.mark.parametrize("topology", ALL_TOPOLOGIES, ids=lambda t: t.name)
def test_every_shipped_topology_is_valid(topology):
    verify_topology(topology)


class _Broken(DirectTopology):
    """A deliberately asymmetric direct topology."""

    def __init__(self):
        super().__init__(num_terminals=2, num_routers=2)
        self._add_channel(0, 1)

    def router_of_terminal(self, terminal):
        return terminal

    def min_router_hops(self, a, b):
        return abs(a - b)


def test_detects_asymmetry():
    with pytest.raises(TopologyError):
        verify_topology(_Broken())


class _Island(DirectTopology):
    """Two routers with terminals but no channels at all."""

    def __init__(self):
        super().__init__(num_terminals=2, num_routers=2)

    def router_of_terminal(self, terminal):
        return terminal

    def min_router_hops(self, a, b):
        return abs(a - b)


def test_detects_unreachable_routers():
    with pytest.raises(TopologyError):
        verify_topology(_Island())
