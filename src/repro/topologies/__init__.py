"""Baseline topologies the paper compares against (Sections 3.3, 4)."""

from .base import Channel, DirectTopology, Topology
from .butterfly import Butterfly
from .folded_clos import FoldedClos
from .generalized_hypercube import GeneralizedHypercube
from .hyperx import HyperX
from .hypercube import Hypercube
from .routing import DestinationTag, ECube, FoldedClosAdaptive
from .torus import Torus, TorusDOR
from .validate import TopologyError, verify_topology

__all__ = [
    "Channel",
    "DirectTopology",
    "Topology",
    "Butterfly",
    "FoldedClos",
    "GeneralizedHypercube",
    "HyperX",
    "Hypercube",
    "DestinationTag",
    "ECube",
    "FoldedClosAdaptive",
    "Torus",
    "TorusDOR",
    "TopologyError",
    "verify_topology",
]
