"""Synthetic traffic patterns (Section 3.2) and datacenter workloads."""

from .datacenter import HotSpotSkew, Incast, PermutationChurn
from .patterns import (
    BitComplement,
    BitReverse,
    GroupShift,
    HotSpot,
    RandomPermutation,
    Shuffle,
    TrafficPattern,
    Transpose,
    UniformRandom,
    adversarial,
    tornado_for,
)

__all__ = [
    "BitComplement",
    "BitReverse",
    "GroupShift",
    "HotSpot",
    "HotSpotSkew",
    "Incast",
    "PermutationChurn",
    "RandomPermutation",
    "Shuffle",
    "TrafficPattern",
    "Transpose",
    "UniformRandom",
    "adversarial",
    "tornado_for",
]
