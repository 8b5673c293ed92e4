"""repro — a reproduction of "Flattened Butterfly: A Cost-Efficient
Topology for High-Radix Networks" (Kim, Dally, Abts; ISCA 2007).

The package provides:

* :mod:`repro.core` — the flattened butterfly topology and its five
  routing algorithms (MIN AD, VAL, UGAL, UGAL-S, CLOS AD),
* :mod:`repro.topologies` — the baseline topologies (conventional
  butterfly, folded Clos, hypercube, generalized hypercube) with their
  routing,
* :mod:`repro.network` — a cycle-accurate flit-level simulator,
* :mod:`repro.traffic` — synthetic traffic patterns,
* :mod:`repro.cost` / :mod:`repro.power` — the packaging-aware cost and
  power models of Sections 4 and 5.3,
* :mod:`repro.analysis` — closed-form scalability and capacity math,
* :mod:`repro.faults` — deterministic fault injection and fault-aware
  routing for degraded-topology experiments,
* :mod:`repro.experiments` — one harness per paper figure/table.

Quickstart::

    from repro import FlattenedButterfly, ClosAD, Simulator, UniformRandom

    sim = Simulator(FlattenedButterfly(8, 2), ClosAD(), UniformRandom())
    result = sim.run_open_loop(load=0.4, warmup=500, measure=500)
    print(result.latency.mean, result.accepted_throughput)
"""

from .core import (
    ClosAD,
    DimensionOrder,
    FlattenedButterfly,
    MinimalAdaptive,
    RoutingAlgorithm,
    UGAL,
    UGALSequential,
    Valiant,
    flattened_butterfly_for_size,
)
from .network import (
    BatchResult,
    OpenLoopResult,
    SimulationConfig,
    Simulator,
)
from .faults import FaultedTopologyView, FaultModel, FaultSet
from .runner import ResultCache, SimSpec, SweepRunner
from .topologies import (
    Butterfly,
    DestinationTag,
    ECube,
    FoldedClos,
    FoldedClosAdaptive,
    GeneralizedHypercube,
    Hypercube,
    Topology,
)
from .traffic import GroupShift, TrafficPattern, UniformRandom, adversarial

__version__ = "1.0.0"

__all__ = [
    "ClosAD",
    "DimensionOrder",
    "FlattenedButterfly",
    "MinimalAdaptive",
    "RoutingAlgorithm",
    "UGAL",
    "UGALSequential",
    "Valiant",
    "flattened_butterfly_for_size",
    "BatchResult",
    "OpenLoopResult",
    "SimulationConfig",
    "Simulator",
    "FaultModel",
    "FaultSet",
    "FaultedTopologyView",
    "ResultCache",
    "SimSpec",
    "SweepRunner",
    "Butterfly",
    "DestinationTag",
    "ECube",
    "FoldedClos",
    "FoldedClosAdaptive",
    "GeneralizedHypercube",
    "Hypercube",
    "Topology",
    "GroupShift",
    "TrafficPattern",
    "UniformRandom",
    "adversarial",
    "__version__",
]
