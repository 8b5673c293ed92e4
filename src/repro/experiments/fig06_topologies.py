"""Figure 6 (and Table 1) — topology comparison at equal bisection.

Latency vs. offered load and saturation throughput for the flattened
butterfly (CLOS AD), the conventional butterfly (destination-based
routing), the folded Clos (adaptive sequential routing, bisection
matched by tapering the leaf uplinks), and the hypercube (e-cube) —
all at the same node count, unit-bandwidth channels, and constant
total buffering per port.

Expected shape: on UR everything but the folded Clos reaches ~100%
(the equal-bisection Clos spends half its bandwidth on load balancing
and reaches 50%); on WC the butterfly collapses to ~1/k — identical to
a minimally routed flattened butterfly — while the others reach ~50%.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

from ..core import ClosAD, DimensionOrder
from ..core.flattened_butterfly import FlattenedButterfly
from ..network import SimulationConfig, Simulator, resolve_kernel
from ..topologies import (
    Butterfly,
    DestinationTag,
    ECube,
    FoldedClos,
    FoldedClosAdaptive,
    Hypercube,
)
from ..runner import SimSpec
from ..traffic import UniformRandom, adversarial
from .common import (
    ExperimentResult,
    Table,
    batch_latency_load_curve,
    latency_load_curve,
    resolve_scale,
    saturation_throughput,
)


def _fb(topology, algorithm_cls, pattern_factory, kernel: str = None) -> Simulator:
    return Simulator(
        topology, algorithm_cls(), pattern_factory(),
        SimulationConfig(),
        kernel=kernel,
    )


def _butterfly(topology, pattern_factory, kernel: str = None) -> Simulator:
    return Simulator(
        topology, DestinationTag(), pattern_factory(),
        SimulationConfig(),
        kernel=kernel,
    )


def _folded_clos(topology, pattern_factory, kernel: str = None) -> Simulator:
    return Simulator(
        topology, FoldedClosAdaptive(),
        pattern_factory(), SimulationConfig(),
        kernel=kernel,
    )


def _hypercube(topology, pattern_factory, kernel: str = None) -> Simulator:
    # The hypercube's natural bisection is twice the flattened
    # butterfly's; holding bisection constant halves its channel
    # bandwidth (channel_period=2).
    return Simulator(
        topology, ECube(), pattern_factory(),
        SimulationConfig(channel_period=2),
        kernel=kernel,
    )


#: Routing algorithm behind each suite row, for the ``--kernel batch``
#: filter: a row stays only when
#: :func:`repro.network.batch.unsupported_reason` accepts its
#: algorithm (the patterns here — UR and the worst-case group shift —
#: are both inside the batch envelope).
SUITE_ALGORITHMS = {
    "FB (CLOS AD)": ClosAD,
    "FB (MIN)": DimensionOrder,
    "butterfly": DestinationTag,
    "folded Clos": FoldedClosAdaptive,
    "hypercube": ECube,
}


def topology_suite(k: int, kernel: str = None) -> Callable[[Callable], Dict[str, SimSpec]]:
    """Simulator specs for the four topologies at N = k**2, plus a
    minimally routed flattened butterfly for the paper's 'identical to
    the butterfly' observation.  Returns pattern_factory -> name ->
    :class:`~repro.runner.SimSpec`; every spec builds a fresh
    simulator per call and is picklable for parallel sweeps.
    ``kernel`` is bound into the specs only when explicitly chosen, so
    default-kernel cache keys are unchanged from before the option."""
    num_terminals = k * k
    n_cube = int(math.log2(num_terminals))
    if 2**n_cube != num_terminals:
        raise ValueError(f"N={num_terminals} must be a power of two")

    fb = SimSpec.of(FlattenedButterfly, k, 2)
    butterfly = SimSpec.of(Butterfly, k, 2)
    clos = SimSpec.of(FoldedClos, k * k, k, taper=2)
    hypercube = SimSpec.of(Hypercube, n_cube)
    extra = {} if kernel is None else {"kernel": kernel}

    def factories(pattern_factory):
        return {
            "FB (CLOS AD)": SimSpec.of(_fb, ClosAD, pattern_factory, **extra).with_topology(fb),
            "FB (MIN)": SimSpec.of(_fb, DimensionOrder, pattern_factory, **extra).with_topology(fb),
            "butterfly": SimSpec.of(_butterfly, pattern_factory, **extra).with_topology(butterfly),
            "folded Clos": SimSpec.of(_folded_clos, pattern_factory, **extra).with_topology(clos),
            "hypercube": SimSpec.of(_hypercube, pattern_factory, **extra).with_topology(hypercube),
        }

    return factories


def run(scale=None, runner=None, kernel=None) -> ExperimentResult:
    scale = resolve_scale(scale)
    if kernel is not None:
        resolve_kernel(kernel)
    batch = kernel == "batch"
    k = scale.fb_k
    result = ExperimentResult(
        experiment="fig06",
        description=f"Figure 6: topology comparison at N={k * k}",
        scale=scale.name,
    )
    dropped = {}
    if batch:
        from ..network.batch import unsupported_reason

        dropped = {
            name: reason
            for name, cls in SUITE_ALGORITHMS.items()
            if (reason := unsupported_reason(algorithm=cls())) is not None
        }
    suite = topology_suite(k, kernel=kernel)
    for pattern_name, pattern_factory in (
        ("UR", UniformRandom),
        ("WC", adversarial),
    ):
        factories = suite(pattern_factory)
        if batch:
            factories = {
                name: make for name, make in factories.items()
                if name not in dropped
            }
        latency = Table(
            title=f"({'a' if pattern_name == 'UR' else 'b'}) "
            f"latency vs offered load, {pattern_name} traffic",
            headers=["load"] + list(factories),
        )
        if batch:
            # One lockstep load-grid per topology row; the seed matches
            # the default-config seed so a pointwise batch run of the
            # same spec reproduces each point bit-for-bit.
            seeds = (SimulationConfig().seed,)
            curves = {
                name: batch_latency_load_curve(
                    make, scale.loads, seeds, scale.warmup,
                    scale.measure, scale.drain_max, runner=runner,
                )
                for name, make in factories.items()
            }
        else:
            curves = {
                name: latency_load_curve(
                    make, scale.loads, scale.warmup, scale.measure,
                    scale.drain_max, runner=runner, refine=4,
                )
                for name, make in factories.items()
            }
        for i, load in enumerate(scale.loads):
            row = [load]
            for name in factories:
                curve = curves[name]
                if i >= len(curve):
                    row.append(float("inf"))
                elif batch:
                    point = curve[i]
                    if any(r.saturated for r in point.results):
                        row.append(float("inf"))
                    else:
                        row.append(
                            sum(r.latency.mean for r in point.results)
                            / len(point.results)
                        )
                elif not curve[i].saturated:
                    row.append(curve[i].latency.mean)
                else:
                    row.append(float("inf"))
            latency.add(*row)
        result.tables.append(latency)

        throughput = Table(
            title=f"saturation throughput, {pattern_name} traffic",
            headers=["topology", "accepted throughput"],
        )
        for name, make in factories.items():
            throughput.add(
                name,
                saturation_throughput(
                    make, scale.warmup, scale.measure, runner=runner
                ),
            )
        result.tables.append(throughput)
    result.notes.append(
        "Table 1 routing: FB=CLOS AD (2 VCs), butterfly=destination-based "
        "(1 VC), folded Clos=adaptive sequential (1 VC), hypercube=e-cube (1 VC)"
    )
    result.notes.append(
        f"paper anchors: UR — folded Clos 50%, others 100%; WC — butterfly "
        f"~1/{k}, identical to FB (MIN); others ~50%"
    )
    if batch:
        for name, reason in dropped.items():
            result.notes.append(f"kernel=batch: dropped {name} — {reason}")
        result.notes.append(
            "kernel=batch: latency curves ran as one lockstep load-grid "
            "per topology; the folded-Clos saturation throughput reads "
            "~10% above the event kernel (no-backpressure FIFO model "
            "under deep saturation) — see docs/BATCH.md"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
