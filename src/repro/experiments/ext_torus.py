"""Extension — low-radix vs high-radix (the paper's introduction,
quantified).

Not a numbered figure: the introduction *argues* that k-ary n-cubes
cannot exploit high-radix routers.  This experiment compares a torus
against the flattened butterfly at equal node count on performance
(simulated) and economics (Section 4 model).
"""

from __future__ import annotations

from ..core import ClosAD
from ..core.flattened_butterfly import FlattenedButterfly
from ..cost import flattened_butterfly_census, price_census, torus_census
from ..network import SimulationConfig, Simulator
from ..runner import OpenLoopJob, SaturationJob, SimSpec, resolve_runner
from ..topologies import Torus, TorusDOR
from ..traffic import UniformRandom
from .common import ExperimentResult, Table, resolve_scale

TORUS_DIMS = {4: (4, 4), 8: (4, 4, 4), 32: (16, 8, 8)}


def _make(topology, algorithm_cls) -> Simulator:
    return Simulator(
        topology, algorithm_cls(), UniformRandom(), SimulationConfig(seed=3)
    )


def run(scale=None, runner=None) -> ExperimentResult:
    scale = resolve_scale(scale)
    n = scale.fb_k**2
    torus_dims = TORUS_DIMS.get(scale.fb_k)
    if torus_dims is None:
        raise ValueError(f"no torus shape configured for k={scale.fb_k}")
    systems = [
        ("torus", Torus, (torus_dims,), TorusDOR),
        ("flattened butterfly", FlattenedButterfly, (scale.fb_k, 2), ClosAD),
    ]

    perf = Table(
        title="performance (uniform random)",
        headers=["network", "radix", "diameter", "latency @0.1", "saturation"],
    )
    jobs = []
    for _name, topology_cls, args, algorithm_cls in systems:
        spec = SimSpec.of(_make, algorithm_cls).with_topology(
            topology_cls, *args
        )
        jobs.append(OpenLoopJob(spec, 0.1, scale.warmup, scale.measure,
                                scale.drain_max))
        jobs.append(SaturationJob(spec, scale.warmup, scale.measure))
    outcomes = resolve_runner(runner).map(jobs)
    point = iter(outcomes)
    for name, topology_cls, args, _algorithm_cls in systems:
        low, sat = next(point), next(point)
        topology = topology_cls(*args)
        perf.add(name, topology.router_radix, topology.diameter(),
                 low.latency.mean, sat)

    cost = Table(
        title="economics ($/node)",
        headers=["network", "total", "routers", "links"],
    )
    torus_priced = price_census(torus_census(torus_dims))
    fb_priced = price_census(flattened_butterfly_census(n))
    for name, priced in (("torus", torus_priced),
                         ("flattened butterfly", fb_priced)):
        cost.add(name, priced.cost_per_node, priced.router_cost / n,
                 priced.link_cost / n)

    result = ExperimentResult(
        experiment="ext_torus",
        description=f"Extension: low-radix torus vs flattened butterfly at N={n}",
        scale=scale.name,
        tables=[perf, cost],
    )
    result.notes.append(
        "the torus wins on cable cost but pays a one-low-radix-router-"
        "per-node fixed cost and a diameter's worth of latency — the "
        "introduction's motivation for high-radix topologies"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
