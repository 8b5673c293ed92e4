"""Figure 5 — dynamic response: transient load imbalance.

Time to deliver a batch of adversarial traffic, normalized to batch
size, for each routing algorithm.  As batch size grows the normalized
latency approaches the inverse of the algorithm's throughput; at small
batch sizes it exposes transient load imbalance: UGAL's greedy
allocator overloads the minimal queue, UGAL-S fixes that but not the
oblivious intermediate imbalance, and CLOS AD eliminates both.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core import ClosAD, MinimalAdaptive, UGAL, UGALSequential, Valiant
from ..core.flattened_butterfly import FlattenedButterfly
from ..network import SimulationConfig, Simulator, resolve_kernel
from ..runner import BatchJob, SimSpec, resolve_runner
from ..traffic import adversarial
from .common import ExperimentResult, Table, resolve_scale

ALGORITHMS: Dict[str, Callable] = {
    "VAL": Valiant,
    "UGAL": UGAL,
    "UGAL-S": UGALSequential,
    "CLOS AD": ClosAD,
    "MIN AD": MinimalAdaptive,
}


def _make(topology, algorithm_cls, kernel: str = None) -> Simulator:
    return Simulator(
        topology,
        algorithm_cls(),
        adversarial(),
        SimulationConfig(),
        kernel=kernel,
    )


def run(scale=None, runner=None, kernel=None) -> ExperimentResult:
    scale = resolve_scale(scale)
    if kernel is not None:
        resolve_kernel(kernel)
    if kernel == "batch":
        # The dynamic-response measurement drains one fixed batch of
        # packets and watches the transient — a per-cycle delivery-hook
        # workload the lockstep array backend has no program for.
        raise NotImplementedError(
            "fig05 measures dynamic batch response (Simulator.run_batch), "
            "which kernel='batch' does not implement; use kernel='event'"
        )
    extra = {} if kernel is None else {"kernel": kernel}
    table = Table(
        title="batch latency / batch size (WC traffic)",
        headers=["batch size"] + list(ALGORITHMS),
    )
    jobs = [
        BatchJob(
            SimSpec.of(_make, cls, **extra).with_topology(
                FlattenedButterfly, scale.fb_k, 2
            ),
            batch,
        )
        for batch in scale.batch_sizes
        for cls in ALGORITHMS.values()
    ]
    outcomes = resolve_runner(runner).map(jobs)
    point = iter(outcomes)
    for batch in scale.batch_sizes:
        row = [batch]
        for name in ALGORITHMS:
            row.append(next(point).normalized_latency)
        table.add(*row)
    result = ExperimentResult(
        experiment="fig05",
        description=(
            f"Figure 5: dynamic response on a {scale.fb_k}-ary 2-flat "
            f"(N={scale.fb_k**2})"
        ),
        scale=scale.name,
        tables=[table],
    )
    result.notes.append(
        "paper shape: at small batches UGAL worst of the non-minimal "
        "algorithms (greedy transients), CLOS AD best; at large batches "
        "each algorithm approaches 1/throughput "
        f"(~2 for non-minimal, ~{scale.fb_k} for MIN AD)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
