"""Extension — resilience under link failures (not a paper figure).

Sweeps the fraction of permanently failed inter-router links and
measures throughput / latency degradation at a fixed offered load for
the flattened butterfly (UGAL and MIN AD), the conventional butterfly
(destination-tag), and the folded Clos (adaptive), all at N = k**2
with the same fault seed so every system faces a comparable failure
draw.

This turns the paper's path-diversity argument (Section 2.1: the
conventional butterfly has exactly one path per source–destination
pair, the flattened butterfly many) into a measured result:

* The conventional butterfly loses terminal pairs at the very first
  failed link on a used path — reported both structurally
  (disconnected pairs of the fault-masked topology view) and
  behaviorally (undeliverable packets).
* The flattened butterfly under UGAL degrades gracefully: when a
  minimal path dies, the Valiant fallback routes around it, so every
  pair stays deliverable until failures actually disconnect the
  graph.
* MIN AD on the same flattened butterfly shows that the *routing*
  matters, not just the wiring: restricted to minimal paths it loses
  pairs almost as fast as the butterfly (on a 1-D flat the minimal
  path between routers is unique), isolating the contribution of
  non-minimal adaptivity.
"""

from __future__ import annotations

from typing import Dict

from ..faults import (
    FaultAwareDestinationTag,
    FaultAwareFoldedClosAdaptive,
    FaultAwareMinimalAdaptive,
    FaultAwareUGAL,
    FaultedTopologyView,
    FaultModel,
)
from ..network import SimulationConfig, Simulator
from ..network.config import derive_seed
from ..network.config import replica_seeds as _traffic_replica_seeds
from ..runner import OpenLoopJob, SimSpec, resolve_runner
from ..topologies import Butterfly, FoldedClos
from ..topologies.hyperx import HyperX
from ..traffic import UniformRandom
from .common import ExperimentResult, Table, _summarize, resolve_scale

#: Failed-link fractions swept (0 is the fault-free reference point).
FAIL_FRACTIONS = (0.0, 0.02, 0.05, 0.10)

#: Offered load of the degradation measurement: well below every
#: system's fault-free saturation point, so throughput loss measures
#: disconnection and detours, not congestion.
MEASURE_LOAD = 0.3

#: Base seed of the fault-sampling streams (independent of the
#: traffic/routing seed; see FaultModel.seed).
FAULT_SEED = 2007


def fault_model(fraction: float, seed: int = FAULT_SEED) -> FaultModel:
    """The swept fault scenario: permanent link failures only."""
    return FaultModel(link_failure_fraction=fraction, seed=seed)


def replica_seeds(replica: int):
    """``(traffic_seed, fault_seed)`` for one replica.  Replica 0 uses
    the historical defaults (so its results stay byte-identical to the
    single-replica experiment); later replicas draw independent
    traffic *and* fault streams derived from the base seeds.

    The traffic side is the canonical per-replica family from
    :func:`repro.network.config.replica_seeds` — the same family the
    batch kernel uses — so replica ``i`` of this
    experiment drives the identical traffic RNG stream no matter which
    kernel or replication path runs it.  (Earlier revisions derived a
    private ``"resilience-replica"`` stream here, silently decoupling
    this experiment's replicas from every other replica family.)
    """
    traffic_seed = _traffic_replica_seeds(1, replica + 1)[replica]
    if replica == 0:
        return traffic_seed, FAULT_SEED
    return (
        traffic_seed,
        derive_seed(FAULT_SEED, "fault-replica", replica),
    )


def _config(fraction: float, replica: int = 0) -> SimulationConfig:
    traffic_seed, fault_seed = replica_seeds(replica)
    if fraction == 0.0:
        return SimulationConfig(seed=traffic_seed)
    return SimulationConfig(
        seed=traffic_seed, faults=fault_model(fraction, fault_seed)
    )


def _fb(topology, fraction: float, algorithm_cls, replica: int = 0) -> Simulator:
    return Simulator(
        topology, algorithm_cls(), UniformRandom(),
        _config(fraction, replica),
    )


def _butterfly(topology, fraction: float, replica: int = 0) -> Simulator:
    return Simulator(
        topology, FaultAwareDestinationTag(), UniformRandom(),
        _config(fraction, replica),
    )


def _folded_clos(topology, fraction: float, replica: int = 0) -> Simulator:
    return Simulator(
        topology, FaultAwareFoldedClosAdaptive(),
        UniformRandom(), _config(fraction, replica),
    )


def system_specs(k: int, fraction: float, replica: int = 0) -> Dict[str, SimSpec]:
    """Picklable simulator specs for the compared systems at one
    failed-link fraction.  The topology rides as a sub-spec, so warm
    workers build each system's topology once for the whole sweep —
    safe because the fault draw realizes into per-simulator state, not
    into the topology object.  ``replica`` appears in the description
    only when non-zero, keeping replica-0 cache keys (and results)
    those of the single-replica experiment."""
    extra = {"replica": replica} if replica else {}
    fb = SimSpec.of(HyperX, concentration=k, dims=(k,))
    return {
        "FB (UGAL)": SimSpec.of(
            _fb, fraction, FaultAwareUGAL, **extra
        ).with_topology(fb),
        "FB (MIN AD)": SimSpec.of(
            _fb, fraction, FaultAwareMinimalAdaptive, **extra
        ).with_topology(fb),
        "butterfly": SimSpec.of(
            _butterfly, fraction, **extra
        ).with_topology(Butterfly, k, 2),
        "folded Clos": SimSpec.of(
            _folded_clos, fraction, **extra
        ).with_topology(FoldedClos, k * k, k, taper=2),
    }


def _topology_for(name: str, k: int):
    if name.startswith("FB"):
        return HyperX(concentration=k, dims=(k,))
    if name == "butterfly":
        return Butterfly(k, 2)
    return FoldedClos(k * k, k, taper=2)


def run(scale=None, runner=None, replicas: int = 1) -> ExperimentResult:
    """``replicas > 1`` reruns every (fraction, system) point under
    independent traffic *and* fault seeds (see :func:`replica_seeds`)
    and appends a mean ± 95% CI throughput table.  The base tables are
    always built from replica 0 alone, so the default output is
    byte-identical regardless of ``replicas``."""
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    scale = resolve_scale(scale)
    k = scale.fb_k
    result = ExperimentResult(
        experiment="ext_resilience",
        description=(
            f"resilience under failed links at N={k * k}, "
            f"UR load {MEASURE_LOAD}"
        ),
        scale=scale.name,
    )
    systems = list(system_specs(k, 0.0))

    throughput = Table(
        title=f"accepted throughput vs failed-link fraction",
        headers=["failed_fraction"] + systems,
    )
    latency = Table(
        title=f"mean latency vs failed-link fraction",
        headers=["failed_fraction"] + systems,
    )
    undeliverable = Table(
        title=f"undeliverable packets vs failed-link fraction",
        headers=["failed_fraction"] + systems,
    )
    disconnected = Table(
        title="structurally disconnected terminal pairs "
        "(fault-masked topology view)",
        headers=["failed_fraction"] + systems,
    )

    # All (replica, fraction, system) points as one flat job list so a
    # parallel runner fans the whole sweep out at once; order is
    # preserved, and replica 0 comes first so the base tables read the
    # same results they always did.
    jobs = []
    for replica in range(replicas):
        for fraction in FAIL_FRACTIONS:
            for name, spec in system_specs(k, fraction, replica).items():
                jobs.append(
                    OpenLoopJob(
                        spec, MEASURE_LOAD, scale.warmup, scale.measure,
                        scale.drain_max,
                    )
                )
    runner = resolve_runner(runner)
    results = runner.map(jobs)

    cursor = iter(results)
    for fraction in FAIL_FRACTIONS:
        point = {name: next(cursor) for name in systems}
        throughput.add(
            fraction, *(point[name].accepted_throughput for name in systems)
        )
        latency.add(fraction, *(point[name].latency.mean for name in systems))
        undeliverable.add(
            fraction, *(point[name].packets_undeliverable for name in systems)
        )
        # Structural connectivity is a pure function of (topology,
        # fault model) — computed inline, no simulation needed.
        row = []
        for name in systems:
            topo = _topology_for(name, k)
            if fraction == 0.0:
                row.append(0)
            else:
                view = FaultedTopologyView(
                    topo, fault_model(fraction).sample(topo)
                )
                row.append(view.disconnected_terminal_pairs())
        disconnected.add(fraction, *row)
    result.tables.extend([throughput, latency, undeliverable, disconnected])

    if replicas > 1:
        # Replica aggregate: accepted throughput over all replicas per
        # (fraction, system), reported as mean and 95% CI half-width.
        # Appended after the base tables so their CSVs are untouched.
        per_point = {
            (fraction, name): []
            for fraction in FAIL_FRACTIONS for name in systems
        }
        cursor = iter(results)
        for replica in range(replicas):
            for fraction in FAIL_FRACTIONS:
                for name in systems:
                    per_point[(fraction, name)].append(
                        next(cursor).accepted_throughput
                    )
        headers = ["failed_fraction"]
        for name in systems:
            headers += [f"{name} mean", f"{name} ci95"]
        aggregate = Table(
            title=f"accepted throughput over {replicas} fault replicas "
            "(mean, 95% CI half-width)",
            headers=headers,
        )
        for fraction in FAIL_FRACTIONS:
            row = [fraction]
            for name in systems:
                summary = _summarize(tuple(per_point[(fraction, name)]))
                runner.report.note_replicated(summary)
                row += [summary.mean, summary.ci95]
            aggregate.add(*row)
        result.tables.append(aggregate)
        result.notes.append(
            f"replicas: {replicas} independent (traffic seed, fault seed) "
            "draws per point; replica 0 is the base tables' draw"
        )

    result.notes.append(
        "same fault seed across systems: each faces the same failure draw "
        "over its own channel set (channel counts differ per topology)"
    )
    result.notes.append(
        "expected shape: butterfly and FB (MIN AD) report undeliverable "
        "packets at the first fraction that kills a used path (unique "
        "destination-tag / minimal path); FB (UGAL) and the folded Clos "
        "stay fully deliverable via non-minimal fallback / spine diversity"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
