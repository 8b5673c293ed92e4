"""Extension — datacenter traffic on the unified workload plane (not a
paper figure).

Drives the three compared systems — the flattened butterfly under UGAL,
the conventional butterfly under destination-tag routing, and the
bisection-matched folded Clos under adaptive routing — with the
datacenter-style workloads of :mod:`repro.traffic.datacenter` plus the
closed-loop request→reply source, all described as
:class:`~repro.network.WorkloadSpec` configs so every point is a
cacheable :class:`~repro.runner.WorkloadJob`.

The sweeps extend the paper's adversarial-permutation argument
(Section 4) to the skewed regimes datacenters actually produce:

* **Hot-spot skew** — heavy racks aim half their (boosted) traffic at
  one hot rack.  Destination-tag routing concentrates each heavy rack's
  hot traffic on a single stage-0→stage-1 channel, so the butterfly
  saturates at a fraction of the load FB + UGAL sustains by spreading
  over its k-1 intermediate routers.
* **Incast fan-in** — periodic bursts from several racks into one
  target rack; whether the backlog drains within the epoch separates
  single-path from adaptive multi-path systems.
* **Permutation churn** — the classic fixed-permutation adversary
  re-drawn every epoch, exercising re-balance speed.
* **Request→reply** — a closed loop on two disjoint VC classes,
  reporting per-class latency/throughput from ``per_class``.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import UGAL
from ..core.flattened_butterfly import FlattenedButterfly
from ..network import SimulationConfig, Simulator, WorkloadSpec
from ..runner import SimSpec, WorkloadJob, execute_job, resolve_runner
from ..topologies import (
    Butterfly,
    DestinationTag,
    FoldedClos,
    FoldedClosAdaptive,
)
from .common import ExperimentResult, Table, resolve_scale

#: Rack count of every workload: at CI scale (k=8, N=64) one rack is
#: exactly the terminal block of one FB router / one butterfly stage-0
#: router / one Clos leaf, so rack skew is the same physical skew in
#: all three systems.
RACKS = 8

#: Hot-spot sweep: mean offered loads.  The butterfly's heavy-rack→hot
#: channel carries ~8x its fair share here, so it saturates between
#: 0.10 and 0.20 while FB + UGAL rides past 0.30.
HOTSPOT_LOADS = (0.05, 0.10, 0.20, 0.30, 0.35)
HOTSPOT_PARAMS = dict(racks=RACKS, heavy_racks=2, heavy_boost=3.0,
                      hot_fraction=0.5)

#: Incast sweep: packets each source terminal fires per epoch.  With
#: epoch 32 and rack size 8 (CI), the butterfly needs 8*burst cycles to
#: squeeze one rack's burst through its single channel toward the
#: target — past burst 4 the backlog outlives the epoch and compounds.
INCAST_BURSTS = (1, 2, 4, 6)
INCAST_EPOCH = 32
INCAST_FAN_RACKS = 4

#: Permutation-churn sweep: offered loads and re-randomization epoch.
CHURN_LOADS = (0.15, 0.30, 0.45)
CHURN_EPOCH = 128

#: Closed-loop request→reply point: request load and service delay.
#: Replies double the delivered traffic, so total load is ~2x this.
RR_LOAD = 0.15
RR_SERVICE_DELAY = 8


def _sim(topology, algorithm_cls, workload: WorkloadSpec,
         seed: int = 1) -> Simulator:
    return Simulator(
        topology, algorithm_cls(), None,
        SimulationConfig(seed=seed, workload=workload),
    )


def system_specs(k: int, workload: WorkloadSpec) -> Dict[str, SimSpec]:
    """Picklable simulator specs for the compared systems driving one
    workload.  Topologies ride as sub-specs so warm workers build each
    one once for the whole sweep."""
    return {
        "FB (UGAL)": SimSpec.of(
            _sim, UGAL, workload
        ).with_topology(FlattenedButterfly, k, 2),
        "butterfly": SimSpec.of(
            _sim, DestinationTag, workload
        ).with_topology(Butterfly, k, 2),
        "folded Clos": SimSpec.of(
            _sim, FoldedClosAdaptive, workload
        ).with_topology(FoldedClos, k * k, k, taper=2),
    }


def hotspot_spec(load: float) -> WorkloadSpec:
    return WorkloadSpec.of("hotspot_skew", load=load, **HOTSPOT_PARAMS)


def incast_spec(burst: int) -> WorkloadSpec:
    return WorkloadSpec.of(
        "incast", epoch=INCAST_EPOCH, burst=burst,
        fan_racks=INCAST_FAN_RACKS, racks=RACKS,
    )


def churn_spec(load: float) -> WorkloadSpec:
    return WorkloadSpec.of(
        "permutation_churn", load=load, epoch=CHURN_EPOCH, seed=0
    )


def request_reply_spec(load: float = RR_LOAD) -> WorkloadSpec:
    return WorkloadSpec.of(
        "request_reply", load=load, service_delay=RR_SERVICE_DELAY
    )


def _throughput_cell(result) -> float:
    return result.accepted_throughput


def _latency_cell(result) -> float:
    return float("inf") if result.saturated else result.latency.mean


def run(scale=None, runner=None) -> ExperimentResult:
    scale = resolve_scale(scale)
    k = scale.fb_k
    result = ExperimentResult(
        experiment="ext_datacenter",
        description=(
            f"datacenter workloads (hot-spot skew, incast, churn, "
            f"request-reply) at N={k * k}"
        ),
        scale=scale.name,
    )
    systems = list(system_specs(k, hotspot_spec(HOTSPOT_LOADS[0])))

    # One flat job list covering every (sweep, point, system) so a
    # parallel runner fans the whole experiment out at once.
    sweeps = (
        [("hotspot", load, hotspot_spec(load)) for load in HOTSPOT_LOADS]
        + [("incast", burst, incast_spec(burst)) for burst in INCAST_BURSTS]
        + [("churn", load, churn_spec(load)) for load in CHURN_LOADS]
        + [("request_reply", RR_LOAD, request_reply_spec())]
    )
    jobs: List[WorkloadJob] = []
    for _sweep, _point, workload in sweeps:
        for spec in system_specs(k, workload).values():
            jobs.append(
                WorkloadJob(spec, scale.warmup, scale.measure, scale.drain_max)
            )
    results = resolve_runner(runner).map(jobs)

    cursor = iter(results)
    points = {
        (sweep, point): {name: next(cursor) for name in systems}
        for sweep, point, _workload in sweeps
    }

    for sweep, axis, points_axis, title in (
        ("hotspot", "load", HOTSPOT_LOADS,
         "hot-spot skew"),
        ("incast", "burst", INCAST_BURSTS,
         f"incast (epoch {INCAST_EPOCH}, {INCAST_FAN_RACKS} source racks)"),
        ("churn", "load", CHURN_LOADS,
         f"permutation churn (epoch {CHURN_EPOCH})"),
    ):
        throughput = Table(
            title=f"delivered throughput vs {axis}, {title}",
            headers=[axis, "offered_load"] + systems,
        )
        latency = Table(
            title=f"mean latency vs {axis}, {title}",
            headers=[axis] + systems,
        )
        for value in points_axis:
            point = points[(sweep, value)]
            offered = point[systems[0]].offered_load
            throughput.add(
                value, offered,
                *(_throughput_cell(point[name]) for name in systems),
            )
            latency.add(
                value, *(_latency_cell(point[name]) for name in systems)
            )
        result.tables.extend([throughput, latency])

    # Closed-loop request→reply: per-class latency and throughput on
    # disjoint VC partitions (class 0 = request, class 1 = reply).
    per_class = Table(
        title=f"request-reply per-class stats (request load {RR_LOAD})",
        headers=["msg_class"]
        + [f"{name} latency" for name in systems]
        + [f"{name} throughput" for name in systems],
    )
    rr_point = points[("request_reply", RR_LOAD)]
    for cls in range(2):
        per_class.add(
            cls,
            *(rr_point[name].per_class[cls].latency.mean for name in systems),
            *(rr_point[name].per_class[cls].throughput for name in systems),
        )
    result.tables.append(per_class)

    result.notes.append(
        f"racks: {RACKS} contiguous terminal blocks; at CI scale one rack "
        f"is one FB router / butterfly stage-0 router / Clos leaf"
    )
    result.notes.append(
        "expected shape: destination-tag butterfly saturates first under "
        "hot-spot skew and incast (single channel per rack pair); FB+UGAL "
        "spreads the skew over its k-1 intermediate routers and sustains "
        "delivered throughput at loads where the butterfly has collapsed"
    )
    result.notes.append(
        "request-reply runs classes 0/1 on disjoint VC partitions "
        "(protocol deadlock freedom); reply latency excludes the "
        f"{RR_SERVICE_DELAY}-cycle service delay by construction (it is "
        "measured from reply injection)"
    )
    return result


def golden_point(scale="ci") -> ExperimentResult:
    """One CI-scale datacenter point for the golden-CSV regression: the
    hot-spot sweep's below-saturation load on all three systems.  Kept
    tiny so the golden test stays fast; regenerate with
    ``scripts/gen_datacenter_golden.py`` after intentional changes."""
    scale = resolve_scale(scale)
    k = scale.fb_k
    load = HOTSPOT_LOADS[1]
    result = ExperimentResult(
        experiment="ext_datacenter",
        description=f"golden hot-spot point at N={k * k}, load {load}",
        scale=scale.name,
    )
    table = Table(
        title=f"golden hot-spot point",
        headers=["system", "offered_load", "throughput", "latency_mean",
                 "saturated"],
    )
    for name, spec in system_specs(k, hotspot_spec(load)).items():
        point = execute_job(
            WorkloadJob(spec, scale.warmup, scale.measure, scale.drain_max)
        )
        table.add(
            name, point.offered_load, point.accepted_throughput,
            point.latency.mean, point.saturated,
        )
    result.tables.append(table)
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
