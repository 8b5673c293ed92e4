"""Event-kernel benchmark on the CI-scale 8-ary 2-flat.

Runs one open-loop measurement (MIN AD, uniform-random traffic,
CI-scale windows) at low, mid and saturation load, plus one point
with 5% failed links under fault-aware MIN AD, and emits ``BENCH_simulator.json`` with
a ``machine`` record (CPU count, CPU model, Python version) and, per
point:

* ``cycles_per_second`` — simulated cycles per wall-clock second
  (best of ``--repeat`` runs, i.e. minimum wall time — the least
  noise-contaminated repeat), plus ``cycles_per_second_mean`` and
  ``cycles_per_second_min`` over the same repeats so the spread is
  visible in the artifact,
* ``router_phase_calls`` — route+switch and wire visits
  (deterministic),
* ``events_dispatched`` and ``idle_cycles_skipped``,
* ``result_digest`` — a digest of the measured result and the final
  route-RNG state (deterministic).

Checked against a committed report (``--check-against``):

* hard: every point's ``result_digest`` and ``router_phase_calls``
  equal the committed values, so the kernel simulates exactly what it
  did when the baseline was recorded, with the same router-phase work;
* coarse: the best ``cycles_per_second`` stays within ``--tolerance``
  (default 25%) of the committed value at every point.

The report is written and printed before either gate runs, so a
failing run keeps its numbers.

Usage::

    python benchmarks/bench_simulator.py [--out BENCH_simulator.json]
        [--repeat 3] [--check-against BENCH_simulator.json]
"""

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)

from repro.core import MinimalAdaptive
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.faults import FaultAwareMinimalAdaptive, FaultModel
from repro.network import SimulationConfig, Simulator
from repro.traffic import UniformRandom

from _machine import machine

#: (label, offered load): low, mid, and saturation points.
LOADS = (("low", 0.1), ("mid", 0.5), ("saturation", 1.0))

#: CI-scale 8-ary 2-flat measurement windows (experiments/common.py).
FB_K = 8
WARMUP = 500
MEASURE = 500
DRAIN_MAX = 6000
SEED = 1

#: Fault scenario of the faulted point: permanent link failures, the
#: regime the resilience experiment sweeps, at its fault seed.
FAULTED_MODEL = FaultModel(link_failure_fraction=0.05, seed=2007)
FAULTED_LOAD = 0.5

#: (label, load, algorithm, fault model) for every benchmark point.
POINTS = tuple(
    (label, load, MinimalAdaptive, None) for label, load in LOADS
) + (("faulted", FAULTED_LOAD, FaultAwareMinimalAdaptive, FAULTED_MODEL),)


def _run(load, algorithm, faults):
    sim = Simulator(
        FlattenedButterfly(FB_K, 2),
        algorithm(),
        UniformRandom(),
        SimulationConfig(seed=SEED, faults=faults),
        kernel="event",
    )
    result = sim.run_open_loop(
        load, warmup=WARMUP, measure=MEASURE, drain_max=DRAIN_MAX
    )
    return sim, result


def _digest(sim, result):
    """Digest of the measured result and the final route-RNG state."""
    observed = (
        result.accepted_throughput,
        result.latency,
        result.network_latency,
        result.cycles,
        result.packets_labeled,
        result.packets_delivered,
        result.saturated,
        sim.route_rng.getstate(),
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()[:16]


def collect(repeat=3):
    """Measure every point; returns the report dict."""
    points = []
    for label, load, algorithm, faults in POINTS:
        best = None
        rates = []
        for _ in range(repeat):
            sim, result = _run(load, algorithm, faults)
            stats = result.kernel
            rates.append(stats.cycles_per_second)
            if best is None or stats.cycles_per_second > best["cycles_per_second"]:
                best = {
                    "cycles_per_second": stats.cycles_per_second,
                    "cycles": stats.cycles,
                    "router_phase_calls": stats.router_phase_calls,
                    "events_dispatched": stats.events_dispatched,
                    "idle_cycles_skipped": stats.idle_cycles_skipped,
                    "wall_seconds": stats.wall_seconds,
                    "result_digest": _digest(sim, result),
                }
        # Best (min wall time) is the headline; mean and worst expose
        # the repeat-to-repeat spread, which on shared runners
        # routinely exceeds real kernel differences.
        best["cycles_per_second_mean"] = sum(rates) / len(rates)
        best["cycles_per_second_min"] = min(rates)
        points.append(
            {
                "label": label,
                "offered_load": load,
                "algorithm": algorithm.__name__,
                "faulted": faults is not None,
                "event": best,
            }
        )
    return {
        "benchmark": "simulator-event-kernel",
        "machine": machine(),
        "config": {
            "topology": f"{FB_K}-ary 2-flat",
            "algorithm": "MIN AD",
            "pattern": "UR",
            "seed": SEED,
            "warmup": WARMUP,
            "measure": MEASURE,
            "drain_max": DRAIN_MAX,
            "repeat": repeat,
        },
        "points": points,
    }


def _deterministic(point):
    event = point["event"]
    return {
        "label": point["label"],
        "result_digest": event["result_digest"],
        "router_phase_calls": event["router_phase_calls"],
    }


def check_deterministic(report, baseline):
    """Hard gate: each point's result digest and router-phase calls
    equal the baseline's."""
    expected = {p["label"]: _deterministic(p) for p in baseline["points"]}
    failures = []
    for point in report["points"]:
        got = _deterministic(point)
        want = expected.get(point["label"])
        if want != got:
            failures.append(f"{point['label']}: {got} != committed {want}")
    if failures:
        raise AssertionError(
            "event kernel output or router-phase work moved off the "
            "committed baseline:\n  " + "\n  ".join(failures)
        )


def check_throughput(report, baseline, tolerance=0.25):
    """Coarse throughput-regression gate: fail when the event kernel's
    best ``cycles_per_second`` falls more than ``tolerance`` below the
    committed baseline at any load point.

    The baseline was measured on a development machine, so absolute
    rates differ from CI runners; the generous default tolerance is
    meant to catch structural regressions (an accidental O(N) loop in
    the hot path, a disabled fast path), not scheduler noise.
    """
    base_points = {p["label"]: p for p in baseline["points"]}
    failures = []
    for point in report["points"]:
        new = point["event"]["cycles_per_second"]
        old = base_points[point["label"]]["event"]["cycles_per_second"]
        if new < (1.0 - tolerance) * old:
            failures.append(
                f"{point['label']}: event kernel {new:.0f} c/s is below "
                f"{100 * (1 - tolerance):.0f}% of baseline {old:.0f} c/s"
            )
    if failures:
        raise AssertionError(
            "event-kernel throughput regression:\n  " + "\n  ".join(failures)
        )


def _print(report):
    for point in report["points"]:
        event = point["event"]
        print(
            f"{point['label']:>17} load={point['offered_load']}: "
            f"{event['cycles_per_second']:.0f} c/s, "
            f"{event['router_phase_calls']} phase calls, "
            f"digest {event['result_digest']}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_simulator.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions per point"
    )
    parser.add_argument(
        "--check-against",
        metavar="BASELINE_JSON",
        default=None,
        help="fail if any result digest or router_phase_calls differs from "
        "this committed report, or the event kernel's cycles_per_second "
        "regresses more than --tolerance below it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression for --check-against "
        "(default 0.25)",
    )
    args = parser.parse_args(argv)
    # Read before --out is written: the two may name the same file.
    baseline = None
    if args.check_against:
        with open(args.check_against) as handle:
            baseline = json.load(handle)
    report = collect(repeat=args.repeat)
    # Written and printed before the gates, so a failing run keeps its
    # numbers.
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    _print(report)
    print(f"wrote {args.out}")
    if baseline is not None:
        check_deterministic(report, baseline)
        print(f"deterministic gate passed: matches {args.check_against}")
        check_throughput(report, baseline, tolerance=args.tolerance)
        print(
            f"throughput gate passed: within {args.tolerance:.0%} of "
            f"{args.check_against}"
        )


if __name__ == "__main__":
    main()
