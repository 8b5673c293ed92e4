"""End-to-end benchmark of the flattened-butterfly reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig04-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats the
workload's timed unit until ``--seconds`` have passed and launches
fresh interpreters to time set-up.  Every time is taken with a speed
probe running (``speed.py``) and reported in seconds at the probe's
reference speed, so that the host's drifting speed cancels out; the
host seconds go into the record next to them.  ``--trace 1``
alternates untraced and traced units (phase profiler on, spans around
every call into a package layer) and reports the per-layer metrics
instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (machine
fingerprint, pinned environment, every unit's times and, when traced,
every span) goes to ``.perfbench/out/``.  The command exits 1 when any
checked point fails.

``README.md`` next to this file says why each workload exists and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch and result files, inside the checkout and git-ignored.
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: (name, unit, better) — the end-to-end metrics of ``--trace 0``.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "frac", "higher"),
)

#: (name, unit, better) — the per-layer metrics of ``--trace 1``.  A
#: metric of a layer the workload never calls reads 0.
PER_LAYER = (
    ("core.topology_build_s", "s", "lower"),
    ("core.route_arrays_s", "s", "lower"),
    ("simulator.construct_s", "s", "lower"),
    ("batch.backend_build_s", "s", "lower"),
    ("simulator.deliver_s", "s", "lower"),
    ("simulator.inject_s", "s", "lower"),
    ("simulator.route_switch_s", "s", "lower"),
    ("simulator.wire_s", "s", "lower"),
    ("simulator.cycles", "count", "higher"),
    ("simulator.route_calls", "count", "lower"),
    ("simulator.events_dispatched", "count", "lower"),
    ("simulator.router_phase_calls", "count", "lower"),
    ("simulator.idle_cycles_skipped", "count", "higher"),
    ("simulator.flit_reuse_ratio", "frac", "higher"),
    ("simulator.ns_per_route_call", "ns", "lower"),
    ("batch.grid_s", "s", "lower"),
    ("batch.run_cycles", "count", "higher"),
    ("batch.ns_per_run_cycle", "ns", "lower"),
    ("batch.scratch_allocs", "count", "lower"),
    ("batch.scratch_reuses", "count", "higher"),
    ("batch.scratch_reuse_ratio", "frac", "higher"),
    ("runner.map_s", "s", "lower"),
    ("runner.cache_get_s", "s", "lower"),
    ("runner.cache_put_s", "s", "lower"),
    ("runner.overhead_s", "s", "lower"),
    ("runner.executed", "count", "lower"),
    ("runner.cache_hits", "count", "higher"),
    ("runner.cache_hit_ratio", "frac", "higher"),
    ("runner.cache_bytes", "bytes", "lower"),
    ("runner.warm_map_s", "s", "lower"),
    ("runner.point_s_p50", "s", "lower"),
    ("runner.point_s_p90", "s", "lower"),
    ("runner.topology_builds", "count", "lower"),
    ("runner.route_table_builds", "count", "lower"),
    ("runner.warm_topology_hits", "count", "higher"),
    ("experiments.curve_s", "s", "lower"),
    ("experiments.saturation_s", "s", "lower"),
    ("experiments.saturation_probes", "count", "lower"),
    ("model.mean_latency_cycles", "cycles", "lower"),
    ("model.accepted_throughput", "flits/node/cyc", "higher"),
    ("model.packets_delivered", "count", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)

#: Per-layer times read straight off the spans of one traced unit.
SPAN_METRICS = {
    "core.topology_build_s": "core.topology_build",
    "core.route_arrays_s": "core.route_arrays",
    "simulator.construct_s": "simulator.construct",
    "batch.backend_build_s": "batch.backend_build",
    "batch.grid_s": "batch.grid",
    "runner.map_s": "runner.map",
    "runner.warm_map_s": "runner.warm_map",
    "runner.cache_get_s": "runner.cache_get",
    "runner.cache_put_s": "runner.cache_put",
    "experiments.curve_s": "experiments.curve",
    "experiments.saturation_s": "experiments.saturation",
}

#: Timed units per run even when ``--seconds`` runs out first.
MIN_UNITS = 3


def pinned_env() -> dict:
    """This process's environment with every ``REPRO_*`` toggle
    removed, string hashing fixed and the package on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def is_pinned() -> bool:
    return (
        os.environ.get("PYTHONHASHSEED") == "0"
        and os.environ.get("PYTHONPATH") == SRC
        and "PYTHONDONTWRITEBYTECODE" not in os.environ
        and not any(k.startswith("REPRO_") for k in os.environ
                    if k != "REPRO_CACHE_DIR")
    )


def steady(values):
    """A run's statistic for a repeated unit: the median unit.

    The machine's speed drifts over tens of seconds; the median of
    units spread over the whole run averages those phases, where the
    fastest unit swings with whichever phase the run caught (see
    README.md, "Noise")."""
    return statistics.median(values)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_sha():
    """HEAD's commit id read from ``.git`` (``None`` outside a git
    checkout; no git process, nothing read outside the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of every ``.py`` file of the package, so a result names
    the code it measured even where there is no git history."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for directory, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def setup_probe_launcher(workload, seed: int, size: str, env: dict):
    """A callable that launches one fresh interpreter and returns the
    seconds from launch to the moment the workload's set-up is done and
    its first cycle would run, as ``(reference seconds, host
    seconds)``.  The child runs the workload's speed probe and sends
    back its samples.  The clock is ``perf_counter``
    (CLOCK_MONOTONIC), which parent and child share."""
    command = [sys.executable, os.path.abspath(__file__),
               "--setup-probe", workload.speed_kernel,
               "--workload", workload.name, "--seed", str(seed),
               "--size", size]
    reference = speed.REFERENCE_S[workload.speed_kernel]

    def launch():
        started = time.perf_counter()
        child = subprocess.run(command, env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        report = json.loads(child.stdout.splitlines()[-1])
        rescaled, host, _ = speed.rescale(
            report["samples"], started, report["end"], reference)
        return rescaled, host

    return launch


def run_unit(workload, tracer, workdir: str, probe) -> dict:
    """One set-up (untimed) plus one timed unit, with the speed
    ``probe`` running.  ``wall_s`` and ``cpu_s`` are in reference
    seconds, ``host_wall_s`` and ``host_cpu_s`` in host seconds; all
    four leave out the probe's own time."""
    gc.collect()
    first = len(tracer.spans)
    state = workload.setup(tracer, workdir)
    try:
        with probe.running():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            raw = workload.unit(state, tracer)
            wall1, cpu1 = time.perf_counter(), time.process_time()
        outcome = workload.summarize(state, raw)
    finally:
        workload.close(state)
    wall, host_wall, probe_s = probe.rescale(wall0, wall1)
    host_cpu = cpu1 - cpu0 - probe_s
    seconds = dict(outcome.seconds)
    for metric, span in SPAN_METRICS.items():
        seconds[metric] = tracer.total(span, first)
    return {
        "traced": tracer.enabled,
        "wall_s": wall,
        "cpu_s": host_cpu * wall / host_wall,
        "host_wall_s": host_wall,
        "host_cpu_s": host_cpu,
        "cycles": outcome.cycles,
        "points": outcome.points,
        "counts": outcome.counts,
        "seconds": seconds,
    }


def run_units(workload, tracers, seconds: float, workdir: str,
              launch=None):
    """An untimed warm-up unit, then units cycling through ``tracers``
    until ``seconds`` have passed and every tracer has had
    ``MIN_UNITS`` units.  With a set-up ``launch``, one
    fresh-interpreter launch follows every unit, so set-up time is
    sampled across the whole run as the units are.  Returns ``(units,
    setup_times)``."""
    probe = speed.SpeedProbe(workload.speed_kernel)
    units = [run_unit(workload, tracers[0], workdir, probe)]
    units[0]["warmup"] = True
    setup_times = []
    if launch is not None:
        launch()  # leaves bytecode compiled; not timed
    started = time.perf_counter()
    i = 0
    while (time.perf_counter() - started < seconds
           or i < MIN_UNITS * len(tracers)):
        units.append(run_unit(workload, tracers[i % len(tracers)], workdir,
                              probe))
        if launch is not None:
            setup_times.append(launch())
        i += 1
    return units, setup_times


def per_layer(units: list) -> dict:
    """Per-layer metrics from the traced units: counts (identical in
    every traced unit) and the median of each per-layer time."""
    traced = [u for u in units if u["traced"]]
    untraced = [u for u in units if not u["traced"] and not u.get("warmup")]
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update(traced[0]["counts"])
    for name in traced[0]["seconds"]:
        metrics[name] = statistics.median(u["seconds"][name] for u in traced)
    route_calls = metrics["simulator.route_calls"]
    if route_calls:
        metrics["simulator.ns_per_route_call"] = (
            metrics["simulator.route_switch_s"] / route_calls * 1e9)
    if metrics["batch.run_cycles"]:
        metrics["batch.ns_per_run_cycle"] = (
            metrics["batch.grid_s"] / metrics["batch.run_cycles"] * 1e9)
    metrics["trace.overhead_frac"] = (
        steady([u["wall_s"] for u in traced])
        / steady([u["wall_s"] for u in untraced]) - 1.0
    )
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def count_points(units: list):
    """``(attempted, failures)`` over every unit's checked points,
    plus one check that each unit's counts repeat exactly."""
    attempted = 0
    failures = []
    for unit in units:
        for label, error in unit["points"]:
            attempted += 1
            if error is not None:
                failures.append(f"{label}: {error}")
    for traced in (False, True):
        same = [u for u in units if u["traced"] == traced]
        if same:
            attempted += 1
            if any(u["counts"] != same[0]["counts"] or
                   u["cycles"] != same[0]["cycles"] for u in same):
                failures.append(
                    f"counts differ between {'traced' if traced else 'untraced'}"
                    f" units of one seed")
    return attempted, failures


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            workdir: str, reference=None, golden_dir=None) -> dict:
    """Run one workload and return the full record (see module doc)."""
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[name]
    if cls is workloads.Fig04Sweep:
        workload = cls(size, seed, golden_dir or workloads.GOLDEN_DIR)
    else:
        if reference is None:
            with open(workloads.REFERENCE_PATH) as handle:
                reference = json.load(handle)
        workload = cls(size, seed, reference)
    tracer = Tracer(enabled=True)
    tracers = [Tracer(enabled=False), tracer] if trace else [Tracer(enabled=False)]
    launch = None if trace else setup_probe_launcher(
        workload, seed, size, dict(pinned_env(), REPRO_CACHE_DIR=workdir))
    units, setup = run_units(workload, tracers, seconds, workdir, launch)
    attempted, failures = count_points(units)
    timed = [u for u in units if not u.get("warmup") and not u["traced"]]
    record = {
        "workload": name,
        "size": size,
        "statistic": "median unit",
        "speed_kernel": workload.speed_kernel,
        "units": [{k: u[k] for k in ("traced", "wall_s", "cpu_s",
                                     "host_wall_s", "host_cpu_s", "cycles")}
                  for u in units],
        "failures": failures,
    }
    if trace:
        metrics = per_layer(units)
        record["spans"] = tracer.spans
        record["self_seconds"] = tracer.self_times()
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = steady([u["wall_s"] for u in timed])
        record["setup_launches_s"] = [s for s, _ in setup]
        record["host"] = {
            "wall_s": steady([u["host_wall_s"] for u in timed]),
            "cpu_s": steady([u["host_cpu_s"] for u in timed]),
            "setup_s": statistics.median(h for _, h in setup),
        }
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(s for s, _ in setup),
            "cpu_s": steady([u["cpu_s"] for u in timed]),
            "sim_cycles_per_s": timed[0]["cycles"] / wall,
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (attempted - len(failures)) / attempted,
        }
    units_of = dict((n, u) for n, u, _ in END_TO_END + PER_LAYER)
    record["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units_of[k]}
                    for k, v in metrics.items()},
    }
    return record


def setup_probe(kernel: str, name: str, seed: int, size: str) -> None:
    """Child side of :func:`setup_probe_launcher`: set up with the
    speed probe running, print the clock and the probe's samples."""
    probe = speed.SpeedProbe(kernel)
    with probe.running():
        import workloads
        from spans import Tracer

        workload = workloads.WORKLOADS[name](size, seed)
        state = workload.setup(Tracer(enabled=False),
                               os.environ["REPRO_CACHE_DIR"])
        end = time.perf_counter()
    workload.close(state)
    print(json.dumps({"end": end, "samples": probe.samples}), flush=True)


def record_reference(workdir: str) -> None:
    """Write ``reference.json``: per-point result digests of the two
    paper-scale workloads at the default seed.  Rerun only when a
    change to the simulated model is intended."""
    import workloads
    from spans import Tracer

    reference = {}
    for cls in (workloads.PaperPointEvent, workloads.PaperGridBatch):
        for size in cls.sizes:
            workload = cls(size, workloads.DEFAULT_SEED)
            tracer = Tracer(enabled=False)
            state = workload.setup(tracer, workdir)
            results = workload.results(workload.unit(state, tracer))
            reference[f"{cls.name}/{size}"] = [
                workloads.result_digest(r) for r in results]
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="fig04-sweep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper",
                        help="tiny: the benchmark's own test size")
    parser.add_argument("--setup-probe", metavar="KERNEL",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the default seed")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no package source at {SRC}/repro; run from "
                 f"the root of a repository checkout")
    # One CPU for this process and every process it starts: the
    # highest-numbered allowed one, where interrupts are least likely.
    # A fresh interpreter left free to start on another CPU pays for
    # cold caches and spreads numpy's thread pool, which made set-up
    # times slower and wider.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not is_pinned():
        # Re-enter with the pinned environment, so that no REPRO_*
        # toggle and no random string hashing reach this process.
        os.execve(sys.executable, [sys.executable] + sys.argv, pinned_env())
    sys.path[:0] = [SRC, HERE]

    if args.setup_probe:
        setup_probe(args.setup_probe, args.workload, args.seed, args.size)
        return 0
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    os.environ["REPRO_CACHE_DIR"] = workdir
    try:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; pick one of "
                         f"{sorted(workloads.WORKLOADS)}")
        if args.record_reference:
            record_reference(workdir)
            return 0
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = {
        "pinned": {
            "REPRO_CACHE_DIR": os.path.relpath(workdir, ROOT),
            "other REPRO_* variables": "removed",
            "PYTHONHASHSEED": os.environ["PYTHONHASHSEED"],
            "PYTHONPATH": os.path.relpath(os.environ["PYTHONPATH"], ROOT),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
        },
        "machine": fingerprint(args.seed),
    }
    out_dir = os.path.join(WORK_ROOT, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"],
                      "host_seconds": record.get("host"),
                      "units_wall_s": [u["wall_s"] for u in record["units"]]}))
    print(json.dumps(record["result"]))
    return 0 if not record["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
