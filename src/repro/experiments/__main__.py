"""Command-line entry point: ``python -m repro.experiments <id>``.

Examples::

    python -m repro.experiments fig04            # CI scale, serial
    python -m repro.experiments fig04 --jobs 4   # parallel sweep
    python -m repro.experiments fig04 --scale paper
    python -m repro.experiments all              # every experiment

Simulation experiments accept ``--jobs`` (or the ``REPRO_JOBS``
environment variable) to fan independent points over worker processes;
results are bit-identical to a serial run.  Completed points are
cached on disk (``--cache-dir``, default ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-flatbfly``) so repeated runs are nearly free; pass
``--no-cache`` to always re-simulate.

``--fabric host:port`` swaps the local pool for the distributed sweep
fabric: a coordinator binds the given address and `repro fabric
worker` processes (local or remote) execute the points.  Combined with
``--campaign NAME`` the run is durable — kill it at any moment and
``repro fabric resume NAME`` finishes exactly the missing jobs.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

from . import ALL_EXPERIMENTS
from ..network import KERNELS
from ..profiling import PROFILE_ENV, format_phase_report
from ..runner import ResultCache, SweepRunner, resolve_jobs
from ..runner.sweep import stderr_progress


def _print_profile(name: str, report, profiler) -> None:
    """Emit the --profile output for one experiment: the kernel phase
    breakdown and counters gathered by the sweep, then the cProfile
    hot list."""
    import io
    import pstats

    print(f"\n=== profile: {name} ===")
    phases = getattr(report, "phase_seconds", None)
    if phases:
        print(format_phase_report(phases))
    counters = [
        ("route calls", getattr(report, "route_calls", 0)),
        ("flits allocated", getattr(report, "flits_allocated", 0)),
        ("flits reused", getattr(report, "flits_reused", 0)),
    ]
    if any(count for _label, count in counters):
        print("kernel counters:")
        for label, count in counters:
            print(f"  {label:15s} {count:>12,}")
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(25)
    print("cProfile (top 25 by total time):")
    print(stream.getvalue().rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a figure/table of the flattened-butterfly paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="experiment id (fig04 = Figure 4, table04 = Table 4, ...)",
    )
    parser.add_argument(
        "--scale",
        choices=["ci", "paper"],
        default=None,
        help="simulation scale (default: ci, or paper when REPRO_FULL=1)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each result table as CSV into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation sweeps (0 = all CPUs; "
        "default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-flatbfly)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--fabric",
        metavar="HOST:PORT",
        default=None,
        help="run sweeps on the distributed fabric: bind a coordinator "
        "here and dispatch to `repro fabric worker` processes instead "
        "of a local pool (trusted networks only; see docs/FABRIC.md)",
    )
    parser.add_argument(
        "--campaign",
        metavar="NAME",
        default=None,
        help="with --fabric: durable campaign name for the manifest, "
        "so an interrupted run can be finished with "
        "`repro fabric resume NAME` (default: auto-generated)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-point sweep progress (with ETA) to stderr",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="independent replicas per point, for experiments that "
        "support replica statistics (currently ext_resilience and "
        "fig04 with --kernel batch); replica 0 reproduces the default "
        "output",
    )
    parser.add_argument(
        "--kernel",
        choices=list(KERNELS),
        default=None,
        help="simulation kernel for experiments that support the "
        "option (fig04, fig05, fig06, fig12, ext_patterns; 'batch' "
        "runs whole load grids and replica sets in lockstep on the "
        "vectorized backend and requires numpy — experiments outside "
        "its envelope say so and name the event-kernel fallback)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run: serial, cache disabled, kernel phase "
        "timers on; prints a phase breakdown plus the cProfile hot list "
        "per experiment",
    )
    args = parser.parse_args(argv)
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    try:
        resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    if args.replicas is not None and args.replicas < 1:
        parser.error(f"--replicas must be >= 1, got {args.replicas}")
    if args.fabric is not None and args.no_cache:
        parser.error(
            "--fabric needs the result cache (it is the fabric's artifact "
            "store and checkpoint); drop --no-cache"
        )
    if args.fabric is not None and args.profile:
        parser.error("--profile is local-only; drop --fabric")
    if args.campaign is not None:
        if args.fabric is None:
            parser.error("--campaign only makes sense with --fabric")
        from ..fabric.manifest import safe_campaign_name

        try:
            safe_campaign_name(args.campaign)
        except ValueError as exc:
            parser.error(str(exc))

    if args.profile:
        # Serial and uncached so the profile reflects the simulation
        # itself, not worker scheduling or cache replay; the env flag
        # switches every simulator built under this process (and any
        # sweep worker, had --jobs been forced) to the timed kernel
        # step.
        args.jobs = 1
        args.no_cache = True
        os.environ[PROFILE_ENV] = "1"

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    for name in names:
        if args.fabric is not None:
            from ..fabric import FabricRunner

            # One campaign per experiment: rerunning the same command
            # after a crash reloads the manifest and finishes it.
            campaign = (
                f"{args.campaign}-{name}" if args.campaign and len(names) > 1
                else args.campaign
            )
            runner = FabricRunner(
                listen=args.fabric,
                cache=cache,
                progress=stderr_progress(name) if args.progress else None,
                campaign=campaign,
            )
            print(
                f"[fabric] {name}: coordinator at "
                f"{runner.address[0]}:{runner.address[1]}, campaign "
                f"{runner.campaign.name!r}",
                file=sys.stderr,
            )
        else:
            runner = SweepRunner(
                jobs=args.jobs,
                cache=cache,
                progress=stderr_progress(name) if args.progress else None,
            )
        start = time.time()
        run = ALL_EXPERIMENTS[name].run
        parameters = inspect.signature(run).parameters
        kwargs = {}
        if "runner" in parameters:
            kwargs["runner"] = runner
        if args.replicas is not None and "replicas" in parameters:
            kwargs["replicas"] = args.replicas
        if args.kernel is not None:
            if "kernel" not in parameters:
                parser.error(
                    f"experiment {name!r} does not support --kernel"
                )
            kwargs["kernel"] = args.kernel
        profiler = None
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        try:
            result = run(args.scale, **kwargs)
        except NotImplementedError as exc:
            if args.kernel is None:
                raise
            # The experiment (or a config inside it) is outside the
            # requested kernel's envelope; the message already names
            # the supported alternative.
            print(f"[{name}] --kernel {args.kernel}: {exc}", file=sys.stderr)
            return 2
        finally:
            runner.close()
        if profiler is not None:
            profiler.disable()
        print(result.to_text())
        if args.csv:
            for path in result.write_csv(args.csv):
                print(f"[wrote {path}]")
        if profiler is not None:
            _print_profile(name, runner.report, profiler)
        footer = f"\n[{name} completed in {time.time() - start:.1f}s"
        if runner.report.total:
            footer += f" — {runner.report.summary()}"
        print(footer + "]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
