"""Shared jobs for the sweep kill-and-resume test, plus a subprocess
driver that runs them through a parallel ``SweepRunner`` and kills
itself mid-sweep.

The driver exists so the resume test can exercise the real failure
mode — the sweep *process* dying without any cleanup — rather than a
polite in-process shutdown.  ``main`` maps :func:`curve_jobs` through
``SweepRunner(jobs=2, cache=ResultCache(cache_dir))`` and
``os._exit(42)``s from the progress callback the moment ``die_after``
results have arrived.  The entries the runner cached before the kill
are all that survives, which is the entire point.

Everything job-related lives at module level (imported as
``tests._sweep_driver``, never run as ``__main__``) so the jobs'
cache keys and pickled specs resolve identically in the driver, its
pool workers, and the resuming test process.

Run as::

    python -c "from tests._sweep_driver import main; raise SystemExit(main())" CACHE_DIR DIE_AFTER
"""

import dataclasses
import os
import pickle
import sys

from repro.core import DimensionOrder
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import SimulationConfig, Simulator
from repro.runner import OpenLoopJob, ResultCache, SimSpec, SweepRunner
from repro.traffic import UniformRandom

LOADS = (0.2, 0.4, 0.6, 0.8, 1.0)
WINDOW = dict(warmup=50, measure=50, drain_max=400)

#: Exit status of a driver killed by its own progress callback.
KILLED_STATUS = 42


def make_fb_on(topology, algorithm_cls, pattern_factory, seed=1):
    """Module-level factory taking the topology first, so specs carry
    it as a warm-cacheable sub-spec."""
    return Simulator(
        topology, algorithm_cls(), pattern_factory(),
        SimulationConfig(seed=seed),
    )


def warm_spec():
    return SimSpec.of(
        make_fb_on, DimensionOrder, UniformRandom
    ).with_topology(FlattenedButterfly, 4, 2)


def curve_jobs():
    return [OpenLoopJob(warm_spec(), load, **WINDOW) for load in LOADS]


def payload_bytes(results):
    """Byte-level identity of the measurement payload (per-run kernel
    stats legitimately differ between execution modes)."""
    return pickle.dumps(
        [dataclasses.replace(r, kernel=None) for r in results]
    )


def main(argv=None) -> int:
    cache_dir, die_after = (sys.argv[1:] if argv is None else argv)
    die_after = int(die_after)

    def progress(done, total, job):
        if done >= die_after:
            os._exit(KILLED_STATUS)  # abrupt death, no cleanup at all

    runner = SweepRunner(
        jobs=2, cache=ResultCache(cache_dir), progress=progress
    )
    with runner:
        runner.map(curve_jobs())
    return 0
