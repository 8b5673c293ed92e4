"""Cold start: what a fresh interpreter imports.

An event-kernel process must not pay for numpy, the worker pool or the
experiment harnesses it does not run.  Each check runs in a fresh
interpreter and reads its ``sys.modules`` at the end, so modules other
tests loaded cannot mask one."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules only a parallel map should load.
POOL_MODULES = {"concurrent.futures.process", "multiprocessing"}

#: Package modules that are not experiment harnesses.
NOT_HARNESSES = {"repro.experiments.common", "repro.experiments.__main__"}

EVENT_POINT = """
import repro, repro.experiments.common
from repro import (FlattenedButterfly, MinimalAdaptive, SimSpec,
                   SimulationConfig, Simulator, SweepRunner, UniformRandom)
from repro.runner import OpenLoopJob

def build():
    return Simulator(FlattenedButterfly(4, 2), MinimalAdaptive(),
                     UniformRandom(), SimulationConfig(seed=1))

result = SweepRunner(jobs=1).run(OpenLoopJob(SimSpec.of(build), 0.2, 50, 50, 500))
assert result.packets_delivered > 0
"""

BATCH_GRID = """
from repro import (FlattenedButterfly, MinimalAdaptive, SimSpec,
                   SimulationConfig, Simulator, SweepRunner, UniformRandom)
from repro.runner import run_batch_grid

def build():
    return Simulator(FlattenedButterfly(4, 2), MinimalAdaptive(),
                     UniformRandom(), SimulationConfig(seed=1), kernel="batch")

grid = run_batch_grid(SimSpec.of(build), (0.1, 0.3), (1, 2), 50, 50, 500,
                      runner=SweepRunner(jobs=1))
assert len(grid) == 2
"""

#: ``python -m repro.experiments table02 --no-cache``, run in-process.
CLI_TABLE02 = """
import runpy, sys
sys.argv = ["repro.experiments", "table02", "--no-cache"]
try:
    runpy.run_module("repro.experiments", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert not exit.code, exit.code
"""

#: Appended to each script: its loaded modules as the last output line.
REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(script):
    """Every module in ``sys.modules`` after a fresh interpreter runs
    ``script``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    result = subprocess.run(
        [sys.executable, "-c", script + REPORT],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _harnesses(modules):
    return {
        name for name in modules
        if name.startswith("repro.experiments.") and name not in NOT_HARNESSES
    }


def test_event_point_loads_no_numpy_pool_or_harness():
    modules = _loaded(EVENT_POINT)
    assert "repro.runner.sweep" in modules
    assert "numpy" not in modules
    assert not POOL_MODULES & modules
    assert not _harnesses(modules)


def test_cli_loads_only_its_experiment():
    modules = _loaded(CLI_TABLE02)
    assert _harnesses(modules) == {"repro.experiments.table02_constants"}
    assert "numpy" not in modules
    assert not POOL_MODULES & modules


def test_batch_grid_loads_numpy():
    pytest.importorskip("numpy")
    assert "numpy" in _loaded(BATCH_GRID)
