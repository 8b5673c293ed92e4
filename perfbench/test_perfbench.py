"""The benchmark's own test, at tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

It checks that every metric named in ``BENCHMARK.json`` is emitted with
its unit for every workload, that the deterministic counts repeat
exactly between two runs, and that a corrupted reference (one flipped
golden cell or digest) makes the output checks fail.
"""

import csv
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def measure(name, workdir, trace, seed=1, **kwargs):
    return run.measure(name, seed, 0.0, trace, "tiny", str(workdir), **kwargs)


def is_count(name, unit):
    """Counts and simulated-time statistics, which must repeat exactly
    (times and the tracing overhead need not)."""
    return unit not in ("s", "ns") and name != "trace.overhead_frac"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced tiny runs per workload."""
    return {
        name: [measure(name, tmp_path_factory.mktemp("run"), True)
               for _ in range(2)]
        for name in NAMES
    }


def test_benchmark_json_matches_the_code():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == NAMES
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted_with_units(name, tmp_path):
    result = measure(name, tmp_path, False)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (n, u) for n, u, _ in run.END_TO_END]
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["pass_frac"]["value"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_emitted_with_units(name, traced):
    result = traced[name][0]["result"]
    assert result["correct"], traced[name][0]["failures"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (n, u) for n, u, _ in run.PER_LAYER]
    assert traced[name][0]["spans"]


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(name, traced):
    first, second = (r["result"]["metrics"] for r in traced[name])
    counts = [n for n, u, _ in run.PER_LAYER if is_count(n, u)]
    assert {n: first[n]["value"] for n in counts} == {
        n: second[n]["value"] for n in counts}


def test_layers_are_idle_where_predicted(traced):
    """The event kernel is idle on paper-grid-batch, and the batch
    layer and the runner are idle on paper-point-event."""
    grid = traced["paper-grid-batch"][0]["result"]["metrics"]
    point = traced["paper-point-event"][0]["result"]["metrics"]
    sweep = traced["fig04-sweep"][0]["result"]["metrics"]
    assert grid["simulator.cycles"]["value"] == 0
    assert grid["batch.run_cycles"]["value"] > 0
    assert point["batch.run_cycles"]["value"] == 0
    assert point["runner.executed"]["value"] == 0
    assert point["simulator.route_calls"]["value"] > 0
    assert sweep["runner.cache_hit_ratio"]["value"] == 1.0


def test_non_default_seed_checks_invariants(tmp_path):
    record = measure("paper-point-event", tmp_path, True, seed=2)
    assert record["result"]["correct"], record["failures"]


def test_flipped_golden_cell_fails(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN_DIR, golden)
    path = golden / workloads.GOLDEN_CURVES["UR"]
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("CLOS AD")
    rows[1][column] = repr(float(rows[1][column]) + 1e-9)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    result = measure("fig04-sweep", tmp_path, False,
                     golden_dir=str(golden))["result"]
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["pass_frac"]["value"] < 1.0


@pytest.mark.parametrize("name", ["paper-point-event", "paper-grid-batch"])
def test_flipped_digest_fails(name, tmp_path):
    with open(workloads.REFERENCE_PATH) as handle:
        reference = json.load(handle)
    digests = reference[f"{name}/tiny"]
    digests[0] = digests[0][::-1]
    result = measure(name, tmp_path, False, reference=reference)["result"]
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_rescale_scales_each_stretch_by_its_closing_probe():
    # Work 0-1 s closed by a probe at half the reference speed, work
    # 1.5-2 s closed by one after the interval at the reference speed.
    samples = [(1.0, 0.5), (2.5, 0.25)]
    rescaled, host, probe = speed.rescale(samples, 0.0, 2.0, 0.25)
    assert host == 1.5 and probe == 0.5
    assert rescaled == 1.0 * 0.25 / 0.5 + 0.5


def test_rescale_needs_a_closing_probe():
    with pytest.raises(ValueError):
        speed.rescale([(1.0, 0.1)], 0.0, 2.0, 0.1)
