"""Tests for the per-figure experiment harnesses.

Analytic experiments run in full; simulation experiments run under a
tiny custom scale so the suite stays fast while still exercising every
code path end-to-end.
"""

import csv
import math
import os

import pytest

from repro.experiments import ALL_EXPERIMENTS, resolve_scale
from repro.experiments.common import CI_SCALE, Scale, Table
from repro.runner import ResultCache, SweepRunner
from repro.experiments import (
    fig02_scalability,
    fig03_ghc,
    fig04_routing,
    fig05_batch,
    fig06_topologies,
    fig07_cable_cost,
    fig10_link_cost,
    fig11_cost,
    fig12_design,
    fig13_cost_vs_n,
    fig15_power,
    table02_constants,
    table04_configs,
)

TINY = Scale(
    name="tiny",
    fb_k=4,
    loads=(0.2, 0.6),
    warmup=150,
    measure=150,
    drain_max=2500,
    batch_sizes=(1, 8),
    design_study_n=16,
)


class TestTable:
    def test_add_and_column(self):
        table = Table("t", ["a", "b"])
        table.add(1, 2.0)
        assert table.column("a") == [1]
        assert "t" in table.to_text()

    def test_bad_row_width(self):
        table = Table("t", ["a"])
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_formats_inf_and_nan(self):
        table = Table("t", ["x"])
        table.add(float("inf"))
        table.add(float("nan"))
        text = table.to_text()
        assert "inf" in text


class TestScaleResolution:
    def test_known_names(self):
        assert resolve_scale("ci").name == "ci"
        assert resolve_scale("paper").name == "paper"

    def test_default_is_ci(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert resolve_scale(None).name == "ci"

    def test_repro_full_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert resolve_scale(None).name == "paper"

    def test_passthrough(self):
        assert resolve_scale(TINY) is TINY

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_scale("huge")


class TestAnalyticExperiments:
    def test_fig01_construction_verifies(self):
        from repro.experiments import fig01_construction

        result = fig01_construction.run("ci")
        for title in ("channel accounting, 4-ary 2-fly",
                      "channel accounting, 2-ary 4-fly"):
            summary = result.table(title)
            by_name = dict(summary.rows)
            assert by_name["construction matches"] == "True"
        # Paper's Figure 1(d) anchor.
        merged = result.table("2-ary 4-fly -> 2-ary 4-flat")
        r4_row = next(r for r in merged.rows if r[0] == "R4'")
        assert "R5' (d1)" in r4_row[2]
        assert "R6' (d2)" in r4_row[2]
        assert "R0' (d3)" in r4_row[2]

    def test_fig02_anchor(self):
        result = fig02_scalability.run("ci")
        table = result.tables[0]
        row = next(r for r in table.rows if r[0] == 61)
        assert row[3] == 65536  # n'=3 column

    def test_fig03_concentration_advantage(self):
        result = fig03_ghc.run("ci")
        cost = result.table("cost comparison")
        fb_cost, ghc_cost = (row[1] for row in cost.rows)
        assert ghc_cost > 5 * fb_cost

    def test_fig07_anchors(self):
        result = fig07_cable_cost.run("ci")
        model = result.table("(b) repeatered cable model ($ per signal)")
        by_length = {row[0]: row for row in model.rows}
        assert by_length[2][2] == pytest.approx(5.34)
        assert by_length[6][1] == 0  # no repeater at exactly 6 m
        assert by_length[7][1] == 1

    def test_fig10_link_fraction_shape(self):
        result = fig10_link_cost.run("ci")
        fraction = result.tables[0]
        last = fraction.rows[-1]  # N = 64K
        headers = list(fraction.headers)
        assert last[headers.index("FB")] > 0.7
        assert last[headers.index("folded Clos")] > 0.7
        assert last[headers.index("hypercube")] < 0.6

    def test_fig10_cable_length_ordering(self):
        result = fig10_link_cost.run("ci")
        lengths = result.tables[1]
        headers = list(lengths.headers)
        last = lengths.rows[-1]
        # FB cables longer than Clos, Clos longer than hypercube.
        assert last[headers.index("FB")] > last[headers.index("folded Clos")]
        assert (
            last[headers.index("folded Clos")] > last[headers.index("hypercube")]
        )

    def test_fig11_saving_band(self):
        result = fig11_cost.run("ci")
        cost = result.tables[0]
        headers = list(cost.headers)
        for row in cost.rows:
            fb = row[headers.index("FB")]
            clos = row[headers.index("folded Clos")]
            assert 0.20 <= 1 - fb / clos <= 0.70
            assert row[headers.index("hypercube")] > clos

    def test_fig13_monotone(self):
        result = fig13_cost_vs_n.run("ci")
        costs = result.tables[0].column("cost per node ($)")
        assert costs == sorted(costs)

    def test_fig15_hypercube_highest(self):
        result = fig15_power.run("ci")
        table = result.tables[0]
        headers = list(table.headers)
        for row in table.rows:
            cube = row[headers.index("hypercube")]
            for name in ("FB", "butterfly", "folded Clos"):
                assert cube > row[headers.index(name)]

    def test_table02_prints_all_constants(self):
        result = table02_constants.run("ci")
        text = result.to_text()
        for anchor in ("$390", "$90", "$300", "$1.95", "$220.00", "40 W",
                       "200 mW", "160 mW", "40 mW"):
            assert anchor in text

    def test_table04_matches_paper(self):
        result = table04_configs.run("ci")
        assert "matches the paper exactly" in result.to_text()
        rows = {tuple(row) for row in result.tables[0].rows}
        assert (64, 2, 127, 1) in rows
        assert (16, 3, 46, 2) in rows

    def test_ext_layout_heuristic_validated(self):
        from repro.experiments import ext_layout

        result = ext_layout.run("ci")
        table = result.tables[0]
        headers = list(table.headers)
        for row in table.rows:
            if row[0] in (16384, 65536):
                heuristic = row[headers.index("E/3 heuristic")]
                measured = row[headers.index("fig8 placement")]
                assert abs(measured - heuristic) / heuristic < 0.15

    def test_ext_wire_delay_penalties(self):
        from repro.experiments import ext_wire_delay

        result = ext_wire_delay.run("ci")
        table = result.tables[0]
        headers = list(table.headers)
        for row in table.rows:
            assert (
                row[headers.index("folded Clos, uniform")]
                > row[headers.index("direct, uniform")]
            )


class TestSimulationExperiments:
    """End-to-end smoke runs at tiny scale, checking headline shapes."""

    def test_fig04_shapes(self):
        result = fig04_routing.run(TINY)
        ur = result.table("saturation throughput, UR traffic")
        thr = dict(ur.rows)
        assert thr["VAL"] < 0.6 < thr["MIN AD"]
        wc = result.table("saturation throughput, WC traffic")
        thr = dict(wc.rows)
        assert thr["MIN AD"] == pytest.approx(0.25, abs=0.03)  # 1/k, k=4
        assert thr["CLOS AD"] > 0.4

    def test_fig05_shapes(self):
        result = fig05_batch.run(TINY)
        table = result.tables[0]
        headers = list(table.headers)
        first = table.rows[0]  # batch size 1
        assert first[headers.index("CLOS AD")] <= first[headers.index("UGAL")]
        last = table.rows[-1]
        # At k=4 the asymptotes are 4 (MIN) vs 2 (CLOS AD); batch 8 is
        # still partly transient, so require a clear but looser gap.
        assert last[headers.index("MIN AD")] > 1.5 * last[headers.index("CLOS AD")]

    def test_fig06_shapes(self):
        result = fig06_topologies.run(TINY)
        ur = dict(result.table("saturation throughput, UR traffic").rows)
        assert ur["folded Clos"] < 0.75 < ur["FB (CLOS AD)"]
        wc = dict(result.table("saturation throughput, WC traffic").rows)
        assert wc["butterfly"] == pytest.approx(wc["FB (MIN)"], abs=0.02)
        assert wc["FB (CLOS AD)"] > 1.5 * wc["butterfly"]

    def test_ext_patterns_shapes(self):
        from repro.experiments import ext_patterns

        result = ext_patterns.run(TINY)
        table = result.tables[0]
        headers = list(table.headers)
        by_pattern = {row[0]: row for row in table.rows}
        wc = by_pattern["worst case (g+1)"]
        assert wc[headers.index("MIN AD")] == pytest.approx(0.25, abs=0.03)
        assert wc[headers.index("CLOS AD")] > 0.4
        ur = by_pattern["uniform random"]
        assert ur[headers.index("MIN AD")] > 0.8

    def test_ext_packet_size_invariance(self):
        from repro.experiments import ext_packet_size

        result = ext_packet_size.run(TINY)
        table = result.tables[0]
        headers = list(table.headers)
        k = TINY.fb_k
        for row in table.rows:
            # The shape is packet-size invariant (footnote 2).
            assert row[headers.index("MIN AD, WC")] == pytest.approx(
                1 / k, abs=0.04
            )
            assert row[headers.index("CLOS AD, WC")] > 0.4

    @pytest.mark.parametrize("name", ["ext_packet_size", "ext_torus"])
    def test_rerun_replays_from_cache(self, name, tmp_path):
        run = ALL_EXPERIMENTS[name].run
        runner = SweepRunner(jobs=1, cache=ResultCache(str(tmp_path)))
        first = run(TINY, runner=runner)
        executed = runner.report.executed
        second = run(TINY, runner=runner)
        assert executed > 0
        assert runner.report.executed == executed  # the rerun ran nothing
        assert second.tables == first.tables

    def test_fig12_val_constant_throughput(self):
        result = fig12_design.run(TINY)
        val = result.table("(a) VAL on UR traffic")
        throughputs = val.column("saturation throughput")
        assert all(0.35 < t < 0.6 for t in throughputs)
        latencies = val.column("low-load latency")
        assert latencies == sorted(latencies)  # grows with n'


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def committed_csv(path):
    """A committed results CSV as ``{first column: {header: value}}``,
    in file order, with every value after the first column a float."""
    with open(os.path.join(REPO_ROOT, path)) as handle:
        reader = csv.reader(handle)
        headers = next(reader)
        return {
            row[0]: dict(zip(headers[1:], map(float, row[1:])))
            for row in reader
        }


def saturation_csv(path):
    """``{row name: accepted throughput}`` of a saturation CSV."""
    return {
        name: row["accepted throughput"]
        for name, row in committed_csv(path).items()
    }


class TestCommittedCIResults:
    """Headline shapes of the committed CI-scale (8-ary 2-flat)
    simulation results.  ``tests/golden/`` is byte-checked against the
    code by ``tests/test_golden.py``; ``results/ci/`` is what
    ``python -m repro.experiments all --csv results/ci`` writes."""

    K = CI_SCALE.fb_k

    def test_fig04_saturation(self):
        ur = saturation_csv(
            "tests/golden/fig04_saturation-throughput-ur-traffic.csv"
        )
        wc = saturation_csv(
            "tests/golden/fig04_saturation-throughput-wc-traffic.csv"
        )
        # Figure 4(a): all but VAL ~100%; VAL ~50%.
        assert ur["MIN AD"] > 0.85
        assert ur["CLOS AD"] > 0.85
        assert 0.4 < ur["VAL"] < 0.6
        # Figure 4(b): MIN AD collapses to 1/k; non-minimal ~50%.
        assert wc["MIN AD"] == pytest.approx(1 / self.K, abs=0.02)
        for name in ("VAL", "UGAL", "UGAL-S", "CLOS AD"):
            assert wc[name] > 0.4

    def test_fig05_batch(self):
        table = committed_csv(
            "tests/golden/fig05_batch-latency-batch-size-wc-traffic.csv"
        )
        small, large = table["1"], list(table.values())[-1]
        # Greedy UGAL suffers transient imbalance at batch 1; the
        # sequential allocator fixes it and CLOS AD is best overall.
        assert small["UGAL-S"] <= small["UGAL"]
        assert small["CLOS AD"] <= small["UGAL-S"]
        # The allocator's advantage fades as batches grow.
        mid = table["8"]
        assert abs(mid["UGAL"] - mid["UGAL-S"]) < 0.25 * mid["UGAL"]
        # Asymptotes approach the inverse throughputs.
        assert large["MIN AD"] > 2.5 * large["CLOS AD"]

    def test_fig06_saturation(self):
        ur = saturation_csv(
            "results/ci/fig06_saturation-throughput-ur-traffic.csv"
        )
        wc = saturation_csv(
            "results/ci/fig06_saturation-throughput-wc-traffic.csv"
        )
        # Figure 6(a): the equal-bisection folded Clos ~50%, the rest
        # ~100%.
        assert ur["folded Clos"] < 0.7 < ur["FB (CLOS AD)"]
        assert ur["butterfly"] > 0.85
        assert ur["hypercube"] > 0.85
        # Figure 6(b): butterfly == minimally routed FB ~ 1/k; the
        # adaptive FB, the Clos and the hypercube all reach ~50%.
        assert wc["butterfly"] == pytest.approx(wc["FB (MIN)"], abs=0.02)
        assert wc["butterfly"] == pytest.approx(1 / self.K, abs=0.02)
        assert wc["FB (CLOS AD)"] == pytest.approx(0.5, abs=0.05)
        assert wc["folded Clos"] == pytest.approx(0.5, abs=0.08)
        assert wc["hypercube"] == pytest.approx(0.5, abs=0.08)

    def test_fig12_design(self):
        val = committed_csv("results/ci/fig12_a-val-on-ur-traffic.csv")
        throughputs = [row["saturation throughput"] for row in val.values()]
        # VAL delivers ~50% of capacity for every configuration, and
        # latency grows with dimensionality.
        assert all(0.35 < t < 0.6 for t in throughputs)
        latencies = [row["low-load latency"] for row in val.values()]
        assert latencies == sorted(latencies)
        min_ad = committed_csv(
            "results/ci/fig12_b-min-ad-on-ur-traffic-64-flits-per-pc.csv"
        )
        assert all(
            row["saturation throughput"] > 0.8 for row in min_ad.values()
        )


class TestCLI:
    def test_main_runs_analytic_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])


def test_registry_complete():
    assert set(ALL_EXPERIMENTS) == {
        "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
        "fig10", "fig11", "fig12", "fig13", "fig15",
        "table02", "table04",
        "ext_torus", "ext_layout", "ext_wire_delay", "ext_patterns",
        "ext_packet_size", "ext_resilience", "ext_datacenter",
    }
    for module in ALL_EXPERIMENTS.values():
        assert hasattr(module, "run")


def clos_ad_wc(seed):
    """Module-level simulator factory for the replication test's specs."""
    from repro.core import ClosAD
    from repro.core.flattened_butterfly import FlattenedButterfly
    from repro.network import SimulationConfig, Simulator
    from repro.traffic import adversarial

    return Simulator(
        FlattenedButterfly(4, 2), ClosAD(), adversarial(),
        SimulationConfig(seed=seed),
    )


class TestReplication:
    def _summary(self, values):
        from repro.experiments.common import replicate_jobs
        from repro.runner import CallableJob

        return replicate_jobs([CallableJob.of(float, v) for v in values])

    def test_replicate_statistics(self):
        result = self._summary([1, 2, 3])
        assert result.mean == pytest.approx(2.0)
        assert result.std == pytest.approx(1.0)
        assert result.count == 3

    def test_single_seed_zero_std(self):
        result = self._summary([5.0])
        assert result.std == 0.0
        assert result.ci95 == 0.0

    def test_empty_seeds_rejected(self):
        from repro.experiments.common import replicate_jobs

        with pytest.raises(ValueError):
            replicate_jobs([])

    def test_simulation_metric_is_stable_across_seeds(self):
        """CLOS AD's worst-case throughput is ~0.5 for every seed —
        the claim is not a single-seed artifact."""
        from repro.experiments.common import replicate_jobs
        from repro.runner import SaturationJob, SimSpec

        result = replicate_jobs([
            SaturationJob(SimSpec.of(clos_ad_wc, seed), 400, 400)
            for seed in range(1, 5)
        ])
        assert result.count == 4
        assert result.mean == pytest.approx(0.5, abs=0.05)
        assert result.std < 0.03
