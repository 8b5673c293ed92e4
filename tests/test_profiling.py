"""The phase-profiling layer: timers and counters are measurement
only — a profiled run is bit-identical to an unprofiled one — and the
plumbing (env flag, ``profile=`` kwarg, ``KernelStats`` fields, sweep
aggregation, report formatting) works end to end.
"""

import time

import pytest

from repro.core import MinimalAdaptive, UGAL
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import (
    KERNELS,
    Message,
    SimulationConfig,
    Simulator,
    ThroughputTrace,
    Workload,
)
from repro.profiling import (
    PHASES,
    PROFILE_ENV,
    PhaseProfile,
    format_phase_report,
    merge_phase_seconds,
    profiling_enabled,
)
from repro.traffic import UniformRandom
from tests import fingerprints


def _run(profile, algorithm=MinimalAdaptive, load=0.3):
    sim = Simulator(
        FlattenedButterfly(4, 2),
        algorithm(),
        UniformRandom(),
        SimulationConfig(seed=31, packet_size=2),
        kernel="event",
        profile=profile,
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_open_loop(load, warmup=50, measure=80, drain_max=1500)
    return sim, trace.series, result


class TestEnablement:
    def test_kwarg_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert profiling_enabled(False) is False
        monkeypatch.delenv(PROFILE_ENV)
        assert profiling_enabled(True) is True

    def test_environment_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert profiling_enabled() is False
        monkeypatch.setenv(PROFILE_ENV, "0")
        assert profiling_enabled() is False
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert profiling_enabled() is True

    def test_environment_reaches_simulator(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        assert sim._profile is not None


class TestBitIdentical:
    """Profiling fences the same work with timers inside the one step
    function; it must not perturb a single observable.  The ``polling``
    reference compares the profiled run with the committed fingerprint
    of the unprofiled configuration instead of a live unprofiled run."""

    # The vectorized batch kernel has no phase timers; its observables
    # are covered statistically in tests/test_batch_kernel.py.
    @pytest.mark.parametrize("reference", fingerprints.REFERENCES)
    def test_profiled_run_identical(self, reference):
        sim_on, series_on, res_on = _run(True)
        if reference == "polling":
            fingerprints.assert_pinned(
                "profiling/min_ad-p2",
                fingerprints.run_record(sim_on, series_on, res_on),
            )
            return
        sim_off, series_off, res_off = _run(False)
        assert series_on == series_off
        assert res_on == res_off
        assert sim_on.packets_created == sim_off.packets_created
        assert sim_on.flits_ejected == sim_off.flits_ejected
        assert sim_on.route_rng.getstate() == sim_off.route_rng.getstate()

    def test_profiled_run_identical_adaptive(self):
        _, series_off, res_off = _run(False, algorithm=UGAL, load=0.6)
        _, series_on, res_on = _run(True, algorithm=UGAL, load=0.6)
        assert series_on == series_off
        assert res_on == res_off


#: The configuration of ``_run`` above, pinned in
#: tests/golden/exact_fingerprints.json.
PINNED_CASES = {
    "profiling/min_ad-p2": lambda: fingerprints.run_record(*_run(False)),
}


class TestKernelStatsFields:
    def test_phase_seconds_populated_when_profiling(self):
        _, _, result = _run(True)
        phases = result.kernel.phase_seconds
        assert phases is not None
        assert set(phases) == set(PHASES)
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) > 0.0

    def test_workload_packet_creation_charged_to_inject(self):
        """A workload's messages are created inside the inject phase:
        a source that sleeps 20 ms on its first emitting cycle shows up
        in ``phase_seconds["inject"]``."""

        class SlowFirstMessage(Workload):
            name = "slow-first-message"

            def start(self, topology, packet_size, traffic_rng, injection_rng):
                self._n = topology.num_terminals
                self._slept = False

            def messages(self, now):
                if now % 10:
                    return []
                if not self._slept:
                    self._slept = True
                    time.sleep(0.02)
                return [Message(0, self._n - 1)]

        sim = Simulator(
            FlattenedButterfly(4, 2), MinimalAdaptive(), SlowFirstMessage(),
            SimulationConfig(seed=1), kernel="event", profile=True,
        )
        result = sim.run_workload(warmup=10, measure=20, drain_max=200)
        assert result.kernel.phase_seconds["inject"] >= 0.02

    def test_phase_seconds_absent_when_not_profiling(self):
        _, _, result = _run(False)
        assert result.kernel.phase_seconds is None

    def test_counters_populated_either_way(self):
        for profile in (False, True):
            sim, _, result = _run(profile)
            stats = result.kernel
            assert stats.route_calls > 0
            assert stats.flits_allocated > 0
            assert stats.flits_reused >= 0
            # Every ejected flit was once allocated or reused.
            assert (
                stats.flits_allocated + stats.flits_reused
                >= sim.flits_ejected > 0
            )


class TestHelpers:
    def test_phase_profile_as_dict(self):
        profile = PhaseProfile()
        assert profile.as_dict() == {name: 0.0 for name in PHASES}
        profile.seconds["wire"] = 1.5
        assert profile.as_dict()["wire"] == 1.5

    def test_merge_phase_seconds(self):
        total = {}
        merge_phase_seconds(total, {"wire": 1.0, "inject": 0.5})
        merge_phase_seconds(total, {"wire": 2.0})
        merge_phase_seconds(total, None)
        assert total == {"wire": 3.0, "inject": 0.5}

    def test_format_phase_report(self):
        text = format_phase_report({"wire": 3.0, "inject": 1.0})
        lines = text.splitlines()
        assert lines[0].startswith("phase breakdown")
        # Sorted by share, largest first, with a total row.
        assert "wire" in lines[1] and "75.0%" in lines[1]
        assert "inject" in lines[2] and "25.0%" in lines[2]
        assert "total" in lines[-1] and "4.000s" in lines[-1]

    def test_format_phase_report_zero_total(self):
        text = format_phase_report({"wire": 0.0})
        assert "0.0%" in text
