"""The unified workload plane.

Three guarantees pinned here:

* **Bit-identity with the legacy plane.**  ``SyntheticWorkload``
  (injection process × traffic pattern behind the ``Workload``
  interface) reproduces ``run_open_loop`` byte-for-byte — same
  per-cycle ejection series, same results, same final RNG states —
  over a configuration matrix.
* **Closed loops.**  ``RequestReply`` runs request→reply dependencies
  on disjoint VC partitions, terminates cleanly at saturation load
  (protocol deadlock freedom), and still lets the event kernel skip
  quiescent stretches.
* **Clean errors.**  The batch kernel refuses closed-loop and timed
  workloads with a named error; pattern-only methods refuse workload
  simulators and vice versa.

Every exact run here is also pinned to its committed fingerprint in
``tests/golden/exact_fingerprints.json`` (see ``tests/fingerprints.py``).
"""

import os
import random

import pytest

from repro.core import MinimalAdaptive, UGAL, Valiant
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import (
    Message,
    RequestReply,
    SimulationConfig,
    Simulator,
    SyntheticWorkload,
    ThroughputTrace,
    UnsupportedWorkloadError,
    Workload,
    WorkloadSpec,
    registered_workloads,
)
from repro.network.injection import BernoulliInjection
from repro.traffic import (
    GroupShift,
    HotSpotSkew,
    Incast,
    PermutationChurn,
    RandomPermutation,
    UniformRandom,
)
from tests import fingerprints

ALGORITHMS = {
    "min_ad": MinimalAdaptive,
    "ugal": UGAL,
    "val": Valiant,
}

PATTERNS = {
    "ur": UniformRandom,
    "perm": RandomPermutation,
    "adv": lambda: GroupShift(1),
}

#: Legacy-vs-unified regression matrix: (k, algorithm, pattern, load,
#: packet_size, seed, rng_streams).  Small but spanning adaptive /
#: oblivious routing, all three pattern families, multi-flit packets
#: and both seed-derivation modes.
MATRIX = [
    ((4, 2), "min_ad", "ur", 0.15, 1, 7, "legacy"),
    ((4, 2), "ugal", "adv", 0.4, 2, 11, "legacy"),
    ((4, 2), "val", "perm", 0.3, 1, 3, "mixed"),
    ((8, 2), "min_ad", "perm", 0.8, 1, 42, "legacy"),
    ((8, 2), "ugal", "ur", 0.05, 4, 5, "mixed"),
    ((2, 2), "val", "adv", 0.6, 2, 99, "legacy"),
]


def _matrix_id(fb, algorithm, pattern, load, packet_size, seed, streams):
    return f"{algorithm}-{pattern}-k{fb[0]}-l{load}-p{packet_size}-s{seed}-{streams}"


MATRIX_IDS = [_matrix_id(*c) for c in MATRIX]


def _legacy_run(fb, algorithm, pattern, load, packet_size, seed, streams):
    sim = Simulator(
        FlattenedButterfly(*fb),
        ALGORITHMS[algorithm](),
        PATTERNS[pattern](),
        SimulationConfig(seed=seed, packet_size=packet_size, rng_streams=streams),
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_open_loop(load, warmup=50, measure=80, drain_max=1500)
    sim.check_activation_invariants()
    return sim, trace.series, result


def _workload_run(fb, algorithm, pattern, load, packet_size, seed, streams):
    workload = SyntheticWorkload(BernoulliInjection(load), PATTERNS[pattern]())
    sim = Simulator(
        FlattenedButterfly(*fb),
        ALGORITHMS[algorithm](),
        workload,
        SimulationConfig(seed=seed, packet_size=packet_size, rng_streams=streams),
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_workload(warmup=50, measure=80, drain_max=1500)
    sim.check_activation_invariants()
    return sim, trace.series, result


class TestSyntheticBitIdentity:
    """The tentpole's compatibility guarantee: the reimplemented legacy
    combination is bit-identical to ``run_open_loop`` — not
    statistically close, byte-for-byte equal.  The ``polling``
    reference compares the workload run with the committed fingerprint
    instead of a live ``run_open_loop``."""

    @pytest.mark.parametrize(
        "fb,algorithm,pattern,load,packet_size,seed,streams",
        MATRIX,
        ids=MATRIX_IDS,
    )
    @pytest.mark.parametrize("reference", fingerprints.REFERENCES)
    def test_matrix_point(
        self, reference, fb, algorithm, pattern, load, packet_size, seed, streams
    ):
        case = (fb, algorithm, pattern, load, packet_size, seed, streams)
        sim_w, series_w, res_w = _workload_run(*case)
        assert res_w.per_class is None  # single class: no per-class slice
        if reference == "polling":
            fingerprints.assert_pinned(
                f"workloads/synthetic/{_matrix_id(*case)}",
                fingerprints.run_record(sim_w, series_w, res_w),
            )
            return
        sim_l, series_l, res_l = _legacy_run(*case)
        assert series_l == series_w
        assert res_l == res_w
        assert sim_l.packets_created == sim_w.packets_created
        assert sim_l.flits_ejected == sim_w.flits_ejected
        assert sim_l.traffic_rng.getstate() == sim_w.traffic_rng.getstate()
        assert sim_l.route_rng.getstate() == sim_w.route_rng.getstate()
        assert sim_l.injection_rng.getstate() == sim_w.injection_rng.getstate()

    def test_offered_load_reported(self):
        _, _, result = _workload_run((4, 2), "min_ad", "ur", 0.3, 1, 1, "legacy")
        assert result.offered_load == 0.3


def _request_reply_sim(load=0.3, quota=10, seed=5, **kwargs):
    return Simulator(
        FlattenedButterfly(4, 2),
        UGAL(),
        RequestReply(load, requests_per_terminal=quota, **kwargs),
        SimulationConfig(seed=seed),
    )


class TestRequestReply:
    def test_vcs_partitioned_per_class(self):
        sim = _request_reply_sim()
        base = sim.algorithm.num_vcs
        for engine in sim.engines:
            for port in engine.out_ports:
                assert port.num_vcs == base * 2

    def test_runs_to_completion_and_reports_classes(self):
        sim = _request_reply_sim()
        result = sim.run_workload(warmup=50, measure=100, drain_max=5000)
        assert not result.saturated
        assert result.per_class is not None and len(result.per_class) == 2
        req, rep = result.per_class
        assert req.msg_class == 0 and rep.msg_class == 1
        # Every request eventually got a reply, so the class counts of
        # the whole run match: delivered = 2 * requests.
        assert sim.packets_delivered == 2 * 10 * sim.topology.num_terminals
        assert req.packets > 0 and rep.packets > 0
        assert req.latency.mean > 0 and rep.latency.mean > 0

    @pytest.mark.parametrize("reference", fingerprints.REFERENCES)
    def test_deadlock_free_at_saturation_load(self, reference):
        """Acceptance criterion: a finite request→reply run at the
        maximum request rate completes (drains) on disjoint VC
        partitions instead of deadlocking request against reply."""
        run = _run_request_reply(
            10, 30, 20_000, load=1.0, quota=6, service_delay=1
        )
        if reference == "polling":
            fingerprints.assert_pinned(
                "workloads/request_reply_saturation",
                fingerprints.run_record(*run),
            )
            return
        sim, _, result = run
        assert sim.in_flight == 0
        assert sim.packets_delivered == 2 * 6 * sim.topology.num_terminals
        assert result.per_class is not None

    def test_cross_kernel_identical(self):
        """The run reproduces the fingerprint both exact kernels
        agreed on when it was recorded."""
        fingerprints.assert_pinned(
            "workloads/request_reply",
            fingerprints.run_record(*_run_request_reply(50, 100, 5000)),
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="request load"):
            RequestReply(0.0)
        with pytest.raises(ValueError, match="service_delay"):
            RequestReply(0.5, service_delay=0)
        with pytest.raises(ValueError, match="reply_size"):
            RequestReply(0.5, reply_size=0)
        with pytest.raises(ValueError, match="requests_per_terminal"):
            RequestReply(0.5, requests_per_terminal=0)


class TestClosedLoopIdleSkip:
    """Satellite: the ``next_injection_cycle`` / ``next_message_cycle``
    contract.  A closed-loop source with calendar knowledge still lets
    the event kernel skip quiescent stretches; the conservative default
    (``return now``) silently disables skipping — both pinned."""

    def test_closed_loop_still_skips(self):
        sim, series, result = _run_closed_loop_skip()
        assert result.kernel.idle_cycles_skipped > 0
        # Skipping changes nothing observable: the run reproduces the
        # fingerprint the non-skipping polling kernel agreed with.
        fingerprints.assert_pinned(
            "workloads/closed_loop_skip",
            fingerprints.run_record(sim, series, result),
        )

    def test_conservative_default_disables_skip(self):
        class SparseDefault(Workload):
            """Emits one packet every 50 cycles but keeps the base
            ``next_message_cycle`` (returns ``now``)."""

            name = "sparse-default"

            def start(self, topology, packet_size, traffic_rng, injection_rng):
                self._n = topology.num_terminals

            def messages(self, now):
                if now % 50 == 0:
                    return [Message(0, self._n - 1)]
                return []

        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            SparseDefault(),
            SimulationConfig(seed=1),
            kernel="event",
        )
        result = sim.run_workload(warmup=100, measure=200, drain_max=1000)
        assert result.kernel.idle_cycles_skipped == 0


class TestDestinationRangeCheck:
    """Workload destinations come from outside the simulator, so each
    message's destination is range-checked before it picks an ejection
    router: a negative one would otherwise index from the end."""

    @pytest.mark.parametrize("dst", [16, -1], ids=["n", "minus-one"])
    def test_out_of_range_destination_raises(self, dst):
        class StrayDestination(Workload):
            name = "stray-destination"

            def messages(self, now):
                return [Message(0, dst)] if now == 3 else []

        sim = Simulator(
            FlattenedButterfly(4, 2), MinimalAdaptive(), StrayDestination(),
            SimulationConfig(seed=1),
        )
        with pytest.raises(ValueError, match="outside 0..15"):
            sim.run_workload(warmup=10, measure=10, drain_max=100)


DATACENTER_WORKLOADS = {
    "hotspot": lambda: HotSpotSkew(0.2, racks=4, heavy_racks=1),
    "incast": lambda: Incast(epoch=16, burst=2, fan_racks=2, racks=4,
                             background_load=0.05),
    "churn": lambda: PermutationChurn(0.3, epoch=64, seed=3),
}


class TestDatacenterWorkloads:
    @pytest.mark.parametrize("name", sorted(DATACENTER_WORKLOADS))
    def test_cross_kernel_identical(self, name):
        """Calendar-driven sources must draw shared RNG only on firing
        cycles, so skipped quiescent stretches cannot change the run:
        it reproduces the fingerprint the non-skipping polling kernel
        agreed with."""
        fingerprints.assert_pinned(
            f"workloads/datacenter/{name}",
            fingerprints.run_record(*_run_datacenter(name)),
        )

    def test_rack_mismatch_rejected(self):
        sim = Simulator(
            FlattenedButterfly(3, 2),  # 9 terminals: not divisible by 4
            MinimalAdaptive(),
            HotSpotSkew(0.2, racks=4, heavy_racks=1),
            SimulationConfig(seed=1),
        )
        with pytest.raises(ValueError, match="do not divide"):
            sim.run_workload(warmup=10, measure=10, drain_max=100)

    def test_hotspot_overload_rejected(self):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            HotSpotSkew(0.9, racks=4, heavy_racks=1, heavy_boost=4.0),
            SimulationConfig(seed=1),
        )
        with pytest.raises(ValueError, match="past one"):
            sim.run_workload(warmup=10, measure=10, drain_max=100)


class TestBatchKernelGate:
    """Satellite: ``kernel="batch"`` raises a named error for workloads
    it cannot express, and delegates the Bernoulli×pattern case."""

    def test_closed_loop_rejected(self):
        sim = Simulator(
            FlattenedButterfly(4, 2), MinimalAdaptive(),
            RequestReply(0.2),
            SimulationConfig(seed=1), kernel="batch",
        )
        with pytest.raises(UnsupportedWorkloadError, match="request-reply"):
            sim.run_workload(warmup=50, measure=50, drain_max=500)

    def test_timed_source_rejected(self):
        sim = Simulator(
            FlattenedButterfly(4, 2), MinimalAdaptive(),
            DATACENTER_WORKLOADS["incast"](),
            SimulationConfig(seed=1), kernel="batch",
        )
        with pytest.raises(UnsupportedWorkloadError, match="timed sources"):
            sim.run_workload(warmup=50, measure=50, drain_max=500)

    def test_synthetic_bernoulli_delegates(self):
        pytest.importorskip("numpy")
        sim = Simulator(
            FlattenedButterfly(4, 2), MinimalAdaptive(),
            SyntheticWorkload(BernoulliInjection(0.2), UniformRandom()),
            SimulationConfig(seed=1), kernel="batch",
        )
        result = sim.run_workload(warmup=100, measure=100, drain_max=1000)
        assert result.offered_load == 0.2
        assert result.accepted_throughput > 0

    @pytest.mark.parametrize("method,call", [
        ("run_open_loop", lambda sim: sim.run_open_loop(0.2)),
        ("run_open_loop_grid",
         lambda sim: sim.run_open_loop_grid([0.2], replicas=2)),
        ("measure_saturation_throughput",
         lambda sim: sim.measure_saturation_throughput()),
        ("measure_saturation_throughput_batch",
         lambda sim: sim.measure_saturation_throughput_batch(replicas=2)),
    ])
    def test_pattern_methods_refuse_under_their_own_name(self, method, call):
        """A batch simulator built with a workload refuses each pattern
        run method naming that method, before any backend is built."""
        sim = Simulator(
            FlattenedButterfly(4, 2), MinimalAdaptive(),
            SyntheticWorkload(BernoulliInjection(0.2), UniformRandom()),
            SimulationConfig(seed=1), kernel="batch",
        )
        with pytest.raises(ValueError) as excinfo:
            call(sim)
        assert str(excinfo.value).startswith(
            f"{method}() drives a TrafficPattern"
        )


class TestWorkloadSpecPlumbing:
    def test_registered_kinds(self):
        kinds = registered_workloads()
        for kind in (
            "hotspot_skew", "incast", "permutation_churn", "request_reply",
        ):
            assert kind in kinds

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec.of("nope").build()

    def test_config_workload_builds(self):
        spec = WorkloadSpec.of(
            "request_reply", load=0.2, requests_per_terminal=3
        )
        sim = Simulator(
            FlattenedButterfly(4, 2), UGAL(), None,
            SimulationConfig(seed=5, workload=spec),
        )
        assert isinstance(sim.workload, RequestReply)
        result = sim.run_workload(warmup=50, measure=100, drain_max=5000)
        assert result.per_class is not None

    def test_config_workload_equals_direct(self):
        """The spec path and the direct-instance path run the same
        simulation."""
        results = []
        for source in (
            dict(pattern=None, config=SimulationConfig(
                seed=5, workload=WorkloadSpec.of(
                    "request_reply", load=0.2, requests_per_terminal=3)
            )),
            dict(pattern=RequestReply(0.2, requests_per_terminal=3),
                 config=SimulationConfig(seed=5)),
        ):
            sim = Simulator(
                FlattenedButterfly(4, 2), UGAL(),
                source["pattern"], source["config"],
            )
            # warmup=0 keeps the small request quota inside the window
            # so mean_hops is a comparable number, not nan.
            results.append(sim.run_workload(warmup=0, measure=100,
                                            drain_max=5000))
        assert results[0] == results[1]

    def test_both_sources_rejected(self):
        spec = WorkloadSpec.of("request_reply", load=0.2)
        with pytest.raises(ValueError, match="not both"):
            Simulator(
                FlattenedButterfly(4, 2), UGAL(), UniformRandom(),
                SimulationConfig(workload=spec),
            )

    def test_no_source_rejected(self):
        with pytest.raises(ValueError, match="traffic source is required"):
            Simulator(FlattenedButterfly(4, 2), UGAL(), None)

    def test_config_rejects_non_spec(self):
        with pytest.raises(TypeError, match="WorkloadSpec"):
            SimulationConfig(workload="hotspot_skew")

    def test_pattern_methods_refuse_workload_sim(self):
        sim = Simulator(
            FlattenedButterfly(4, 2), UGAL(), RequestReply(0.2),
            SimulationConfig(seed=1),
        )
        with pytest.raises(ValueError, match="use run_workload"):
            sim.run_open_loop(0.2, warmup=10, measure=10, drain_max=100)

    def test_workload_method_refuses_pattern_sim(self):
        sim = Simulator(
            FlattenedButterfly(4, 2), UGAL(), UniformRandom(),
            SimulationConfig(seed=1),
        )
        with pytest.raises(ValueError, match="needs a Workload"):
            sim.run_workload(warmup=10, measure=10, drain_max=100)

    def test_spec_is_cache_describable(self):
        from repro.runner import WorkloadJob, describe, job_key
        from repro.experiments.ext_datacenter import system_specs, hotspot_spec

        specs = system_specs(4, hotspot_spec(0.1))
        keys = set()
        for spec in specs.values():
            job = WorkloadJob(spec, 100, 100, 1000)
            describe(job)  # must not raise
            keys.add(job_key(job))
        assert len(keys) == len(specs)
        # A different workload parameter must change the key.
        other = system_specs(4, hotspot_spec(0.2))["FB (UGAL)"]
        assert job_key(WorkloadJob(other, 100, 100, 1000)) not in keys


class TestDatacenterGolden:
    """Satellite: golden CSV for one CI-scale datacenter point.
    Regenerate with ``PYTHONPATH=src python scripts/gen_datacenter_golden.py``
    (and bump CACHE_VERSION) after intentional changes."""

    GOLDEN = os.path.join(
        os.path.dirname(__file__), "golden", "ext_datacenter_golden-point.csv"
    )

    def test_golden_point_matches(self):
        from repro.experiments.ext_datacenter import golden_point

        result = golden_point("ci")
        current = result.tables[0].to_csv()
        # newline="" preserves the csv module's \r\n terminators.
        with open(self.GOLDEN, newline="") as handle:
            golden = handle.read()
        assert current == golden, (
            "ext_datacenter golden point drifted; if intentional, rerun "
            "scripts/gen_datacenter_golden.py and bump CACHE_VERSION"
        )


# ----------------------------------------------------------------------
# Committed fingerprints (tests/golden/exact_fingerprints.json)
# ----------------------------------------------------------------------

def _run_request_reply(warmup, measure, drain_max, **kwargs):
    sim = _request_reply_sim(**kwargs)
    result = sim.run_workload(warmup=warmup, measure=measure, drain_max=drain_max)
    sim.check_activation_invariants()
    return sim, None, result


def _run_closed_loop_skip():
    sim = Simulator(
        FlattenedButterfly(4, 2),
        MinimalAdaptive(),
        RequestReply(0.004, requests_per_terminal=2, service_delay=30),
        SimulationConfig(seed=2),
    )
    return sim, None, sim.run_workload(warmup=200, measure=400, drain_max=20_000)


def _run_datacenter(name):
    sim = Simulator(
        FlattenedButterfly(4, 2),
        UGAL(),
        DATACENTER_WORKLOADS[name](),
        SimulationConfig(seed=13),
    )
    trace = ThroughputTrace(interval=1)
    sim.attach_tracer(trace)
    result = sim.run_workload(warmup=60, measure=100, drain_max=2000)
    sim.check_activation_invariants()
    return sim, trace.series, result


def _pinned_cases():
    """``{case name: thunk returning its record}`` for every pinned
    configuration of this module."""

    def pin(run, *args, **kwargs):
        return lambda: fingerprints.run_record(*run(*args, **kwargs))

    cases = {}
    for case, case_id in zip(MATRIX, MATRIX_IDS):
        cases[f"workloads/synthetic/{case_id}"] = pin(_workload_run, *case)
    cases["workloads/request_reply"] = pin(_run_request_reply, 50, 100, 5000)
    cases["workloads/request_reply_saturation"] = pin(
        _run_request_reply, 10, 30, 20_000, load=1.0, quota=6, service_delay=1
    )
    cases["workloads/closed_loop_skip"] = pin(_run_closed_loop_skip)
    for name in sorted(DATACENTER_WORKLOADS):
        cases[f"workloads/datacenter/{name}"] = pin(_run_datacenter, name)
    return cases


PINNED_CASES = _pinned_cases()
