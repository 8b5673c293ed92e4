"""Exact-kernel fingerprints: the committed record of what every
pinned configuration produced, bit for bit.

``tests/golden/exact_fingerprints.json`` maps a case name to one
record: the run's result (every compared field, ``KernelStats``
excluded), a digest of its per-cycle ejection series, digests of the
final RNG states, packet and flit counts, and ``router_phase_calls``.
The test modules that own the cases (``test_kernel_equivalence.py``,
``test_workloads.py``) check their runs against it.

Regenerate (only after an intentional change to the simulated
behavior) with ``PYTHONPATH=src python -m tests.test_kernel_equivalence``.
"""

import dataclasses
import hashlib
import json
import os

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "exact_fingerprints.json"
)

#: What a parametrized exact-kernel test checks a live event-kernel run
#: against: ``"event"``, the expectation the test itself spells out, or
#: ``"polling"``, the committed fingerprint of the same configuration —
#: recorded when a second, polling kernel still ran every case and
#: agreed with the event kernel bit for bit.
REFERENCES = ("event", "polling")


def digest(value) -> str:
    """Short stable digest of a plain value (lists of floats, RNG
    state tuples): ``repr`` is exact for ints and floats."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_record(sim, series, result) -> dict:
    """The fingerprint of one finished run."""
    fields = dataclasses.asdict(result)
    fields.pop("kernel")
    return {
        "result": fields,
        "series": None if series is None else digest(series),
        "route_rng": digest(sim.route_rng.getstate()),
        "traffic_rng": digest(sim.traffic_rng.getstate()),
        "injection_rng": digest(sim.injection_rng.getstate()),
        "packets_created": sim.packets_created,
        "flits_ejected": sim.flits_ejected,
        "router_phase_calls": result.kernel.router_phase_calls,
    }


def load() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def canonical(record) -> str:
    """JSON text of a record: exact for every float, NaN included."""
    return json.dumps(record, sort_keys=True)


def assert_pinned(name: str, record, golden=None) -> None:
    """``record`` must equal the committed fingerprint ``name``."""
    expected = (load() if golden is None else golden)[name]
    assert canonical(record) == canonical(expected), (
        f"{name}: output moved off tests/golden/exact_fingerprints.json"
    )


def write(records: dict) -> None:
    """Write ``{name: record}`` one case per line, sorted by name."""
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n")
        handle.write(",\n".join(
            f"  {json.dumps(name)}: {json.dumps(records[name], sort_keys=True)}"
            for name in sorted(records)
        ))
        handle.write("\n}\n")
    print(f"wrote {os.path.normpath(GOLDEN_PATH)}")
