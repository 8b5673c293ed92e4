"""Cross-cutting property tests of the simulator's physics.

These assert relations that must hold for *any* algorithm, pattern,
and seed: conservation, causality (latency at least covers the hops
taken), and bandwidth limits (accepted throughput can exceed neither
the offered load nor unit ejection bandwidth).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ClosAD,
    DimensionOrder,
    MinimalAdaptive,
    UGAL,
    UGALSequential,
    Valiant,
)
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import SimulationConfig, Simulator
from repro.network.batch import (
    INJECTION_CHUNK,
    _KEY_MAJOR_BOUND,
    _mixed_radix_order,
    _packed_order,
)
from repro.traffic import UniformRandom, adversarial

ALGORITHMS = [
    MinimalAdaptive,
    DimensionOrder,
    Valiant,
    UGAL,
    UGALSequential,
    ClosAD,
]

algorithm_st = st.sampled_from(ALGORITHMS)
pattern_st = st.sampled_from([UniformRandom, adversarial])


@settings(max_examples=12, deadline=None)
@given(
    algorithm_cls=algorithm_st,
    pattern_factory=pattern_st,
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=99),
)
def test_open_loop_physics(algorithm_cls, pattern_factory, k, seed):
    sim = Simulator(
        FlattenedButterfly(k, 2),
        algorithm_cls(),
        pattern_factory(),
        SimulationConfig(seed=seed),
    )
    result = sim.run_open_loop(0.2, warmup=150, measure=150, drain_max=4000)
    if result.saturated:
        return  # nothing to assert about partial statistics
    # Bandwidth limits.
    assert result.accepted_throughput <= 1.0 + 1e-9
    assert result.accepted_throughput == pytest.approx(0.2, abs=0.08)
    # Causality: total latency covers at least the hops taken.
    assert result.latency.mean >= result.mean_hops - 1e-9
    assert result.network_latency.mean <= result.latency.mean + 1e-9
    # Percentile ordering.
    assert result.latency.p50 <= result.latency.p95 <= result.latency.max


@settings(max_examples=10, deadline=None)
@given(
    algorithm_cls=algorithm_st,
    batch=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=99),
)
def test_batch_physics(algorithm_cls, batch, seed):
    sim = Simulator(
        FlattenedButterfly(4, 2),
        algorithm_cls(),
        adversarial(),
        SimulationConfig(seed=seed),
    )
    result = sim.run_batch(batch, max_cycles=100_000)
    # Ejection bandwidth is one flit per terminal per cycle, so a batch
    # of B single-flit packets needs at least B cycles.
    assert result.completion_cycles >= batch
    assert result.packets == 16 * batch
    assert sim.quiescent()


@settings(max_examples=10, deadline=None)
@given(
    algorithm_cls=algorithm_st,
    seed=st.integers(min_value=0, max_value=99),
    packet_size=st.integers(min_value=1, max_value=3),
)
def test_flit_conservation(algorithm_cls, seed, packet_size):
    sim = Simulator(
        FlattenedButterfly(3, 2),
        algorithm_cls(),
        UniformRandom(),
        SimulationConfig(seed=seed, packet_size=packet_size),
    )
    result = sim.run_batch(3, max_cycles=100_000)
    assert sim.flits_ejected == result.packets * packet_size
    assert sim.flits_accounted() == 0


# ----------------------------------------------------------------------
# Batch-kernel properties (requires the numpy extra)
# ----------------------------------------------------------------------

#: Algorithm families the batch kernel implements (see
#: ``repro.network.batch``); sampled over small flattened butterflies.
#: Includes the vectorized non-minimal programs so run-axis purity
#: (permutation invariance, embedded-run bit-equality) covers the
#: intermediate draw and mode columns too.
BATCH_ALGORITHMS = [
    MinimalAdaptive,
    DimensionOrder,
    Valiant,
    UGAL,
    UGALSequential,
]

batch_algorithm_st = st.sampled_from(BATCH_ALGORITHMS)


def _batch_run(algorithm_cls, k, n, seeds, load=0.25):
    np = pytest.importorskip("numpy")  # noqa: F841 - guard only
    sim = Simulator(
        FlattenedButterfly(k, n),
        algorithm_cls(),
        UniformRandom(),
        SimulationConfig(seed=seeds[0]),
        kernel="batch",
    )
    return sim.run_open_loop_batch(
        load, seeds=tuple(seeds), warmup=100, measure=150, drain_max=2000
    )


def _fingerprint(result):
    """Everything a run reports, as a comparable tuple."""
    return (
        result.latency.count,
        result.latency.mean,
        result.latency.p50,
        result.latency.p95,
        result.latency.max,
        result.accepted_throughput,
        result.mean_hops,
        result.cycles,
        result.saturated,
        result.packets_labeled,
        result.packets_delivered,
    )


@settings(max_examples=8, deadline=None)
@given(
    algorithm_cls=batch_algorithm_st,
    k=st.integers(min_value=2, max_value=4),
    seeds=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1),
        min_size=2, max_size=5, unique=True,
    ),
    data=st.data(),
)
def test_batch_permutation_invariance(algorithm_cls, k, seeds, data):
    """Per-run results are a pure function of the run's seed: shuffling
    the batch axis permutes the results and changes nothing else."""
    perm = data.draw(st.permutations(list(range(len(seeds)))))
    forward = _batch_run(algorithm_cls, k, 2, seeds)
    shuffled = _batch_run(algorithm_cls, k, 2, [seeds[i] for i in perm])
    for pos, i in enumerate(perm):
        assert _fingerprint(shuffled.results[pos]) == _fingerprint(
            forward.results[i]
        )
        assert shuffled.packets_created[pos] == forward.packets_created[i]
        assert shuffled.packets_delivered[pos] == forward.packets_delivered[i]


@settings(max_examples=8, deadline=None)
@given(
    algorithm_cls=batch_algorithm_st,
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extra=st.lists(
        st.integers(min_value=2**32, max_value=2**33),
        min_size=1, max_size=4, unique=True,
    ),
)
def test_batch_size_one_matches_embedded_run(algorithm_cls, k, seed, extra):
    """A run executed alone (batch of one) is bit-identical to the same
    seed embedded in a larger batch."""
    alone = _batch_run(algorithm_cls, k, 2, [seed])
    embedded = _batch_run(algorithm_cls, k, 2, [seed] + extra)
    assert _fingerprint(alone.results[0]) == _fingerprint(embedded.results[0])
    assert alone.packets_created[0] == embedded.packets_created[0]
    assert alone.packets_delivered[0] == embedded.packets_delivered[0]


@settings(max_examples=8, deadline=None)
@given(
    algorithm_cls=batch_algorithm_st,
    k=st.integers(min_value=2, max_value=4),
    batch_size=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=99),
)
def test_batch_open_loop_physics(algorithm_cls, k, batch_size, seed):
    """The event-kernel physics bounds hold for every run of a batch."""
    np = pytest.importorskip("numpy")  # noqa: F841 - guard only
    sim = Simulator(
        FlattenedButterfly(k, 2),
        algorithm_cls(),
        UniformRandom(),
        SimulationConfig(seed=seed),
        kernel="batch",
    )
    batch = sim.run_open_loop_batch(
        0.2, replicas=batch_size, warmup=150, measure=150, drain_max=4000
    )
    assert len(batch) == batch_size
    for result in batch:
        if result.saturated:
            continue
        assert result.accepted_throughput <= 1.0 + 1e-9
        assert result.accepted_throughput == pytest.approx(0.2, abs=0.08)
        assert result.latency.mean >= result.mean_hops - 1e-9
        assert result.latency.p50 <= result.latency.p95 <= result.latency.max


# ----------------------------------------------------------------------
# Batch-kernel sort keys: every within-cycle order is one stable argsort
# on a packed integer key, which must equal the lexsort it stands for.
# ----------------------------------------------------------------------

#: float32 edge values of the packed key's minor half: +0.0, the
#: smallest and largest subnormals, the smallest normal, and the values
#: just below 1.0 (the tie-break uniforms are drawn from [0, 1)).
EDGE_MINORS = [
    0.0,
    2.0**-149,
    2.0**-126 - 2.0**-149,
    2.0**-126,
    0.5,
    1.0 - 2.0**-23,
    1.0 - 2.0**-24,
]

#: Majors from a tiny pool (heavy ties) or right below the key bound.
major_st = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(
        min_value=_KEY_MAJOR_BOUND - 4, max_value=_KEY_MAJOR_BOUND - 1
    ),
)
minor_st = st.one_of(
    st.sampled_from(EDGE_MINORS),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32),
)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(major_st, minor_st), min_size=1,
                      max_size=200))
def test_packed_order_matches_lexsort(pairs):
    """The FIFO-rank / wave order equals ``lexsort((minor, major))``,
    ties in both keys included."""
    np = pytest.importorskip("numpy")
    major = np.array([p[0] for p in pairs], dtype=np.int64)
    minor = np.array([p[1] for p in pairs], dtype=np.float32)
    assert np.array_equal(
        _packed_order(major, minor), np.lexsort((minor, major))
    )


def _digit_st(radix):
    """A digit in ``[0, radix)``, biased to the edges where a wrong
    radix would carry into the next digit."""
    return st.one_of(
        st.sampled_from(sorted({0, min(1, radix - 1), radix - 1})),
        st.integers(min_value=0, max_value=radix - 1),
    )


@settings(max_examples=200, deadline=None)
@given(
    c0=st.integers(min_value=0, max_value=10**6),
    runs=st.integers(min_value=1, max_value=64),
    terms=st.integers(min_value=1, max_value=4096),
    data=st.data(),
)
def test_mixed_radix_order_matches_lexsort(c0, runs, terms, data):
    """The predraw's (cycle, run, terminal) and per-run (cycle,
    terminal) orders equal the multi-key lexsorts they stand for."""
    np = pytest.importorskip("numpy")
    rows = data.draw(st.lists(
        st.tuples(
            _digit_st(INJECTION_CHUNK), _digit_st(runs), _digit_st(terms)
        ),
        min_size=1, max_size=200,
    ))
    t = np.array([c0 + row[0] for row in rows], dtype=np.int64)
    b = np.array([row[1] for row in rows], dtype=np.int32)
    j = np.array([row[2] for row in rows], dtype=np.int32)
    assert np.array_equal(
        _mixed_radix_order((t - c0, b, j), (runs, terms)),
        np.lexsort((j, b, t)),
    )
    assert np.array_equal(
        _mixed_radix_order((t, j), (terms,)), np.lexsort((j, t))
    )
