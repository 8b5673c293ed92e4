"""Cross-cutting property tests of the simulator's physics.

These assert relations that must hold for *any* algorithm, pattern,
and seed: conservation, causality (latency at least covers the hops
taken), and bandwidth limits (accepted throughput can exceed neither
the offered load nor unit ejection bandwidth).
"""

import copy
import dataclasses
import math
import random

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
from repro.core.routing.clos_ad import PHASE_ASCENT, PHASE_DESCENT
from repro.network import SimulationConfig, Simulator
from repro.network.batch import (
    INJECTION_CHUNK,
    _KEY_MAJOR_BOUND,
    _latency_summary,
    _mixed_radix_order,
    _offset_order,
    _packed_order,
    _run_order,
    _segment_ranks,
    _serve_fifo,
)
from repro.network.buffers import CHANNEL_PORT, OutPort, vc_rotations
from repro.network.packet import Packet
from repro.network.router import RouterEngine, round_robin_order
from repro.network.stats import LatencySummary
from repro.topologies import Butterfly
from repro.topologies.hyperx import HyperX
from repro.topologies.routing import DestinationTag
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
    return sim.run_open_loop_grid(
        [load], seeds=tuple(seeds), warmup=100, measure=150, drain_max=2000
    )[0]


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
    batch = sim.run_open_loop_grid(
        [0.2], replicas=batch_size, warmup=150, measure=150, drain_max=4000
    )[0]
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


# ----------------------------------------------------------------------
# Batch-kernel linear-time orders: the contested-only FIFO rank, the
# radix-sorted cycle offsets and the numpy run summaries must equal the
# full sorts and the Python summary they stand for.
# ----------------------------------------------------------------------

#: Offsets on both sides of the 2**16 radix cut-over.
offset_st = st.one_of(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=(1 << 16) - 3, max_value=(1 << 16) + 3),
    st.integers(min_value=0, max_value=1 << 20),
)


@settings(max_examples=200, deadline=None)
@given(offsets=st.lists(offset_st, max_size=200), narrow=st.booleans())
def test_offset_order_matches_stable_argsort(offsets, narrow):
    """The calendar-push and predraw order equals the stable int64
    argsort, whether it takes the uint16 radix path or falls back."""
    np = pytest.importorskip("numpy")
    key = np.array(offsets, dtype=np.int64)
    if narrow:
        key %= 1 << 16  # every offset on the radix path
    assert np.array_equal(
        _offset_order(key), np.argsort(key, kind="stable")
    )


def _serve_fifo_reference(q, minor, t, next_free, period_flat):
    """FIFO service by one packed sort of every arrival: the rank is the
    position in the stable ``(queue, minor)`` order within the queue.
    Returns ``(rank, dep)`` in arrival order."""
    np = pytest.importorskip("numpy")
    m = q.size
    order = _packed_order(q, minor)
    sq = q[order]
    starts = np.r_[True, sq[1:] != sq[:-1]]
    start_idx = np.flatnonzero(starts)
    seg = np.cumsum(starts) - 1
    rank_sorted = np.arange(m) - start_idx[seg]
    base = np.maximum(t, next_free[sq[start_idx]])
    rank = np.empty(m, dtype=np.int64)
    rank[order] = rank_sorted
    dep = np.empty(m, dtype=np.int64)
    dep[order] = base[seg] + rank_sorted * period_flat[sq]
    counts = np.diff(np.append(start_idx, m))
    next_free[sq[start_idx]] = base + counts * period_flat[sq[start_idx]]
    return rank, dep


#: Queue layouts of one cycle's arrivals: every arrival alone in its
#: queue, all in one queue, or drawn from a small pool (mixed).
queue_layout_st = st.sampled_from(["singleton", "shared", "pool"])


@settings(max_examples=200, deadline=None)
@given(
    layout=queue_layout_st,
    channel_period=st.integers(min_value=1, max_value=3),
    t=st.integers(min_value=0, max_value=40),
    data=st.data(),
)
def test_contested_ranks_match_full_packed_sort(layout, channel_period, t,
                                                data):
    """Contested-only ranks and the ``dep``/``next_free`` they give equal
    the full packed-sort FIFO service, equal float32 minors in one queue
    included."""
    np = pytest.importorskip("numpy")
    runs, channels, terminals = 2, 5, 3
    queues = channels + terminals
    size = runs * queues
    m = data.draw(st.integers(min_value=1, max_value=size))
    if layout == "singleton":
        q = data.draw(st.permutations(range(size)))[:m]
    elif layout == "shared":
        q = [data.draw(st.integers(min_value=0, max_value=size - 1))] * m
    else:
        q = data.draw(st.lists(
            st.integers(min_value=0, max_value=3), min_size=m, max_size=m
        ))
    q = np.array(q, dtype=np.int64)
    minor = np.array(
        data.draw(st.lists(st.sampled_from(EDGE_MINORS[:3]) | minor_st,
                           min_size=m, max_size=m)),
        dtype=np.float32,
    )
    next_free = np.array(
        data.draw(st.lists(st.integers(min_value=0, max_value=60),
                           min_size=size, max_size=size)),
        dtype=np.int64,
    )
    period_q = np.ones(queues, dtype=np.int64)
    period_q[:channels] = channel_period
    period_flat = np.tile(period_q, runs)

    expected_free = next_free.copy()
    expected_rank, expected_dep = _serve_fifo_reference(
        q, minor, t, expected_free, period_flat
    )
    rank, queue_n = _segment_ranks(q, minor)
    assert np.array_equal(rank, expected_rank)
    assert np.array_equal(queue_n, np.bincount(q)[q])
    dep = _serve_fifo(q, minor, t, next_free, period_flat,
                      np.empty(m, dtype=np.int64))
    assert np.array_equal(dep, expected_dep)
    assert np.array_equal(next_free, expected_free)


@settings(max_examples=200, deadline=None)
@given(
    c0=st.integers(min_value=0, max_value=10**6),
    terms=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_run_order_matches_lexsort(c0, terms, data):
    """One run's draw order equals ``lexsort((terminal, cycle))`` for
    single- and multi-block draws.  Block 1 lists ascending terminals,
    each with ascending cycles; each later block continues a subset of
    the terminals past their earlier cycles, as ``_draw_run_chunk``
    does."""
    np = pytest.importorskip("numpy")
    span = INJECTION_CHUNK
    last = {}
    t_parts, j_parts = [], []
    blocks = data.draw(st.integers(min_value=1, max_value=3))
    for block in range(blocks):
        pool = range(terms) if block == 0 else sorted(last)
        rows = sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1))
                      if pool else [])
        for j in rows:
            lo = last.get(j, -1) + 1
            if lo >= span:
                continue
            cycles = sorted(data.draw(st.sets(
                st.integers(min_value=lo, max_value=span - 1),
                min_size=1, max_size=4,
            )))
            last[j] = cycles[-1]
            t_parts += [c0 + c for c in cycles]
            j_parts += [j] * len(cycles)
    t = np.array(t_parts, dtype=np.int64)
    j = np.array(j_parts, dtype=np.int32)
    assert np.array_equal(
        _run_order(t, j, c0, terms, blocks), np.lexsort((j, t))
    )


class _BlockyGenerator:
    """A numpy Generator whose 2-D gap blocks are all ones, so every
    terminal's block lands before the chunk end and
    ``_draw_run_chunk`` must continue it in further blocks."""

    def __init__(self, gen):
        self._gen = gen

    def geometric(self, p, size=None):
        if isinstance(size, tuple):
            import numpy

            return numpy.ones(size, dtype=numpy.int64)
        return self._gen.geometric(p, size=size)

    def integers(self, *args, **kwargs):
        return self._gen.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self._gen.random(*args, **kwargs)


def _reference_run_order(t, j, c0, T, blocks):
    import numpy

    return numpy.lexsort((j, t))


def _reference_draws(backend, state, c0, c1):
    """Every live run's draws for chunk ``[c0, c1)`` from copies of the
    run state's generators and calendar, the values drawn in the
    documented per-run order: gaps, destinations, adaptive tie-breaks,
    ranks, Valiant intermediates.  Returns the draws merged by
    ``lexsort((terminal, run, cycle))`` as ``(run, t, terminal, dst,
    imd, u_route, u_rank)`` columns, each run's own block in
    ``lexsort((terminal, cycle))`` order, and the advanced calendar."""
    from unittest import mock

    import numpy as np

    from repro.network import batch as batch_module

    prog = backend.program
    gens = copy.deepcopy(state.gens)
    next_inj = state.next_inj.copy()
    parts = []
    with mock.patch.object(batch_module, "_run_order", _reference_run_order):
        for b, gen in enumerate(gens):
            if state.done[b]:
                continue
            drawn = backend._draw_run_times(
                gen, state.rates[b], c0, c1, next_inj[b]
            )
            if drawn is None:
                continue
            counts, j = drawn
            t = np.repeat(np.arange(c0, c1), counts)
            n = t.size
            shape = (n, state.ucols)
            dst = backend._draw_dsts(gen, j)
            u_route = (gen.random(shape, dtype=np.float32) if prog.adaptive
                       else np.zeros(shape, dtype=np.float32))
            u_rank = gen.random(shape, dtype=np.float32)
            imd = (gen.integers(0, prog.R, size=n) if prog.kind != "table"
                   else np.zeros(n, dtype=np.int64))
            parts.append((np.full(n, b), t, j, dst, imd, u_route, u_rank))
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.lexsort((cols[2], cols[0], cols[1]))
    return [col[order] for col in cols], next_inj


def _assert_columns_match(backend, draws, rows, dst, imd, u_route, u_rank):
    """``draws`` at ``rows`` equals the reference columns, and the
    columns the program never reads are not allocated."""
    import numpy as np

    prog = backend.program
    refs = {"dst": dst, "u_rank": u_rank}
    if prog.kind != "table":
        refs["imd"] = imd
    else:
        assert draws.imd is None
    if prog.reads_u_route:
        refs["u_route"] = u_route
    else:
        assert draws.u_route is None
    for name, ref in refs.items():
        assert np.array_equal(getattr(draws, name)[rows], ref), name


@settings(max_examples=30, deadline=None)
@given(
    algorithm_cls=st.sampled_from(
        [MinimalAdaptive, UGAL, DimensionOrder, Valiant]
    ),
    n=st.sampled_from([2, 3]),
    runs=st.integers(min_value=1, max_value=4),
    rate=st.sampled_from([0.02, 0.3, 1.0]),
    blocky=st.booleans(),
    seed=st.integers(min_value=0, max_value=99),
    make_pattern=pattern_st,
)
def test_predraw_layout_matches_lexsort(algorithm_cls, n, runs, rate,
                                        blocky, seed, make_pattern):
    """Two predraw chunks, each run's values drawn straight into its
    block of rows, equal the same draws laid out by ``lexsort((terminal,
    cycle, run))``, multi-block draws included: so the blocks come in
    run order and each holds its run's draws in ``lexsort((terminal,
    cycle))`` order, and each block's per-cycle bounds are where that
    order's cycles start.  Only the columns the program reads exist.
    UGAL on a k-ary 2-flat draws tie-break uniforms it never reads: they
    have no column, yet the ranks and intermediates after them match
    the reference stream that draws them."""
    np = pytest.importorskip("numpy")
    from repro.network import batch as batch_module

    backend = batch_module.BatchBackend(
        FlattenedButterfly(4, n), algorithm_cls(), make_pattern()
    )
    prog = backend.program
    if algorithm_cls is UGAL:
        assert prog.adaptive
        assert prog.reads_u_route == (n == 3)
    state = batch_module._RunState(
        backend, np.full(runs, rate), list(range(seed, seed + runs)),
        warmup=100, measure=100, drain_max=1000, drain=True,
    )
    if blocky:
        state.gens = [_BlockyGenerator(gen) for gen in state.gens]
    for c0 in (0, INJECTION_CHUNK):
        c1 = c0 + INJECTION_CHUNK
        want, next_inj = _reference_draws(backend, state, c0, c1)
        block = np.lexsort((want[2], want[1], want[0]))
        b_all, t_all, j_all, dst, imd, u_route, u_rank = [
            col[block] for col in want
        ]
        draws = backend._predraw_chunk(state, c0, c1, None)
        assert np.array_equal(state.next_inj, next_inj)
        assert np.array_equal(draws.inj_run, np.unique(b_all))
        # Run b's rows from cycle c0 + k on start at the first draw of
        # (run, cycle offset) at least (b, k); k = span ends the block.
        span = c1 - c0
        assert np.array_equal(draws.inj_start, np.searchsorted(
            b_all * span + (t_all - c0),
            draws.inj_run * span + np.arange(span + 1)[:, None],
        ))
        assert np.array_equal(draws.run, b_all)
        assert np.array_equal(
            draws.router, backend.program.inj_router[j_all]
        )
        _assert_columns_match(
            backend, draws, slice(None), dst, imd, u_route, u_rank
        )
        if algorithm_cls is UGAL and n == 2:
            assert draws.u_route is None
            assert np.array_equal(draws.u_rank, u_rank)
            assert np.array_equal(draws.imd, imd)


@pytest.mark.parametrize("algorithm_cls, make_pattern", [
    pytest.param(MinimalAdaptive, UniformRandom, id="MinimalAdaptive"),
    pytest.param(UGAL, UniformRandom, id="UGAL"),
    pytest.param(MinimalAdaptive, adversarial, id="MinimalAdaptive-WC"),
    pytest.param(UGAL, adversarial, id="UGAL-WC"),
])
def test_step_injections_match_merged_layout(algorithm_cls, make_pattern):
    """Each cycle's injection block, as the step files it, equals that
    cycle's slice of the chunk merged by ``lexsort((terminal, run,
    cycle))``, minus the runs already done; runs at different loads
    finish at different cycles inside the chunk.  The block files each
    packet's id, and the draws' row at that id holds its constants."""
    np = pytest.importorskip("numpy")
    from repro.network import batch as batch_module

    backend = batch_module.BatchBackend(
        FlattenedButterfly(4, 2), algorithm_cls(), make_pattern()
    )
    state = batch_module._RunState(
        backend, np.array([0.3, 1.0, 0.1, 0.6]), [7, 8, 9, 10],
        warmup=20, measure=20, drain_max=120, drain=True,
    )
    c0, c1 = 0, INJECTION_CHUNK
    want, _ = _reference_draws(backend, state, c0, c1)
    b_all, t_all, j_all, dst, imd, u_route, u_rank = want

    filed = {}
    original = backend._injections

    def spy(state, draws, k, t):
        done = state.done.copy()
        block = original(state, draws, k, t)
        filed[t] = (done, None if block is None
                    else [np.array(col) for col in block])
        return block

    backend._injections = spy
    draws = backend._predraw_chunk(state, c0, c1, None)
    stop = backend._step_until(state, draws, c0, c1)
    assert state.done.all() and stop < c1
    assert sorted(filed) == list(range(c0, stop))

    dropped = 0
    for t, (done, got) in filed.items():
        at_t = t_all == t
        keep = at_t & ~done[b_all]
        dropped += int((at_t & done[b_all]).sum())
        if not keep.any():
            assert got is None
            continue
        ids, router, born, hops, mode = got
        assert np.array_equal(draws.run[ids], b_all[keep])
        assert np.array_equal(
            router, backend.program.inj_router[j_all[keep]]
        )
        _assert_columns_match(
            backend, draws, ids, dst[keep], imd[keep], u_route[keep],
            u_rank[keep],
        )
        assert (born == t).all() and (hops == 0).all()
        assert (mode == backend.program.mode0).all()
    # Some run finished while others still ran, with draws left over.
    assert dropped > 0


@settings(max_examples=12, deadline=None)
@given(
    algorithm_cls=st.sampled_from(
        [MinimalAdaptive, UGAL, DimensionOrder, Valiant]
    ),
    rate=st.sampled_from([0.3, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=99),
)
def test_chunk_carry_keeps_in_flight_constants(algorithm_cls, rate, seed):
    """At a chunk boundary the packets still in flight move to the head
    of the next chunk's draws: after the calendar's ids are remapped,
    each one reads the same constants as before, and the head holds
    exactly the rows the calendar still references."""
    np = pytest.importorskip("numpy")
    from repro.network import batch as batch_module

    backend = batch_module.BatchBackend(
        FlattenedButterfly(4, 2), algorithm_cls(), UniformRandom()
    )
    state = batch_module._RunState(
        backend, np.full(3, rate), [seed, seed + 1, seed + 2],
        warmup=300, measure=300, drain_max=3000, drain=True,
    )
    c0, c1 = 0, INJECTION_CHUNK
    draws = backend._predraw_chunk(state, c0, c1, None)
    assert backend._step_until(state, draws, c0, c1) == c1
    blocks = [blk for filed in state.cal.values() for blk in filed]
    assert blocks and min(state.cal) >= c1
    names = [name for name in batch_module._ChunkDraws.CONSTANTS
             if getattr(draws, name) is not None]
    before = [{name: getattr(draws, name)[blk[0]] for name in names}
              for blk in blocks]

    carry = backend._carry_in_flight(state.cal, draws)
    assert list(carry) == names
    head = carry["run"].size
    nxt = backend._predraw_chunk(state, c1, c1 + INJECTION_CHUNK, carry)
    assert nxt.inj_start[0, 0] == head
    referenced = np.concatenate([blk[0] for blk in blocks])
    assert np.array_equal(np.unique(referenced), np.arange(head))
    for blk, want in zip(blocks, before):
        for name in names:
            assert np.array_equal(getattr(nxt, name)[blk[0]], want[name])


def _reference_occupancy(arrays, runs, router, dst_r, next_free, Q, t,
                         occ_grace, debit):
    """The 2-D ``minimal_channel[router, dst_r]`` rows and their
    credit-lagged occupancy estimates, padded slots at 2**40."""
    import numpy as np

    cands = arrays.minimal_channel[router, dst_r].astype(np.int64)
    valid = cands >= 0
    qidx = runs[:, None] * Q + np.where(valid, cands, 0)
    occ = np.clip(next_free[qidx] - (t - occ_grace), 0, None)
    if debit is not None:
        occ += np.where(valid, debit[qidx], 0)
    occ[~valid] = 1 << 40
    return cands, occ


def _reference_pick(arrays, runs, router, dst_r, u, next_free, Q, t,
                    occ_grace, debit):
    """MIN AD's pick over the 2-D rows: the uniform-``u`` draw among
    the minimum-occupancy candidates."""
    import numpy as np

    cands, occ = _reference_occupancy(
        arrays, runs, router, dst_r, next_free, Q, t, occ_grace, debit
    )
    tied = occ == occ.min(axis=1, keepdims=True)
    ties = tied.sum(axis=1)
    j = np.minimum((u * ties).astype(np.int64), ties - 1)
    pos = np.cumsum(tied, axis=1) - 1
    choice = (tied & (pos == j[:, None])).argmax(axis=1)
    return cands[np.arange(runs.size), choice]


def _reference_decide(arrays, threshold, runs, router, dst_r, imd,
                      next_free, Q, t, occ_grace, debit):
    """UGAL's minimal-vs-Valiant compare over the 2-D exports."""
    import numpy as np

    hops = arrays.hops.astype(np.int64)
    q_min = _reference_occupancy(
        arrays, runs, router, dst_r, next_free, Q, t, occ_grace, debit
    )[1].min(axis=1)
    degen = (imd == router) | (imd == dst_r)
    via = np.where(degen, dst_r, imd)
    h_val = hops[router, via] + hops[via, dst_r]
    vq = runs * Q + arrays.dor_channel[router, via]
    q_val = np.clip(next_free[vq] - (t - occ_grace), 0, None)
    if debit is not None:
        q_val += debit[vq]
    return degen | (
        q_min * hops[router, dst_r] <= q_val * h_val + threshold
    )


def _reference_modal(arrays, runs, router, dst_r, imd, mode, u, next_free,
                     Q, t, occ_grace, debit):
    """Per-mode channels over the 2-D exports: DOR toward the
    intermediate, DOR toward the destination, or MIN AD's pick."""
    import numpy as np

    from repro.network.batch import MODE_TABLE, MODE_VAL0, MODE_VAL1

    chan = np.full(runs.size, -2, dtype=np.int64)
    v0 = mode == MODE_VAL0
    chan[v0] = arrays.dor_channel[router[v0], imd[v0]]
    v1 = mode == MODE_VAL1
    chan[v1] = arrays.dor_channel[router[v1], dst_r[v1]]
    tb = mode == MODE_TABLE
    chan[tb] = _reference_pick(
        arrays, runs[tb], router[tb], dst_r[tb], u[tb], next_free, Q, t,
        occ_grace, debit,
    )
    return chan


def _ugal_backend(n):
    """A UGAL batch backend on the 4-ary n-flat."""
    from repro.network.batch import BatchBackend

    return BatchBackend(FlattenedButterfly(4, n), UGAL(), UniformRandom())


def _check_flat_decisions(backend, runs, m, debits, seed):
    """The flat-table ``_pick_table``/``_decide``/``_modal_channels`` of
    ``backend`` equal the 2-D references on ``m`` random forwarded
    events: random routers, destinations, intermediates (degenerate
    ones included), modes, queue states and same-cycle debits."""
    import numpy as np

    from repro.core.routing.table import shared_route_table
    from repro.network.batch import MODE_TABLE, MODE_VAL0, MODE_VAL1

    prog = backend.program
    arrays = shared_route_table(backend.topology).as_arrays()
    R, Q = arrays.num_routers, prog.C + prog.T
    rng = np.random.default_rng(seed)
    t, occ_grace = 20, 1
    run = rng.integers(0, runs, m)
    router = rng.integers(0, R, m).astype(np.int32)
    # Forwarded events: never at their destination router.
    dst_r = (router + rng.integers(1, R, m)) % R
    imd = rng.integers(0, R, m).astype(np.int32)
    mode = rng.choice(
        np.array([MODE_TABLE, MODE_VAL0, MODE_VAL1], dtype=np.int8), m
    )
    # A phase-0 packet at its intermediate has already flipped.
    at_imd = (mode == MODE_VAL0) & (imd == router)
    imd[at_imd] = (router[at_imd] + 1) % R
    u = rng.random(m, dtype=np.float32)
    next_free = rng.integers(t - 4, t + 6, runs * Q)
    debit = rng.integers(0, 3, runs * Q) if debits else None
    runq = run * Q

    ref = (next_free, Q, t, occ_grace, debit)
    flat = (next_free, t, occ_grace, debit)
    assert np.array_equal(
        backend._pick_table(runq, router * prog.K + dst_r, u, *flat),
        _reference_pick(arrays, run, router, dst_r, u, *ref),
    )
    assert np.array_equal(
        backend._decide(runq, router, dst_r, imd, *flat),
        _reference_decide(
            arrays, prog.threshold, run, router, dst_r, imd, *ref
        ),
    )
    assert np.array_equal(
        backend._modal_channels(runq, router, dst_r, imd, mode, u, *flat),
        _reference_modal(arrays, run, router, dst_r, imd, mode, u, *ref),
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    runs=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=80),
    debits=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_flat_decisions_match_2d_reference(n, runs, m, debits, seed):
    """UGAL's flat-table minimal pick, minimal-vs-Valiant decision and
    per-mode channel choice equal their 2-D references, on candidate
    rows of width 1 (the 2-flat) and 2 (the 3-flat), with and without
    the sequential allocator's debits."""
    pytest.importorskip("numpy")
    backend = _ugal_backend(n)
    assert backend.program.cand.shape[1] == n - 1
    _check_flat_decisions(backend, runs, m, debits, seed)


@pytest.mark.parametrize("n", [2, 3])
def test_flat_decisions_catch_a_wrong_stride(n):
    """The reference check fails a program whose router-pair tables are
    read with a wrong flat stride."""
    pytest.importorskip("numpy")
    backend = _ugal_backend(n)
    mutant = copy.copy(backend)
    mutant.program = dataclasses.replace(
        backend.program, R=backend.program.R - 1
    )
    with pytest.raises(AssertionError):
        _check_flat_decisions(mutant, runs=2, m=200, debits=True, seed=0)


def _summary_fields(summary):
    return [getattr(summary, f.name) for f in dataclasses.fields(summary)]


@settings(max_examples=200, deadline=None)
@given(samples=st.one_of(
    st.just([]),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
             max_size=1),
    st.lists(st.integers(min_value=0, max_value=5), max_size=300),
    st.lists(st.integers(min_value=0, max_value=10**9), max_size=300),
))
def test_numpy_summary_matches_from_samples(samples):
    """The batch kernel's numpy run summary equals
    ``LatencySummary.from_samples`` field for field and by ``repr``,
    for empty, one-sample and tied samples, with no numpy scalar
    leaking into a field."""
    np = pytest.importorskip("numpy")
    expected = LatencySummary.from_samples(samples)
    got = _latency_summary(np.sort(np.array(samples, dtype=np.int64)))
    assert repr(got) == repr(expected)
    for value, want in zip(_summary_fields(got), _summary_fields(expected)):
        assert type(value) is type(want)
        assert value == want or (math.isnan(value) and math.isnan(want))


@settings(max_examples=200, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=1000),
    n=st.integers(min_value=0, max_value=4097),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_group_bound_scalar_matches_array(L, n, seed):
    """With every destination group of size ``L``, the batch kernel's
    one scalar bound draws the same values as a per-packet bound array
    of ``L`` and leaves the generator in the same state, so group-shift
    runs consume their streams as they would with the array."""
    np = pytest.importorskip("numpy")
    by_array = np.random.default_rng(seed)
    by_scalar = np.random.default_rng(seed)
    want = by_array.integers(0, np.full(n, L, dtype=np.int64))
    got = by_scalar.integers(0, L, size=n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert by_scalar.bit_generator.state == by_array.bit_generator.state


def _reference_finalize(rec_run, rec_lat, rec_dep, rec_hops, cycles):
    """Per run, by a full-length mask over every record: the latency
    summary and mean hops of its records that ejected strictly before
    its final cycle, in plain Python."""
    import numpy as np

    def cat(parts):
        return np.concatenate([np.zeros(0, dtype=np.int64), *parts])

    run, lat, dep, hops = map(cat, (rec_run, rec_lat, rec_dep, rec_hops))
    out = []
    for b, cycle in enumerate(cycles.tolist()):
        sel = (run == b) & (dep < cycle)
        hop_samples = hops[sel].tolist()
        out.append((
            LatencySummary.from_samples(lat[sel].tolist()),
            sum(hop_samples) / len(hop_samples) if hop_samples else math.nan,
        ))
    return out


@settings(max_examples=150, deadline=None)
@given(
    runs=st.integers(min_value=1, max_value=6),
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=400),
            # Latencies past 2**31 need 64-bit sort keys.
            st.one_of(st.integers(min_value=0, max_value=60),
                      st.just(2**31)),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=300,
    ),
    cut=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_finalize_matches_masked_reference(runs, records, cut, data):
    """The linear finalize (one cutoff pass, one sort by (run, latency),
    one bincount of hops) equals a per-run masked reference field for
    field, with records filed over several cycles' arrays, some runs cut
    off before their last records ejected (saturated runs), one run with
    no records at all, and latencies too long for 32-bit sort keys."""
    np = pytest.importorskip("numpy")
    from repro.network import batch as batch_module

    backend = batch_module.BatchBackend(
        FlattenedButterfly(2, 3), UGAL(), UniformRandom()
    )
    hmax = backend.program.hmax  # no packet takes more hops
    empty = data.draw(st.integers(min_value=0, max_value=runs - 1))
    records = [rec for rec in records if rec[0] % runs != empty]
    run = np.array([rec[0] % runs for rec in records], dtype=np.int32)
    lat = np.array([rec[2] for rec in records], dtype=np.int64)
    dep = lat + np.array([rec[1] for rec in records], dtype=np.int64)
    hops = np.array([rec[3] % (hmax + 1) for rec in records], dtype=np.int16)
    # Final cycles from before every ejection to after all, often at
    # one of the run's own ejection cycles.
    cycles = np.array([
        data.draw(st.sampled_from([1, 2**32, *dep[run == b].tolist()]))
        for b in range(runs)
    ], dtype=np.int64)
    # Filed as the step files them: one nonempty array per cycle.
    parts = [p for p in np.array_split(np.arange(run.size), cut) if p.size]
    rec = [[col[p] for p in parts] for col in (run, lat, dep, hops)]
    want = _reference_finalize(*rec, cycles)
    zeros = np.zeros(runs, dtype=np.int64)
    got = backend._finalize(
        np.full(runs, 0.5), 100, cycles, zeros.astype(bool), zeros,
        zeros, zeros, zeros, zeros, *rec, 1.0,
    )
    assert want[empty][0].count == 0
    for result, (summary, mean_hops) in zip(got, want):
        assert repr(result.latency) == repr(summary)
        assert repr(result.network_latency) == repr(summary)
        assert type(result.mean_hops) is float
        assert repr(result.mean_hops) == repr(mean_hops)


# ----------------------------------------------------------------------
# Decision-level differential: the event kernel's table-served
# route_event must make exactly the decision of the uncached route().
# ----------------------------------------------------------------------

#: 2-, 3- and 4-flats plus a HyperX with parallel channels; every
#: extent is at least 3, so CLOS AD always has a middle-stage digit.
DECISION_TOPOLOGIES = {
    "8-ary 2-flat": lambda: FlattenedButterfly(8, 2),
    "4-ary 3-flat": lambda: FlattenedButterfly(4, 3),
    "3-ary 4-flat": lambda: FlattenedButterfly(3, 4),
    "hx33 m2": lambda: HyperX(
        concentration=2, dims=(3, 3), multiplicity=(2, 2)
    ),
}


def _packet_state(algorithm_cls, topo, data):
    """Routing state of a packet somewhere along its route: CLOS AD in
    ascent (from any next dimension) or descent; VAL in either phase;
    UGAL undecided, on its minimal route, or in either Valiant phase.
    MIN AD, DOR and dest-tag keep no per-packet state."""
    if algorithm_cls is ClosAD:
        phase = data.draw(
            st.sampled_from([PHASE_ASCENT, PHASE_ASCENT, PHASE_DESCENT])
        )
        next_dim = data.draw(st.integers(1, topo.num_dims + 1))
        return {"phase": phase, "scratch": {"next_dim": next_dim}}

    def valiant():
        return {
            "phase": data.draw(st.integers(0, 1)),
            "intermediate": data.draw(st.integers(0, topo.num_routers - 1)),
        }

    if algorithm_cls is Valiant:
        return valiant()
    if not issubclass(algorithm_cls, UGAL):
        return {}
    mode = data.draw(
        st.sampled_from(["undecided", "undecided", "minimal", "valiant"])
    )
    if mode == "undecided":
        return {}
    if mode == "minimal":
        return {"minimal": True}
    return {"minimal": False, **valiant()}


def _decision_packet(topo, dst, state):
    packet = Packet(0, 0, dst, topo.ejection_router(dst), 1, 0)
    for field, value in state.items():
        setattr(packet, field, dict(value) if field == "scratch" else value)
    return packet


def _routing_fields(packet):
    return (packet.phase, packet.scratch, packet.minimal, packet.intermediate)


def _check_route_event(make_algorithm, topo, seed, data):
    """``route_event`` (route table) equals ``route`` of a twin whose
    table is removed, in ``(port, vc)``, in every packet routing field,
    and in the route RNG's end state.  The twin's ``route()`` would
    raise if it read the table, so the reference stays table-free."""
    algorithm = make_algorithm()
    sim = Simulator(topo, algorithm, UniformRandom(), SimulationConfig(seed=1))
    assert algorithm._route_table is not None
    reference = make_algorithm()
    reference.attach(sim)
    reference._route_table = None

    router = data.draw(st.integers(0, topo.num_routers - 1))
    engine = sim.engines[router]
    # Either every channel ties, or occupancies come from a three-value
    # set: frequent ties exercise the reservoir draws, and the gap
    # between 0 or 1 and 6 flits sends CLOS AD to a middle stage and
    # UGAL to its Valiant route.
    level = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    for out in engine.out_ports:
        if out.kind == CHANNEL_PORT:
            out.occ = (
                data.draw(st.sampled_from([0, 1, 6]))
                if level is None
                else level
            )

    if isinstance(topo, Butterfly) and topo.stage_of(router) == topo.n - 1:
        # A final-stage butterfly router only ejects, to its own
        # terminals.
        dst = data.draw(st.sampled_from([
            t for t in range(topo.num_terminals)
            if topo.ejection_router(t) == router
        ]))
    else:
        dst = data.draw(st.integers(0, topo.num_terminals - 1))
    state = _packet_state(type(algorithm), topo, data)
    rng = sim.route_rng
    rng.seed(seed)
    start = rng.getstate()

    packet = _decision_packet(topo, dst, state)
    expected = reference.route(engine, packet)
    expected_fields = _routing_fields(packet)
    expected_rng = rng.getstate()

    rng.setstate(start)
    packet = _decision_packet(topo, dst, state)
    assert algorithm.route_event(engine, packet) == expected
    assert _routing_fields(packet) == expected_fields
    assert rng.getstate() == expected_rng


decision_topology_st = st.sampled_from(sorted(DECISION_TOPOLOGIES))
threshold_st = st.sampled_from([0, 1, 3])
rng_seed_st = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(
    topology=decision_topology_st,
    threshold=threshold_st,
    seed=rng_seed_st,
    data=st.data(),
)
def test_clos_ad_route_event_matches_route(topology, threshold, seed, data):
    """CLOS AD's table-served ascent and descent make the decision of
    its reference ``route``, over random occupancies with forced ties."""
    _check_route_event(
        lambda: ClosAD(threshold=threshold),
        DECISION_TOPOLOGIES[topology](), seed, data,
    )


@settings(max_examples=300, deadline=None)
@given(
    algorithm_cls=st.sampled_from([UGAL, UGALSequential]),
    topology=decision_topology_st,
    threshold=threshold_st,
    seed=rng_seed_st,
    data=st.data(),
)
def test_ugal_route_event_matches_route(
    algorithm_cls, topology, threshold, seed, data
):
    """UGAL's and UGAL-S's one-pass table decision, and their later
    minimal and Valiant hops, match the reference ``route``."""
    _check_route_event(
        lambda: algorithm_cls(threshold=threshold),
        DECISION_TOPOLOGIES[topology](), seed, data,
    )


@settings(max_examples=300, deadline=None)
@given(
    algorithm_cls=st.sampled_from([MinimalAdaptive, Valiant, DimensionOrder]),
    topology=decision_topology_st,
    seed=rng_seed_st,
    data=st.data(),
)
def test_flat_route_event_matches_route(algorithm_cls, topology, seed, data):
    """MIN AD's table candidates (with their reservoir tie-breaks),
    VAL's two-phase DOR hops and DOR's unique hop match the reference
    ``route``."""
    _check_route_event(
        algorithm_cls, DECISION_TOPOLOGIES[topology](), seed, data
    )


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from([(2, 3), (3, 3), (4, 2), (2, 5)]),
    seed=rng_seed_st,
    data=st.data(),
)
def test_dest_tag_route_event_matches_route(shape, seed, data):
    """Destination-tag routing on a conventional butterfly: the table's
    hop, keyed by the destination's position address, is the
    reference's hop at every stage."""
    _check_route_event(DestinationTag, Butterfly(*shape), seed, data)


# The WC pattern draws within a router's terminal group, so the
# concentrations of the simulated topologies (4, 8, 16, 32, 64) are
# among the sizes.
@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 8, 16, 31, 32, 33, 64, 1023, 1024]
)
def test_randbelow_is_randrange(n):
    """``Random._randbelow(n)`` is exactly ``randrange(n)``'s draw: the
    same values and the same generator state.  UGAL's intermediate and
    the traffic patterns' destinations call it directly."""
    for seed in (0, 1, 12345, 2**31 - 1):
        direct, ranged = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert direct._randbelow(n) == ranged.randrange(n)
        assert direct.getstate() == ranged.getstate()


@settings(max_examples=300, deadline=None)
@given(
    layout=st.lists(st.integers(1, 4), min_size=1, max_size=12),
    data=st.data(),
)
def test_round_robin_order_matches_port_key_sort(layout, data):
    """Sorting pending heads by ``order`` and rotating at the offset
    port gives the ``((in_port - offset) % num_in, vc)`` order the
    routing phase has always used, for any port layout (a VC count of
    1 stands for an injection input), head subset and offset."""
    engine = RouterEngine(None, 0)
    for num_vcs in layout:
        if num_vcs == 1 and data.draw(st.booleans()):
            engine.add_injection_input(terminal=0, depth=1)
        else:
            engine.add_channel_input(0, num_vcs, depth=1)
    invcs = [invc for port in engine.in_ports for invc in port]
    heads = data.draw(st.lists(st.sampled_from(invcs), unique=True))
    heads = data.draw(st.permutations(heads))
    num_in = len(layout)
    offset = data.draw(st.integers(0, num_in - 1))
    expected = sorted(
        heads, key=lambda v: ((v.in_port - offset) % num_in, v.vc)
    )
    got = round_robin_order(list(heads), engine._port_order, offset)
    assert got == expected


@pytest.mark.parametrize("num_vcs", range(1, 7))
def test_vc_rotations_match_modulo_walk(num_vcs):
    """The wire phase's rotation tables visit ``(start + i) % num_vcs``
    for every start, and every port with a VC count shares one table."""
    table = vc_rotations(num_vcs)
    assert table == tuple(
        tuple((start + i) % num_vcs for i in range(num_vcs))
        for start in range(num_vcs)
    )
    ports = [OutPort(i, CHANNEL_PORT, num_vcs, 4, 2) for i in range(3)]
    assert all(port.rotations is table for port in ports)
