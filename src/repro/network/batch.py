"""Vectorized structure-of-arrays batch backend (``kernel="batch"``).

Advances a whole *batch* of independent runs — all replicas of a load
point, or a whole (load x replica) grid, sharing one topology — as one
array program per cycle.  Where the event kernel moves Python flit
objects between per-VC FIFOs, this backend represents every flit queue
by a single **virtual service time**: each output channel and each
ejection port of the exact simulator is a rate-1-flit-per-``period``
FIFO server, so a flit arriving at cycle ``t`` departs at ``max(t,
next_free[q]) + rank * period`` and the queue's whole state is the
scalar ``next_free[q]``.  Flits themselves live in a cycle-indexed
event calendar whose entries are numpy arrays over ``(id, router,
born, hops, mode)``: only what changes per hop.  ``id`` is the
packet's row in the chunk's pre-drawn packet table
(:class:`_ChunkDraws`), which holds its constants: run, destination,
Valiant intermediate and per-hop uniforms.  Each cycle gathers from
that table only the constants the program reads; per-cycle work is one
vector program over every arrival of that cycle across every run.
When the next chunk is drawn, the rows of the packets still in flight
move to the head of its table and the calendar's ids are remapped to
them.

The model reproduces the exact kernel's timing rules (verified against
``repro.network.router``): with single-flit packets and sufficient
speedup a flit is routed, staged, and wired in its arrival cycle, so
zero-load latency equals the number of channel traversals; channels
add ``channel_latency`` cycles; each output port sends at most one
flit per ``channel_period`` (channels) or per cycle (ejection).
Deliberate, mean-preserving approximations (documented in
``docs/BATCH.md``):

* Credit stalls are not modeled — with the default 32-flit buffers a
  channel's credit loop never throttles its 1-flit/cycle service below
  the saturation knee.
* VC partitioning is merged into one FIFO per output port.
* Occupancy for adaptive routing — including UGAL's minimal-vs-Valiant
  delay compare — is estimated as the queue backlog plus the
  credit-loop lag (``max(0, next_free - t + channel_latency +
  credit_latency - 1)``) rather than the exact per-VC counter.
* Source queues never back-pressure: a packet enters its injection
  router the cycle it is created, so ``network_latency`` equals total
  latency (the event kernel attributes saturated-queueing differently,
  which is why validation is statistical and below the knee).

Non-minimal routing (VAL, UGAL, UGAL-S) is vectorized by giving every
packet two extra columns: a pre-drawn **intermediate router** ``imd``
in the packet table and a calendar **mode** (:data:`MODE_TABLE`
minimal/oblivious table routing, :data:`MODE_VAL0` dimension order
toward the intermediate, :data:`MODE_VAL1` dimension order toward the
destination, :data:`MODE_UNDEC` awaiting UGAL's source-router
decision).  Each cycle first flips ``VAL0 -> VAL1`` at the
intermediate, then ejects (phase-0 packets pass *through* their
destination, mirroring ``inline_eject = False``), then resolves every
undecided UGAL packet with one vectorized ``q_min * h_min <= q_val *
h_val + threshold`` compare over the occupancy estimate, then routes
each mode through flat tables compiled from the DOR / minimal-candidate
exports of :meth:`repro.core.routing.table.RouteTable.as_arrays` (see
:class:`_Program`).  UGAL-S runs
the decision *and* the routing inside the wave-ranked sequential
emulation, so same-cycle decisions at one router see each other's
allocator debits.

Supported envelope: single-flit packets, no faults,
``UniformRandom``/``GroupShift`` traffic, and the algorithms listed by
:func:`supported_algorithms` (DOR, torus-DOR, dest-tag, MIN AD,
clos-adaptive, VAL, UGAL, UGAL-S).  Everything else raises
``NotImplementedError`` cleanly, naming ``kernel='event'`` as the
fallback; :func:`unsupported_reason` exposes the same check without
raising so sweep layers can filter configurations up front.  The
config fields the model neither honours nor refuses are the gaps
``docs/BATCH.md`` lists.

Randomness: run ``i`` draws everything (injection gaps, destinations,
tie-breaks, Valiant intermediates) from one ``numpy`` Generator seeded
with its own replica seed (see
:func:`repro.network.config.replica_seeds`), and every per-packet
value is pre-drawn from that run's stream at packet creation — the
intermediate draw is appended *after* the destination and tie-break
draws, so table-routed algorithms consume exactly the streams they
always did.  Per-run results are therefore a pure function of the
run's ``(seed, load)`` — **permutation-invariant** across the batch
axis and identical whether the run executes alone, inside a replica
batch, or inside a whole load grid (each load of a
:meth:`BatchBackend.run_load_grid` grid is bit-identical to a one-load
grid of the same seeds).

numpy is an optional extra (``pip install repro[batch]``).  Importing
this module does not import numpy: it is loaded on first batch use (a
:class:`BatchBackend`, or any helper here that touches an array), so an
event-kernel process never pays for it.  Without numpy, importing
works and using the backend raises.
"""

from __future__ import annotations

import importlib.util
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .config import SimulationConfig
from .stats import KernelStats, LatencySummary, OpenLoopResult, _window_end
from .workload import batch_refusal

#: Whether numpy can be imported.  Found without importing it: the
#: module loads on first use (see :class:`_NumpyOnFirstUse`).
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


class _NumpyOnFirstUse:
    """The ``np`` global until something reads an attribute of it:
    that first read imports numpy and rebinds ``np`` to the module, so
    every later read is the real module with no indirection."""

    def __getattr__(self, name):
        global np
        _require_numpy()
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _NumpyOnFirstUse()

#: Cycles of Bernoulli injections generated per vectorized chunk.
INJECTION_CHUNK = 256

#: Sentinel occupancy for padded candidate slots.
_OCC_INF = 1 << 40

#: Per-packet routing modes (the ``mode`` column of every calendar
#: block).  Table-compiled algorithms keep every packet at
#: ``MODE_TABLE``; VAL starts at ``MODE_VAL0``; UGAL starts at
#: ``MODE_UNDEC`` and decides at the source router.
MODE_TABLE = 0
MODE_VAL0 = 1
MODE_VAL1 = 2
MODE_UNDEC = 3

#: Exclusive bound on the major half of a packed sort key (see
#: :func:`_packed_order`): ``runs x queues`` must stay below it.
_KEY_MAJOR_BOUND = 1 << 31


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise ImportError(
            "kernel='batch' requires numpy; install the batch extra "
            "(pip install repro[batch])"
        )


def _packed_order(major, minor):
    """Stable order of events by ``(major, minor)`` — equal to
    ``np.lexsort((minor, major))`` — from one sort of packed int64 keys.
    Requires ``0 <= major < _KEY_MAJOR_BOUND`` and a non-negative float32
    ``minor``, whose bit patterns read as unsigned integers order exactly
    like its values.

    When ``major``, the minor's bits and the event's position fit one
    63-bit key, every key is distinct, so numpy's fastest value sort
    (not stable, and not needing to be) orders them and the position
    bits read off the order.  Otherwise the key ``major << 32 | minor``
    is argsorted stably."""
    n = major.size
    if not n:
        return np.zeros(0, dtype=np.intp)
    bits = minor.view(np.uint32)
    pos_bits = (n - 1).bit_length()
    low = int(bits.max()).bit_length() + pos_bits
    if int(major.max()).bit_length() + low <= 63:
        key = major.astype(np.int64) << low
        key |= bits.astype(np.int64) << pos_bits
        key |= np.arange(n)
        key.sort()
        key &= (1 << pos_bits) - 1
        return key
    key = major.astype(np.int64) << 32
    key |= bits
    return np.argsort(key, kind="stable")


def _mixed_radix_order(digits, radices):
    """Stable lexicographic order of ``digits`` (most significant
    first) — equal to ``np.lexsort(digits[::-1])`` — as one argsort of
    the mixed-radix int64 key.  Requires a non-negative leading digit,
    ``0 <= digits[i + 1] < radices[i]``, and a key below 2**63."""
    key = digits[0].astype(np.int64)
    for digit, radix in zip(digits[1:], radices):
        key *= radix
        key += digit
    return np.argsort(key, kind="stable")


def _offset_order(offsets):
    """Stable order of the non-negative integer ``offsets`` — equal to
    ``np.argsort(offsets, kind="stable")``.  Offsets below 2**16 are
    sorted as ``uint16``, which numpy radix-sorts in linear time; a
    larger offset falls back to the int64 sort."""
    if offsets.size and int(offsets.max()) < 1 << 16:
        return np.argsort(offsets.astype(np.uint16), kind="stable")
    return np.argsort(offsets, kind="stable")


def _run_order(t, j, c0, T, blocks):
    """``(cycle, terminal)`` order of one run's draws ``t``/``j`` —
    equal to ``np.lexsort((j, t))``.  A single draw block lists the
    terminals in ascending order, each with its cycles ascending, so a
    stable sort on the cycle offset ``t - c0`` alone yields it.  Later
    blocks restart the terminal order, so a draw of ``blocks > 1``
    takes the mixed-radix key."""
    if blocks == 1:
        return _offset_order(t - c0)
    return _mixed_radix_order((t, j), (T,))


def _segment_ranks(major, minor):
    """Rank of every event among the events sharing its ``major`` in
    the stable ``(major, minor)`` order, and the size of its group.

    Equal to the within-group position under ``_packed_order(major,
    minor)``, under the same key requirements.  One ``np.bincount``
    sizes the groups; an event alone in its group has rank 0 without
    sorting, and only the contested events go through the packed
    sort."""
    group_n = np.bincount(major).take(major)
    rank = np.zeros(major.size, dtype=np.int64)
    contested = np.flatnonzero(group_n > 1)
    if contested.size:
        sub = major.take(contested)
        order = _packed_order(sub, minor.take(contested))
        sub = sub.take(order)
        starts = np.empty(sub.size, dtype=bool)
        starts[0] = True
        np.not_equal(sub[1:], sub[:-1], out=starts[1:])
        start_idx = np.flatnonzero(starts)
        rank[contested.take(order)] = (
            np.arange(sub.size) - start_idx.take(np.cumsum(starts) - 1)
        )
    return rank, group_n


def _serve_fifo(q, minor, t, next_free, period_flat, dep):
    """FIFO service of one cycle's arrivals at the flat ``(run, queue)``
    indices ``q``: same-cycle arrivals at one queue are ranked by their
    pre-drawn per-run tie-break ``minor`` (see :func:`_segment_ranks`)
    and served at one flit per period, so arrival ``i`` departs at
    ``max(t, next_free[q]) + rank * period``.  Writes the departures
    into ``dep`` and advances ``next_free`` in place; returns ``dep``."""
    rank, queue_n = _segment_ranks(q, minor)
    period = period_flat.take(q)
    base = np.maximum(next_free.take(q), t)
    np.multiply(rank, period, out=dep)
    dep += base
    # Every arrival at one queue shares its base, so this scatter writes
    # one value per queue.
    next_free[q] = base + queue_n * period
    return dep


def _latency_summary(ordered) -> LatencySummary:
    """:meth:`LatencySummary.from_samples` of the ascending integer
    array ``ordered``, computed in numpy: the exact integer sum over
    the count gives the same mean, and every field is a Python
    ``int``/``float``."""
    n = int(ordered.size)
    if not n:
        return LatencySummary.from_samples([])

    def percentile(q):
        return float(ordered[max(1, math.ceil(q * n)) - 1])

    return LatencySummary(
        count=n,
        mean=int(ordered.sum()) / n,
        p50=percentile(0.50),
        p95=percentile(0.95),
        p99=percentile(0.99),
        max=float(ordered[-1]),
    )


def _concat_and_clear(parts, dtype):
    """The arrays of the list ``parts`` concatenated (empty ``dtype``
    for none); empties the list, so its arrays can be freed."""
    out = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
    parts.clear()
    return out


@dataclass
class BatchRunResult:
    """Results of one batched open-loop measurement.

    ``results[i]`` is the ordinary :class:`OpenLoopResult` of run ``i``
    (seed ``seeds[i]``), so everything downstream of the event kernel —
    ``SweepRunner``, ``replicate_jobs``, report counters — consumes
    batch output unchanged.  The conservation fields are exact per-run
    packet accounts frozen at each run's final cycle.
    """

    offered_load: float
    seeds: Tuple[int, ...]
    warmup: int
    measure: int
    drain_max: int
    results: List[OpenLoopResult]
    packets_created: Tuple[int, ...]
    packets_delivered: Tuple[int, ...]
    packets_in_flight: Tuple[int, ...]
    packets_dropped: Tuple[int, ...]
    wall_seconds: float = field(compare=False)
    #: Scratch-buffer counters (``scratch_allocs``/``scratch_reuses``)
    #: and per-layer host seconds (``predraw_s``/``step_s``/
    #: ``finalize_s``).  Execution detail, so excluded from equality: a
    #: run inside a grid and the same run alone compare equal though
    #: their counters differ.
    stats: Optional[Dict[str, object]] = field(
        default=None, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


@dataclass
class _Program:
    """Topology + algorithm compiled to flat, contiguous routing tables.

    Every table is indexed by one flat ``np.intp`` position, so each
    lookup is a 1-D gather.  One table routing step reads row ``router
    * K + key_of_dst[dst]`` of ``cand`` — the candidate channel ids of
    that (router, destination key) pair, -1 padded — or ejects when
    ``router == ej_router[dst]``.  Non-minimal kinds (``"val"``,
    ``"ugal"``) additionally carry the DOR hop ``dor_chan[a * R + b]``
    and the inter-router hop count ``hops_rr[a * R + b]`` that the
    Valiant phases walk and UGAL's delay estimate multiplies; they key
    ``cand`` by the destination router (``key_of_dst is ej_router``,
    ``K == R``), so a candidate row and the DOR entry of the same router
    pair share one index.

    ``adaptive`` is part of the random-stream contract: the program
    *draws* per-hop tie-break uniforms for every packet.  Whether it
    ever *reads* them is :attr:`reads_u_route`: ``cand`` keeps only its
    first column unless some row offers an adaptive program a choice.
    """

    T: int  # terminals
    R: int  # routers
    C: int  # channels
    K: int  # destination keys per router
    hmax: int  # max channel hops on any used path
    adaptive: bool  # draws the u_route tie-break uniforms
    sequential: bool  # same-cycle decisions see each other's debits
    kind: str  # "table" | "val" | "ugal"
    mode0: int  # mode every packet is born with
    threshold: int  # UGAL minimal-path bias (flits)
    inj_router: "np.ndarray"  # [T] int32
    ej_router: "np.ndarray"  # [T] intp
    key_of_dst: "np.ndarray"  # [T] intp
    cand: "np.ndarray"  # [R * K, W] intp channel ids
    channel_dst: "np.ndarray"  # [C] int32
    dor_chan: Optional["np.ndarray"] = None  # [R * R] intp channel ids
    hops_rr: Optional["np.ndarray"] = None  # [R * R] int64 router hops

    @property
    def reads_u_route(self) -> bool:
        """Whether any candidate row offers a choice, so the minimal
        pick reads the tie-break uniforms it draws."""
        return self.cand.shape[1] > 1


def _validate_config(config: SimulationConfig) -> None:
    if config.packet_size != 1:
        raise NotImplementedError(
            f"multi-flit packets: use kernel='event' (kernel='batch' is "
            f"single-flit only, got packet_size={config.packet_size})"
        )
    faults = config.faults
    if faults is not None and not faults.trivial:
        raise NotImplementedError(
            "fault injection: use kernel='event' (kernel='batch' has no "
            "fault model)"
        )


# ----------------------------------------------------------------------
# Program builders: one per supported algorithm class.
# ----------------------------------------------------------------------
def _build_min_adaptive(topology, algorithm, table):
    arrays = table.as_arrays()
    if arrays.minimal_channel is None:
        raise NotImplementedError(
            f"{algorithm.name} on {type(topology).__name__} has no "
            f"minimal-candidate export"
        )
    return dict(
        cand=arrays.minimal_channel,
        key_of_dst=None,  # ej_router
        adaptive=int(arrays.minimal_count.max()) > 1,
        hmax=int(arrays.hops.max()),
    )


def _build_dor(topology, algorithm, table):
    arrays = table.as_arrays()
    if arrays.dor_channel is None:
        raise NotImplementedError(
            f"{algorithm.name} on {type(topology).__name__} has no "
            f"DOR export"
        )
    return dict(
        cand=arrays.dor_channel[:, :, None],
        key_of_dst=None,
        adaptive=False,
        hmax=int(arrays.hops.max()),
    )


def _build_torus_dor(topology, algorithm, table):
    # Identical table shape to HyperX DOR: the torus export is the
    # unique minimal-ring dimension-order hop with the VC/dateline
    # state factored out (VCs are merged in this backend anyway).
    return _build_dor(topology, algorithm, table)


def _build_dtag(topology, algorithm, table):
    arrays = table.as_arrays()
    if arrays.dtag_channel is None:
        raise NotImplementedError(
            f"{algorithm.name} on {type(topology).__name__} has no "
            f"destination-tag export"
        )
    T = topology.num_terminals
    return dict(
        cand=arrays.dtag_channel[:, :, None],
        key_of_dst=np.arange(T) // topology.k,
        adaptive=False,
        hmax=topology.n - 1,
    )


def _build_folded_clos(topology, algorithm, table):
    # Not served by RouteTable (no HyperX/butterfly family): built
    # directly from the topology's uplink/downlink structure.
    T = topology.num_terminals
    R = topology.num_routers
    leaves = topology.num_leaves
    spines = topology.num_spines
    W = max(spines, 1)
    cand = np.full((R, leaves, W), -1, dtype=np.int32)
    for leaf in range(leaves):
        ups = [ch.index for ch in topology.uplinks(leaf)]
        for key in range(leaves):
            if key == leaf:
                continue  # at the destination leaf the packet ejects
            cand[leaf, key, : len(ups)] = ups
    for s in range(spines):
        spine = leaves + s
        for key in range(leaves):
            cand[spine, key, 0] = topology.downlink(spine, key).index
    key_of_dst = np.array([topology.leaf_of_terminal(t) for t in range(T)])
    return dict(
        cand=cand,
        key_of_dst=key_of_dst,
        adaptive=spines > 1,
        hmax=2,
    )


def _nonminimal_exports(topology, algorithm, table):
    if not hasattr(topology, "differing_dims"):
        raise TypeError(
            f"{algorithm.name} requires a HyperX-family topology"
        )
    return table.as_arrays()


def _build_valiant(topology, algorithm, table):
    arrays = _nonminimal_exports(topology, algorithm, table)
    return dict(
        # Valiant packets never route by table (both phases are DOR),
        # but a well-formed table keeps the program uniform.
        cand=arrays.dor_channel[:, :, None],
        key_of_dst=None,
        adaptive=False,  # oblivious: no tie-break draws
        hmax=2 * int(arrays.hops.max()),
        kind="val",
        mode0=MODE_VAL0,
        dor_chan=arrays.dor_channel,
        hops_rr=arrays.hops,
    )


def _build_ugal(topology, algorithm, table):
    arrays = _nonminimal_exports(topology, algorithm, table)
    if arrays.minimal_channel is None:
        raise NotImplementedError(
            f"{algorithm.name} on {type(topology).__name__} has no "
            f"minimal-candidate export"
        )
    return dict(
        cand=arrays.minimal_channel,
        key_of_dst=None,
        # Minimal mode is MIN AD's tie-broken pick.  Drawn even where
        # every minimal row has one candidate, so the stream is the same
        # on every topology.
        adaptive=True,
        hmax=2 * int(arrays.hops.max()),
        kind="ugal",
        mode0=MODE_UNDEC,
        threshold=int(algorithm.threshold),
        dor_chan=arrays.dor_channel,
        hops_rr=arrays.hops,
    )


def _builder_registry():
    """``{algorithm class: builder}`` for every algorithm this backend
    compiles.  Lazy so importing :mod:`repro.network.batch` stays
    cheap and numpy-free."""
    from ..core.routing.dor import DimensionOrder
    from ..core.routing.min_adaptive import MinimalAdaptive
    from ..core.routing.ugal import UGAL, UGALSequential
    from ..core.routing.valiant import Valiant
    from ..topologies.routing import DestinationTag, FoldedClosAdaptive
    from ..topologies.torus import TorusDOR

    return {
        MinimalAdaptive: _build_min_adaptive,
        DimensionOrder: _build_dor,
        TorusDOR: _build_torus_dor,
        DestinationTag: _build_dtag,
        FoldedClosAdaptive: _build_folded_clos,
        Valiant: _build_valiant,
        UGAL: _build_ugal,
        UGALSequential: _build_ugal,
    }


def supported_algorithms() -> Tuple[str, ...]:
    """Names of every routing algorithm ``kernel='batch'`` compiles,
    sorted (derived from the builder registry, never hardcoded)."""
    return tuple(sorted({cls.name for cls in _builder_registry()}))


def unsupported_reason(
    algorithm=None, pattern=None, config=None
) -> Optional[str]:
    """Why ``kernel='batch'`` cannot run this combination, or ``None``
    if it can.  Checks the algorithm class, traffic-pattern class, and
    config envelope (a ``config.workload`` is built and must reduce to
    open-loop Bernoulli traffic) without compiling anything, so sweep
    layers can filter configurations up front; topology-specific
    export gaps (e.g. UGAL on a torus) still raise at build time."""
    if config is not None:
        try:
            _validate_config(config)
        except NotImplementedError as exc:
            return str(exc)
        if config.workload is not None:
            workload = config.workload.build()
            if workload.batch_delegate() is None:
                return batch_refusal(workload)
    if algorithm is not None and type(algorithm) not in _builder_registry():
        return (
            f"kernel='batch' does not implement {algorithm.name!r} "
            f"(supported: {', '.join(supported_algorithms())}); use "
            f"kernel='event'"
        )
    if pattern is not None:
        from ..traffic.patterns import GroupShift, UniformRandom

        if type(pattern) not in (UniformRandom, GroupShift):
            return (
                f"kernel='batch' does not implement the {pattern.name!r} "
                f"traffic pattern (supported: UR, group-shift); use "
                f"kernel='event'"
            )
    return None


def _build_program(topology, algorithm, table) -> _Program:
    """Compile ``(topology, algorithm)`` into a :class:`_Program`, or
    raise ``NotImplementedError`` for unsupported algorithms."""
    builder = _builder_registry().get(type(algorithm))
    if builder is None:
        raise NotImplementedError(unsupported_reason(algorithm=algorithm))

    T = topology.num_terminals
    R = topology.num_routers
    C = len(topology.channels)
    inj_router = np.array(
        [topology.injection_router(t) for t in range(T)], dtype=np.int32
    )
    ej_router = np.array(
        [topology.ejection_router(t) for t in range(T)], dtype=np.intp
    )
    channel_dst = np.array(
        [channel.dst for channel in topology.channels], dtype=np.int32
    )

    built = builder(topology, algorithm, table)
    key_of_dst = built["key_of_dst"]
    if key_of_dst is None:
        key_of_dst = ej_router
    adaptive = bool(built["adaptive"])
    cand = built["cand"]
    K = cand.shape[1]
    # The first column serves every row with at most one candidate, and
    # an oblivious program always takes it.
    if not adaptive or int((cand >= 0).sum(axis=2).max()) <= 1:
        cand = cand[:, :, :1]
    dor_chan = built.get("dor_chan")
    hops_rr = built.get("hops_rr")
    return _Program(
        T=T,
        R=R,
        C=C,
        K=K,
        hmax=max(int(built["hmax"]), 1),
        adaptive=adaptive,
        sequential=bool(algorithm.sequential),
        kind=built.get("kind", "table"),
        mode0=int(built.get("mode0", MODE_TABLE)),
        threshold=int(built.get("threshold", 0)),
        inj_router=inj_router,
        ej_router=ej_router,
        key_of_dst=np.asarray(key_of_dst, dtype=np.intp),
        cand=np.ascontiguousarray(
            cand.reshape(R * K, cand.shape[2]), dtype=np.intp
        ),
        channel_dst=channel_dst,
        dor_chan=(
            None if dor_chan is None
            else np.ascontiguousarray(dor_chan.reshape(-1), dtype=np.intp)
        ),
        hops_rr=(
            None if hops_rr is None
            else np.ascontiguousarray(hops_rr.reshape(-1), dtype=np.int64)
        ),
    )


@dataclass
class _ChunkDraws:
    """The packet table of one chunk ``[c0, c1)``: one row per packet,
    its per-packet constants in parallel columns.

    The calendar files each in-flight packet by its row here (its
    *id*) and carries only what changes per hop; the step reads the
    constants through the id.  The head rows are the packets still in
    flight when the chunk was drawn, carried over from the previous
    chunk (:meth:`BatchBackend._carry_in_flight`).  After them, each
    run that injects in the chunk owns one contiguous block of rows,
    the blocks in run order, each holding the run's injections in
    ``(cycle, terminal)`` order — the order its generator draws them
    in.  ``inj_run[i]`` is the ``i``-th block's run, and
    ``inj_start[k, i] : inj_start[k + 1, i]`` are its rows at cycle
    ``c0 + k``; cycle ``t``'s injections in the ``(run, terminal)``
    order the step consumes are those slices, taken in block order
    (:meth:`BatchBackend._injections`).  The predraw pass draws each
    run's values straight into its block, so the chunk is held once and
    never sorted, scattered or gathered.  All randomness (gaps,
    destinations, tie-break uniforms, Valiant intermediates) is drawn
    there in the canonical per-run stream order, so the cycle step
    never touches a generator: it only *interprets* these columns.
    Columns a program never reads are ``None``: ``imd`` for table
    programs, and ``u_route`` unless :attr:`_Program.reads_u_route`
    (an adaptive program that never reads it still draws it, into the
    rows the ranks then overwrite, to keep its stream).
    """

    #: The columns read by id after injection, so carried over.
    CONSTANTS = ("run", "dst", "imd", "u_route", "u_rank")

    inj_run: "np.ndarray"  # [runs] intp, the injecting runs, ascending
    inj_start: "np.ndarray"  # [c1 - c0 + 1, runs] int64 block row bounds
    run: "np.ndarray"  # [N] int32
    router: "np.ndarray"  # [N] int32 injection router (injections only)
    dst: "np.ndarray"  # [N] int32 destination terminal
    imd: Optional["np.ndarray"]  # [N] int32 Valiant intermediate
    u_route: Optional["np.ndarray"]  # [N, ucols] f32 tie-breaks, if read
    u_rank: "np.ndarray"  # [N, ucols] float32 FIFO/wave ranks


class _Scratch:
    """Keyed, geometrically grown scratch buffers: each request returns
    a view of a persistent buffer, so steady-state cycles allocate
    nothing.  The per-cycle step's ``allocs``/``reuses`` counters are
    surfaced through ``BatchRunResult.stats`` so the benchmark can
    assert the allocation pass actually holds."""

    __slots__ = ("_bufs", "allocs", "reuses")

    def __init__(self) -> None:
        self._bufs: Dict[str, "np.ndarray"] = {}
        self.allocs = 0
        self.reuses = 0

    def get(self, key: str, n: int, dtype):
        buf = self._bufs.get(key)
        if buf is None or buf.shape[0] < n:
            cap = max(64, n, 0 if buf is None else 2 * buf.shape[0])
            buf = np.empty(cap, dtype=dtype)
            self._bufs[key] = buf
            self.allocs += 1
        else:
            self.reuses += 1
        return buf[:n]


class _RunState:
    """All mutable state of one batched run, shared between the
    predraw pass (which owns the generators and the pending-injection
    calendar) and the cycle step."""

    def __init__(self, backend: "BatchBackend", load_of_run, seeds,
                 warmup: int, measure: int, drain_max: int,
                 drain: bool) -> None:
        prog = backend.program
        cfg = backend.config
        B = len(seeds)
        T, C = prog.T, prog.C
        Q = C + T  # channel queues then per-terminal ejection queues
        self.B, self.T, self.C, self.Q = B, T, C, Q
        self.warmup = warmup
        self.end = warmup + measure
        self.drain_max = drain_max
        self.drain = drain
        self.rates = load_of_run.astype(float)  # packet_size == 1
        self.ucols = prog.hmax + 1

        self.gens = [np.random.default_rng(int(seed)) for seed in seeds]

        # Virtual-service-time state, flattened over (run, queue).
        self.next_free = np.zeros(B * Q, dtype=np.int64)
        period_q = np.ones(Q, dtype=np.int64)
        period_q[:C] = cfg.channel_period
        self.period_flat = np.tile(period_q, B)
        self.occ_grace = cfg.channel_latency + cfg.credit_latency - 1

        # Pending next injection time per (run, terminal): the
        # geometric-gap calendar of BernoulliInjection, vectorized.
        self.next_inj = np.empty((B, T), dtype=np.int64)
        for b, gen in enumerate(self.gens):
            self.next_inj[b] = -1 + gen.geometric(self.rates[b], size=T)

        # In-flight event calendar: cycle -> list of ``(id, router,
        # born, hops, mode)`` array blocks, ``id`` a row of the chunk's
        # draws.
        self.cal: Dict[int, list] = {}
        self.scratch = _Scratch()

        self.done = np.zeros(B, dtype=bool)
        self.saturated = np.zeros(B, dtype=bool)
        self.cycles = np.zeros(B, dtype=np.int64)
        self.created = np.zeros(B, dtype=np.int64)
        self.delivered = np.zeros(B, dtype=np.int64)
        self.frozen_created = np.zeros(B, dtype=np.int64)
        self.frozen_delivered = np.zeros(B, dtype=np.int64)
        self.labeled_created = np.zeros(B, dtype=np.int64)
        self.labeled_done = np.zeros(B, dtype=np.int64)
        self.win_ejects = np.zeros(B, dtype=np.int64)
        self.n_events = np.zeros(B, dtype=np.int64)
        self.n_routes = np.zeros(B, dtype=np.int64)
        self.eject_at: Dict[int, "np.ndarray"] = {}
        self.labeled_eject_at: Dict[int, "np.ndarray"] = {}

        # Labeled-ejection records for latency/hops summaries.
        self.rec_run: List["np.ndarray"] = []
        self.rec_lat: List["np.ndarray"] = []
        self.rec_dep: List["np.ndarray"] = []
        self.rec_hops: List["np.ndarray"] = []


class BatchBackend:
    """A compiled batch simulator for one ``(topology, algorithm,
    pattern, config)`` combination; run methods take the batch's seed
    list and may be called once per instance."""

    def __init__(
        self,
        topology,
        algorithm,
        pattern,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        _require_numpy()
        self.topology = topology
        self.algorithm = algorithm
        self.pattern = pattern
        self.config = config or SimulationConfig()
        _validate_config(self.config)
        pattern.bind(topology)
        self._pattern_mode = self._compile_pattern(pattern)
        from ..core.routing.table import shared_route_table

        self.program = _build_program(
            topology, algorithm, shared_route_table(topology)
        )
        self._consumed = False

    # ------------------------------------------------------------------
    def _compile_pattern(self, pattern) -> str:
        from ..traffic.patterns import GroupShift, UniformRandom

        if type(pattern) is UniformRandom:
            return "uniform"
        if type(pattern) is GroupShift:
            groups = pattern._groups
            sizes = {len(g) for g in groups}
            if len(sizes) > 1:
                raise NotImplementedError(
                    f"group-shift traffic over router groups of unequal "
                    f"sizes {sorted(sizes)}: use kernel='event' "
                    f"(kernel='batch' draws every destination group with "
                    f"one bound)"
                )
            # members[g * L + i]: the i-th terminal of group g.
            members = np.array(groups, dtype=np.int32).reshape(-1)
            group_of = np.array(pattern._group_of, dtype=np.int32)
            self._groups = (
                members, sizes.pop(), group_of, len(groups), pattern.shift
            )
            return "group"
        raise NotImplementedError(unsupported_reason(pattern=pattern))

    def _draw_dsts(self, gen, srcs):
        """Destinations for creation-ordered sources ``srcs``, matching
        the event kernel's per-pattern distribution."""
        n = srcs.size
        T = self.program.T
        if self._pattern_mode == "uniform":
            d = gen.integers(0, T - 1, size=n)
            return (d + (d >= srcs)).astype(np.int32)
        # Every group has L members, so one scalar bound draws what the
        # per-packet bound array would, from the same stream.
        members, L, group_of, G, shift = self._groups
        target = (group_of.take(srcs) + shift) % G
        pick = gen.integers(0, L, size=n)
        pick += target * L
        return members.take(pick)

    def _consume(self) -> None:
        if self._consumed:
            raise RuntimeError(
                "this BatchBackend has already executed a run; build a "
                "fresh one per measurement"
            )
        self._consumed = True

    # ------------------------------------------------------------------
    def run_load_grid(
        self,
        loads: Sequence[float],
        seeds: Sequence[int],
        warmup: int = 1000,
        measure: int = 1000,
        drain_max: int = 100_000,
    ) -> List[BatchRunResult]:
        """Batched analogue of :meth:`Simulator.run_open_loop` over the
        whole ``(load x seed)`` grid, and the only open-loop entry into
        this kernel: one warmup/label/drain measurement per pair, every
        pair advanced in lockstep by one array program.  Returns one
        :class:`BatchRunResult` per load; element ``i`` is
        **bit-identical** to ``run_load_grid([loads[i]], seeds, ...)``
        on a fresh backend, because each run's state and random stream
        are its own (the batch axis only shares the cycle loop and the
        compiled program)."""
        loads = [float(load) for load in loads]
        seeds = tuple(seeds)
        if not loads:
            raise ValueError("need at least one load")
        _window_end(warmup, measure, drain_max)
        S = len(seeds) or 1
        load_of_run = np.repeat(np.asarray(loads), S)
        all_seeds = seeds * len(loads)
        results, created, delivered, wall, stats = self._run(
            load_of_run, all_seeds, warmup, measure, drain_max, True
        )
        out = []
        for i, load in enumerate(loads):
            cut = slice(i * S, (i + 1) * S)
            out.append(self._wrap(
                load, seeds, warmup, measure, drain_max,
                results[cut], created[cut], delivered[cut],
                wall / len(loads), dict(stats),
            ))
        return out

    def measure_saturation(
        self,
        seeds: Sequence[int],
        warmup: int = 1000,
        measure: int = 1000,
    ) -> List[float]:
        """Accepted throughput at offered load 1.0, one value per seed
        (batched :meth:`Simulator.measure_saturation_throughput`)."""
        seeds = tuple(seeds)
        load_of_run = np.ones(len(seeds) or 1)
        results, _created, _delivered, _wall, _stats = self._run(
            load_of_run, seeds, warmup, measure, warmup + measure, False
        )
        return [r.accepted_throughput for r in results]

    def _wrap(self, load, seeds, warmup, measure, drain_max, results,
              created, delivered, wall, stats) -> BatchRunResult:
        B = len(results)
        return BatchRunResult(
            offered_load=load,
            seeds=tuple(int(s) for s in seeds),
            warmup=warmup,
            measure=measure,
            drain_max=drain_max,
            results=list(results),
            packets_created=tuple(int(v) for v in created),
            packets_delivered=tuple(int(v) for v in delivered),
            packets_in_flight=tuple(
                int(c - d) for c, d in zip(created, delivered)
            ),
            packets_dropped=(0,) * B,
            wall_seconds=wall,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # The cycle loop
    # ------------------------------------------------------------------
    def _run(
        self,
        load_of_run: "np.ndarray",
        seeds: Tuple[int, ...],
        warmup: int,
        measure: int,
        drain_max: int,
        drain: bool,
    ):
        for load in np.unique(load_of_run):
            if not 0.0 < load <= 1.0:
                raise ValueError(
                    f"offered load must be in (0, 1], got {load}"
                )
        if not seeds:
            raise ValueError("need at least one seed")
        # The (run, queue) major of the FIFO-rank sort key; the waves'
        # (run, router) major is smaller, as every router owns a queue.
        queues = self.program.C + self.program.T
        if len(seeds) * queues >= _KEY_MAJOR_BOUND:
            raise ValueError(
                f"{len(seeds)} runs x {queues} queues does not fit the "
                f"batch kernel's packed sort key (runs x queues must stay "
                f"below 2**31); split the grid into smaller batches"
            )
        self._consume()
        started = time.perf_counter()
        state = _RunState(
            self, load_of_run, seeds, warmup, measure, drain_max, drain
        )

        # Alternate the predraw pass (which owns all randomness) with
        # the cycle step.  The predraw cadence is load-bearing for
        # bit-compatibility: chunk ``[c, c+INJECTION_CHUNK)`` is drawn
        # exactly when the loop reaches ``c``, only for runs still live
        # at that moment, so each run consumes its generator stream in
        # one fixed order.  The per-layer seconds are timed once per
        # chunk, never per cycle.
        predraw_s = step_s = 0.0
        t = 0
        draws = None
        while not state.done.all():
            mark = time.perf_counter()
            carry = self._carry_in_flight(state.cal, draws)
            # Free this chunk's draws before the next chunk is drawn.
            del draws
            draws = self._predraw_chunk(
                state, t, t + INJECTION_CHUNK, carry
            )
            del carry
            split = time.perf_counter()
            t = self._step_until(state, draws, t, t + INJECTION_CHUNK)
            predraw_s += split - mark
            step_s += time.perf_counter() - split
        # Finalize reads no draws.
        del draws

        mark = time.perf_counter()
        wall = mark - started
        results = self._finalize(
            load_of_run, measure, state.cycles, state.saturated,
            state.labeled_created, state.frozen_delivered,
            state.win_ejects, state.n_events, state.n_routes,
            state.rec_run, state.rec_lat, state.rec_dep,
            state.rec_hops, wall,
        )
        stats = {
            "scratch_allocs": state.scratch.allocs,
            "scratch_reuses": state.scratch.reuses,
            "predraw_s": predraw_s,
            "step_s": step_s,
            "finalize_s": time.perf_counter() - mark,
        }
        return (
            results, state.frozen_created, state.frozen_delivered, wall,
            stats,
        )

    def _step_until(self, state: _RunState, draws: _ChunkDraws, c0: int,
                    c1: int) -> int:
        """Advance cycles ``c0 .. c1-1`` of the chunk drawn as
        ``draws``, stopping early once every run is done; returns the
        next cycle to execute."""
        scratch = state.scratch
        prog = self.program
        cfg = self.config
        B, C, Q = state.B, state.C, state.Q
        ucols = state.ucols
        warmup, end = state.warmup, state.end
        next_free = state.next_free
        period_flat = state.period_flat
        occ_grace = state.occ_grace
        done = state.done
        nonmin = prog.kind != "table"
        # Flat views: a packet's hop-``h`` uniform is cell ``id * ucols
        # + h`` (``hops`` never exceeds ``hmax = ucols - 1``).
        u_rank_cells = draws.u_rank.reshape(-1)
        u_route_cells = (
            None if draws.u_route is None else draws.u_route.reshape(-1)
        )

        t = c0
        while t < c1:
            blocks = state.cal.pop(t, [])
            injected = self._injections(state, draws, t - c0, t)
            if injected is not None:
                blocks.append(injected)

            if blocks:
                if len(blocks) == 1:
                    ids, router, born, hops, mode = blocks[0]
                    m = ids.size
                else:
                    m = sum(blk[0].size for blk in blocks)
                    ids = np.concatenate(
                        [blk[0] for blk in blocks],
                        out=scratch.get("ids", m, np.int64),
                    )
                    router = np.concatenate(
                        [blk[1] for blk in blocks],
                        out=scratch.get("router", m, np.int32),
                    )
                    born = np.concatenate(
                        [blk[2] for blk in blocks],
                        out=scratch.get("born", m, np.int64),
                    )
                    hops = np.concatenate(
                        [blk[3] for blk in blocks],
                        out=scratch.get("hops", m, np.int16),
                    )
                    mode = np.concatenate(
                        [blk[4] for blk in blocks],
                        out=scratch.get("mode", m, np.int8),
                    )
                # Only the constants this program reads, each gathered
                # once: a packet's uniforms at its current hop count.
                # Gathers use take(), numpy's fast path for one flat
                # index array.
                run = draws.run.take(ids)
                dst = draws.dst.take(ids)
                cell = np.multiply(
                    ids, ucols, out=scratch.get("cell", m, np.int64)
                )
                cell += hops
                u_rank = u_rank_cells.take(cell)
                state.n_events += np.bincount(run, minlength=B)
                # Each event's (run, queue) base and destination router.
                runq = np.multiply(
                    run, Q, out=scratch.get("runq", m, np.intp),
                    dtype=np.intp,
                )
                dst_r = prog.ej_router.take(dst)
                ej = dst_r == router
                if nonmin:
                    imd = draws.imd.take(ids)
                    # Event-kernel route() order: the VAL0 -> VAL1 flip
                    # at the intermediate happens *before* the ejection
                    # test, and phase-0 packets pass through their
                    # destination router (inline_eject = False).
                    flip = (mode == MODE_VAL0) & (imd == router)
                    if flip.any():
                        mode[flip] = MODE_VAL1
                    ej &= mode != MODE_VAL0
                fwd = np.flatnonzero(~ej)
                ej = np.flatnonzero(ej)

                # Queue choice: ejection port of dst, or a routed channel.
                q = scratch.get("q", m, np.intp)
                q[ej] = runq.take(ej) + dst.take(ej) + C
                if fwd.size:
                    # The routed events' columns, gathered once.  The
                    # routing writes UGAL's decisions into f_mode.
                    f_runq = runq.take(fwd)
                    f_router = router.take(fwd)
                    f_dst_r = dst_r.take(fwd)
                    f_mode = mode.take(fwd)
                    f_u_route = (
                        None if u_route_cells is None
                        else u_route_cells.take(cell.take(fwd))
                    )
                    f_u_rank = u_rank.take(fwd) if prog.sequential else None
                    if nonmin:
                        chan = self._route_nonminimal(
                            f_runq, f_router, f_dst_r, imd.take(fwd),
                            f_mode, f_u_route, f_u_rank, next_free, t,
                            occ_grace,
                        )
                    else:
                        key = (
                            f_dst_r if prog.key_of_dst is prog.ej_router
                            else prog.key_of_dst.take(dst.take(fwd))
                        )
                        chan = self._route_table(
                            f_runq, f_router, f_router * prog.K + key,
                            f_u_route, f_u_rank, next_free, t, occ_grace,
                        )
                    state.n_routes += np.bincount(
                        run.take(fwd), minlength=B
                    )
                    q[fwd] = f_runq + chan

                dep = _serve_fifo(
                    q, u_rank, t, next_free, period_flat,
                    scratch.get("dep", m, np.int64),
                )

                if ej.size:
                    self._record_ejections(
                        run.take(ej), born.take(ej), dep.take(ej),
                        hops.take(ej), warmup, end, B, state.eject_at,
                        state.labeled_eject_at, state.rec_run,
                        state.rec_lat, state.rec_dep, state.rec_hops,
                    )
                if fwd.size:
                    f_dep = dep.take(fwd)
                    by_arrival = _offset_order(f_dep - t)
                    src = fwd.take(by_arrival)
                    next_hops = hops.take(src)
                    next_hops += 1
                    arrival = f_dep.take(by_arrival)
                    arrival += cfg.channel_latency
                    self._push(
                        state.cal, arrival, (
                            ids.take(src),
                            prog.channel_dst.take(chan.take(by_arrival)),
                            born.take(src), next_hops,
                            f_mode.take(by_arrival),
                        ),
                    )

            arr = state.eject_at.pop(t, None)
            if arr is not None:
                state.delivered += arr
                if warmup <= t < end:
                    state.win_ejects += arr
            arr = state.labeled_eject_at.pop(t, None)
            if arr is not None:
                state.labeled_done += arr

            now = t + 1
            if state.drain:
                newly = (
                    (~done)
                    & (now >= end)
                    & (state.labeled_done >= state.labeled_created)
                )
                cut = (~done) & (~newly) & (now >= state.drain_max)
                state.saturated |= cut
                newly |= cut
            else:
                newly = (~done) & (now >= end)
            if newly.any():
                state.cycles[newly] = now
                state.frozen_created[newly] = state.created[newly]
                state.frozen_delivered[newly] = state.delivered[newly]
                done |= newly
            t += 1
            if done.all():
                break
        return t

    def _injections(self, state: _RunState, draws: _ChunkDraws, k: int,
                    t: int):
        """Cycle ``t``'s injection block: every run's rows
        ``inj_start[k] : inj_start[k + 1]`` of ``draws`` in run order,
        so in ``(run, terminal)`` order, less the runs already done, at
        their injection routers, born at ``t`` with 0 hops in the
        program's birth mode; ``None`` when no live run injects.  Counts
        the packets created."""
        starts = draws.inj_start[k]
        counts = draws.inj_start[k + 1] - starts
        counts[state.done.take(draws.inj_run)] = 0
        n = int(counts.sum())
        if not n:
            return None
        state.created[draws.inj_run] += counts
        if state.warmup <= t < state.end:
            state.labeled_created[draws.inj_run] += counts
        # Row p of the block is its run's start plus p's offset past the
        # runs before it.
        ids = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        ids += np.arange(n)
        router = draws.router.take(ids)
        scratch = state.scratch
        born = scratch.get("i_born", n, np.int64)
        born[:] = t
        hops = scratch.get("i_hops", n, np.int16)
        hops[:] = 0
        # Written in place by the VAL flip, so a fresh fill every cycle.
        mode = scratch.get("i_mode", n, np.int8)
        mode[:] = self.program.mode0
        return ids, router, born, hops, mode

    @staticmethod
    def _carry_in_flight(cal, draws: Optional[_ChunkDraws]):
        """The per-packet constants of every packet still in flight
        at the end of the chunk ``draws``, as ``{column: rows}`` in id
        order (``None`` before the first chunk or with nothing in
        flight).  Remaps the calendar's ids in place to those rows'
        positions, which become the head rows of the next chunk's
        draws."""
        blocks = [blk for filed in cal.values() for blk in filed]
        if not blocks:
            return None
        kept = np.unique(np.concatenate([blk[0] for blk in blocks]))
        for blk in blocks:
            blk[0][:] = np.searchsorted(kept, blk[0])
        carry = {}
        for name in _ChunkDraws.CONSTANTS:
            column = getattr(draws, name)
            if column is not None:
                carry[name] = column[kept]
        return carry

    # ------------------------------------------------------------------
    # The predraw pass (all randomness lives here)
    # ------------------------------------------------------------------
    def _predraw_chunk(self, state: _RunState, c0: int, c1: int,
                       carry) -> _ChunkDraws:
        """Draw every live run's injections with cycle in ``[c0, c1)``
        into one :class:`_ChunkDraws`, after the head rows ``carry``
        (see :meth:`_carry_in_flight`; ``None`` for no head).

        Every run's gaps are drawn first: their per-cycle counts fix
        each run's block of rows (see :class:`_ChunkDraws`).  Then each
        run's per-packet values are drawn straight into its block.  Each
        run draws from its own generator, so every run's stream order is
        that of drawing its gaps and its values back to back."""
        span = c1 - c0
        timed = []
        for b, gen in enumerate(state.gens):
            if state.done[b]:
                continue
            drawn = self._draw_run_times(
                gen, state.rates[b], c0, c1, state.next_inj[b]
            )
            if drawn is not None:
                timed.append((b, *drawn))
        head = 0 if carry is None else carry["run"].size
        # inj_start[k, i]: the i-th block's packets before cycle c0 + k,
        # then offset by the block's first row.
        inj_start = np.zeros((span + 1, len(timed)), dtype=np.int64)
        for i, (_, counts, _) in enumerate(timed):
            np.cumsum(counts, out=inj_start[1:, i])
        sizes = inj_start[-1].copy()
        inj_start += head + (np.cumsum(sizes) - sizes)
        n = head + int(sizes.sum())
        ucols = state.ucols
        prog = self.program
        draws = _ChunkDraws(
            inj_run=np.array([b for b, _, _ in timed], dtype=np.intp),
            inj_start=inj_start,
            run=np.empty(n, dtype=np.int32),
            router=np.empty(n, dtype=np.int32),
            dst=np.empty(n, dtype=np.int32),
            imd=(
                np.empty(n, dtype=np.int32) if prog.kind != "table"
                else None
            ),
            u_route=(
                np.empty((n, ucols), dtype=np.float32)
                if prog.reads_u_route else None
            ),
            u_rank=np.empty((n, ucols), dtype=np.float32),
        )
        if carry is not None:
            for name, rows in carry.items():
                getattr(draws, name)[:head] = rows
        for (b, _, terminals), lo, hi in zip(
            timed, inj_start[0].tolist(), inj_start[-1].tolist()
        ):
            rows = slice(lo, hi)
            draws.run[rows] = b
            prog.inj_router.take(terminals, out=draws.router[rows])
            self._draw_run_values(state.gens[b], terminals, draws, rows)
        return draws

    def _draw_run_times(self, gen, rate, c0, c1, nt):
        """One run's injections in ``[c0, c1)``: vectorized geometric
        gaps continuing the run's calendar row ``nt`` (next injection
        per terminal, which never lags ``c0``, advanced in place), drawn
        from the run's own generator.  Returns the run's packet count at
        each cycle of the chunk and their terminals in canonical
        ``(cycle, terminal)`` order, or ``None`` when the chunk has no
        injections."""
        times_parts: List["np.ndarray"] = []
        terms_parts: List["np.ndarray"] = []
        while True:
            idx = np.flatnonzero(nt < c1)
            if idx.size == 0:
                break
            span = int((c1 - nt[idx]).max())
            mean = span * rate
            m = max(4, int(mean + 6.0 * (mean + 1.0) ** 0.5))
            # times[i] = the terminal's pending time, then its running
            # sums of m fresh gaps, built in place.
            start = nt[idx]
            times = np.empty((idx.size, m + 1), dtype=np.int64)
            times[:, 0] = start
            np.cumsum(
                gen.geometric(rate, size=(idx.size, m)), axis=1,
                out=times[:, 1:],
            )
            times[:, 1:] += start[:, None]
            valid = times < c1
            nvalid = valid.sum(axis=1)
            # Row-major, so each terminal's times in ascending order.
            times_parts.append(times[valid])
            terms_parts.append(np.repeat(idx.astype(np.int32), nvalid))
            bounded = nvalid <= m
            rsel = np.flatnonzero(bounded)
            nt[idx[rsel]] = times[rsel, nvalid[rsel]]
            # Rows whose whole draw block lands before c1: continue from
            # the last drawn time with a fresh gap and loop again.
            rem = np.flatnonzero(~bounded)
            if rem.size:
                nt[idx[rem]] = times[rem, m] + gen.geometric(
                    rate, size=rem.size
                )
        if not times_parts:
            return None
        t_all = np.concatenate(times_parts)
        j_all = np.concatenate(terms_parts)
        order = _run_order(
            t_all, j_all, c0, self.program.T, len(times_parts)
        )
        return np.bincount(t_all - c0, minlength=c1 - c0), j_all[order]

    def _draw_run_values(self, gen, terminals, draws: _ChunkDraws,
                         rows: slice) -> None:
        """Draw the per-packet values of one run's injections from
        ``terminals`` straight into its block ``rows`` of ``draws``,
        from the run's own generator in this order: destinations,
        adaptive tie-break uniforms (adaptive algorithms only), FIFO/wave
        rank uniforms, Valiant intermediates (non-minimal algorithms
        only)."""
        prog = self.program
        draws.dst[rows] = self._draw_dsts(gen, terminals)
        if prog.adaptive:
            # Tie-breaks the program never reads are drawn into the rank
            # rows, which the rank draw below then overwrites.
            gen.random(
                dtype=np.float32,
                out=(draws.u_rank if draws.u_route is None
                     else draws.u_route)[rows],
            )
        gen.random(dtype=np.float32, out=draws.u_rank[rows])
        if prog.kind != "table":
            # Drawn *after* the destination/tie-break draws so
            # table-compiled algorithms consume exactly the streams
            # they always did (bit-compatibility of the pinned runs).
            draws.imd[rows] = gen.integers(0, prog.R, size=terminals.size)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _occupancy(self, qidx, next_free, t, occ_grace, debit_arr):
        """The occupancy estimate of the flat ``(run, queue)`` indices
        ``qidx``: the queue's backlog plus the credit-loop lag, clipped
        at 0, plus the sequential allocator's same-cycle debits when
        ``debit_arr`` is given."""
        occ = next_free.take(qidx)
        occ -= t - occ_grace
        np.maximum(occ, 0, out=occ)
        if debit_arr is not None:
            occ += debit_arr.take(qidx)
        return occ

    def _candidates(self, runq, row, next_free, t, occ_grace, debit_arr):
        """The candidate channels ``(m, W)`` of rows ``row`` and their
        occupancy estimates (see :meth:`_occupancy`), padded slots at
        :data:`_OCC_INF`."""
        cands = self.program.cand.take(row, axis=0)
        occ = self._occupancy(
            runq[:, None] + np.maximum(cands, 0), next_free, t, occ_grace,
            debit_arr,
        )
        occ[cands < 0] = _OCC_INF
        return cands, occ

    def _pick_table(self, runq, row, u_route, next_free, t, occ_grace,
                    debit_arr):
        """Table-candidate channel choice for events with ``(run,
        queue)`` bases ``runq`` at candidate rows ``row``: the single
        candidate, or (adaptive) a uniform draw by ``u_route`` among the
        minimum-occupancy candidates — the vectorized twin of
        ``pick_min_cost`` over ``port_occupancy``, with the sequential
        allocator's same-cycle debits added in when ``debit_arr`` is
        given."""
        cand = self.program.cand
        if cand.shape[1] == 1:
            return cand.take(row)
        cands, occ = self._candidates(
            runq, row, next_free, t, occ_grace, debit_arr
        )
        mn = occ.min(axis=1, keepdims=True)
        tied = occ == mn
        ties = tied.sum(axis=1)
        j = np.minimum((u_route * ties).astype(np.int64), ties - 1)
        pos = np.cumsum(tied, axis=1) - 1
        choice = (tied & (pos == j[:, None])).argmax(axis=1)
        return cands[np.arange(row.size), choice]

    def _waves(self, runq, router, u_rank):
        """Rank events within their ``(run, router)`` group — keyed
        ``runq + router``, as every router owns a queue — by their
        pre-drawn per-run uniform ``u_rank``: the wave number emulates
        the order a sequential allocator would serve same-cycle
        decisions in, randomly yet batch-composition independently."""
        return _segment_ranks(runq + router, u_rank)[0]

    def _route_table(self, runq, router, row, u_route, u_rank, next_free,
                     t, occ_grace):
        """Table-program routing (DOR / dest-tag / MIN AD /
        clos-adaptive) of events at candidate rows ``row``.

        For sequential-allocator algorithms (clos-adaptive), same-cycle
        decisions at one router must see each other's debits — each
        earlier pick makes its uplink one flit deeper.  That is
        emulated by routing in *waves* (:meth:`_waves`): wave ``w``
        routes with the debits of waves ``< w`` added in.  Within one
        wave every group contributes at most one event and no two
        groups share an output channel, so the scatter-add is
        conflict-free.
        """
        prog = self.program
        if not prog.sequential or not prog.reads_u_route:
            return self._pick_table(
                runq, row, u_route, next_free, t, occ_grace, None
            )
        wave_of = self._waves(runq, router, u_rank)
        wmax = int(wave_of.max())
        if wmax == 0:
            return self._pick_table(
                runq, row, u_route, next_free, t, occ_grace, None
            )
        chan = np.empty(row.size, dtype=np.intp)
        debit_arr = np.zeros(next_free.size, dtype=np.int64)
        period = self.config.channel_period
        for w in range(wmax + 1):
            sel = np.flatnonzero(wave_of == w)
            s_runq = runq.take(sel)
            picked = self._pick_table(
                s_runq, row.take(sel), u_route.take(sel), next_free, t,
                occ_grace, debit_arr,
            )
            chan[sel] = picked
            debit_arr[s_runq + picked] += period
        return chan

    def _decide(self, runq, router, dst_r, imd, next_free, t, occ_grace,
                debit_arr):
        """Whether each undecided UGAL packet routes minimally, in one
        vectorized compare — the twin of ``UGAL._decide`` at the source
        router ``router``, toward destination router ``dst_r`` via the
        pre-drawn intermediate ``imd``.

        ``q_min`` is the best occupancy estimate over the minimal
        candidate set, ``h_min`` the minimal hop count; ``q_val`` is
        the estimate of the DOR channel toward the intermediate and
        ``h_val`` the two-phase hop count.  A degenerate intermediate
        (source or destination router) collapses onto the minimal path,
        exactly as in the event kernel.  The packet routes minimally
        iff ``q_min * h_min <= q_val * h_val + threshold``; the
        occupancies include the sequential allocator's same-cycle debits
        when ``debit_arr`` is given (UGAL-S)."""
        prog = self.program
        R = prog.R
        at = router * R
        pair = at + dst_r  # also the minimal candidate row, as K == R
        if prog.cand.shape[1] == 1:
            q_min = self._occupancy(
                runq + prog.cand.take(pair), next_free, t, occ_grace,
                debit_arr,
            )
        else:
            q_min = self._candidates(
                runq, pair, next_free, t, occ_grace, debit_arr
            )[1].min(axis=1)
        h_min = prog.hops_rr.take(pair)

        degen = (imd == router) | (imd == dst_r)
        via = np.where(degen, dst_r, imd)
        first = at + via
        h_val = prog.hops_rr.take(first) + prog.hops_rr.take(via * R + dst_r)
        q_val = self._occupancy(
            runq + prog.dor_chan.take(first), next_free, t, occ_grace,
            debit_arr,
        )
        return degen | (q_min * h_min <= q_val * h_val + prog.threshold)

    def _modal_channels(self, runq, router, dst_r, imd, mode, u_route,
                        next_free, t, occ_grace, debit_arr):
        """Channel choice for decided events by mode: phase-0 packets
        take the DOR hop toward their intermediate, phase-1 packets the
        DOR hop toward their destination router, and minimal
        (``MODE_TABLE``) packets MIN AD's adaptive pick from the
        candidate row of that same router pair."""
        prog = self.program
        pair = router * prog.R + np.where(mode == MODE_VAL0, imd, dst_r)
        chan = prog.dor_chan.take(pair)
        tb = np.flatnonzero(mode == MODE_TABLE)
        if tb.size:
            chan[tb] = self._pick_table(
                runq.take(tb), pair.take(tb),
                None if u_route is None else u_route.take(tb), next_free, t,
                occ_grace, debit_arr,
            )
        return chan

    def _resolve(self, runq, router, dst_r, imd, mode, next_free, t,
                 occ_grace, debit_arr) -> None:
        """Decide every undecided UGAL event, writing its mode into
        ``mode`` in place (see :meth:`_decide`)."""
        if self.program.kind != "ugal":
            return
        und = np.flatnonzero(mode == MODE_UNDEC)
        if und.size:
            minimal = self._decide(
                runq.take(und), router.take(und), dst_r.take(und),
                imd.take(und), next_free, t, occ_grace, debit_arr,
            )
            mode[und] = np.where(minimal, MODE_TABLE, MODE_VAL0)

    def _route_nonminimal(self, runq, router, dst_r, imd, mode, u_route,
                          u_rank, next_free, t, occ_grace):
        """VAL / UGAL routing of forwarded events: decide the undecided,
        writing their modes into ``mode``, then route by mode.

        UGAL-S wraps both steps in the wave-ranked sequential emulation
        (every routed packet debits its channel, matching the event
        kernel's SequentialAllocator, which records oblivious hops
        too), so a later same-cycle decision at the same router sees
        the earlier packets' picks."""
        wmax = 0
        if self.program.sequential:
            wave_of = self._waves(runq, router, u_rank)
            wmax = int(wave_of.max())
        if wmax == 0:
            self._resolve(runq, router, dst_r, imd, mode, next_free, t,
                          occ_grace, None)
            return self._modal_channels(
                runq, router, dst_r, imd, mode, u_route, next_free, t,
                occ_grace, None,
            )
        chan = np.empty(runq.size, dtype=np.intp)
        debit_arr = np.zeros(next_free.size, dtype=np.int64)
        period = self.config.channel_period
        for w in range(wmax + 1):
            sel = np.flatnonzero(wave_of == w)
            s_runq = runq.take(sel)
            s_router = router.take(sel)
            s_dst_r = dst_r.take(sel)
            s_imd = imd.take(sel)
            s_mode = mode.take(sel)
            self._resolve(s_runq, s_router, s_dst_r, s_imd, s_mode,
                          next_free, t, occ_grace, debit_arr)
            mode[sel] = s_mode
            picked = self._modal_channels(
                s_runq, s_router, s_dst_r, s_imd, s_mode,
                None if u_route is None else u_route.take(sel), next_free,
                t, occ_grace, debit_arr,
            )
            chan[sel] = picked
            debit_arr[s_runq + picked] += period
        return chan

    @staticmethod
    def _record_ejections(runs, born, dep, hops, warmup, end, B, eject_at,
                          labeled_eject_at, rec_run, rec_lat, rec_dep,
                          rec_hops) -> None:
        """File one cycle's ejections: per-run counts by departure cycle
        (all, and labeled), and the labeled packets' records."""
        BatchBackend._count_by_cycle(eject_at, runs, dep, B)
        labeled = np.flatnonzero((born >= warmup) & (born < end))
        if not labeled.size:
            return
        lruns = runs.take(labeled)
        ldep = dep.take(labeled)
        BatchBackend._count_by_cycle(labeled_eject_at, lruns, ldep, B)
        rec_run.append(lruns)
        rec_lat.append(ldep - born.take(labeled))
        rec_dep.append(ldep)
        rec_hops.append(hops.take(labeled))

    @staticmethod
    def _count_by_cycle(slots, runs, dep, B) -> None:
        """Add per-run ejection counts into ``slots[cycle]`` for every
        departure cycle in ``dep``, from one 2-D bincount over
        ``(cycle, run)``."""
        d0 = int(dep.min())
        span = int(dep.max()) - d0 + 1
        counts = np.bincount(
            (dep - d0) * B + runs, minlength=span * B
        ).reshape(span, B)
        for i in np.flatnonzero(counts.any(axis=1)).tolist():
            slot = slots.get(d0 + i)
            if slot is None:
                slots[d0 + i] = counts[i]
            else:
                slot += counts[i]

    @staticmethod
    def _push(cal, arrival, columns) -> None:
        """File forwarded events into the calendar, grouped by arrival
        cycle.  ``arrival`` is sorted and every column was gathered once
        in that same order, so each cycle's block is one contiguous
        slice of each column."""
        stops = (np.flatnonzero(arrival[1:] != arrival[:-1]) + 1).tolist()
        starts = [0, *stops]
        stops.append(arrival.size)
        for cycle, start, stop in zip(arrival[starts].tolist(), starts, stops):
            cal.setdefault(cycle, []).append(
                tuple([col[start:stop] for col in columns])
            )

    # ------------------------------------------------------------------
    def _finalize(self, load_of_run, measure, cycles, saturated,
                  labeled_created, frozen_delivered, win_ejects, n_events,
                  n_routes, rec_run, rec_lat, rec_dep, rec_hops,
                  wall) -> List[OpenLoopResult]:
        """One result per run from the labeled-ejection records, in time
        linear in the records: each record list is concatenated and
        emptied in turn, freeing its per-cycle arrays."""
        B = load_of_run.size
        T = self.program.T
        H = self.program.hmax + 1  # hop counts run 0 .. hmax
        # Mirror the event kernel's break semantics: an ejection counts
        # only if it happened strictly before its run's final ``now``
        # (relevant for saturated cutoffs).  A cut record moves to run
        # ``B``, past every real run.  Only a cycle's records departing
        # at or after the earliest final cycle can be cut.
        first_end = int(cycles.min())
        for runs, dep in zip(rec_run, rec_dep):
            if int(dep.max()) >= first_end:
                runs[dep >= cycles.take(runs)] = B
        rec_dep.clear()
        run = _concat_and_clear(rec_run, np.int32)
        # Integer hop sums from one bincount over (run, hops), so each
        # mean is exact.
        cell = run.astype(np.intp)
        cell *= H
        cell += _concat_and_clear(rec_hops, np.int16)
        hop_sums = (
            np.bincount(cell, minlength=(B + 1) * H)[: B * H].reshape(B, H)
            @ np.arange(H)
        ).tolist()
        del cell
        # One sort by (run, latency), of 32-bit keys where they fit;
        # each run's latencies, ascending, are one slice of it.
        lat = _concat_and_clear(rec_lat, np.int64)
        span = int(lat.max()) + 1 if lat.size else 1
        key = run.astype(
            np.int32 if (B + 1) * span <= np.iinfo(np.int32).max
            else np.int64,
            copy=False,
        )
        key *= span
        key += lat
        del lat
        key.sort()
        bounds = np.searchsorted(key, np.arange(B + 1) * span).tolist()
        results = []
        for b in range(B):
            lo, hi = bounds[b], bounds[b + 1]
            summary = _latency_summary(key[lo:hi] - b * span)
            stats = KernelStats(
                kernel="batch",
                cycles=int(cycles[b]),
                events_dispatched=int(n_events[b]),
                wall_seconds=wall / B,
                route_calls=int(n_routes[b]),
            )
            results.append(OpenLoopResult(
                offered_load=float(load_of_run[b]),
                accepted_throughput=float(win_ejects[b]) / (measure * T),
                latency=summary,
                network_latency=replace(summary),
                saturated=bool(saturated[b]),
                cycles=int(cycles[b]),
                packets_labeled=int(labeled_created[b]),
                packets_delivered=int(frozen_delivered[b]),
                mean_hops=hop_sums[b] / (hi - lo) if hi > lo else math.nan,
                packets_undeliverable=0,
                kernel=stats,
            ))
        return results

