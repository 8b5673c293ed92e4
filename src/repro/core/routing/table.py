"""Shared, topology-keyed route tables.

Most of the routing work on the paper's topologies is a pure function
of ``(topology, current router, target)``: MIN AD's minimal-candidate
set, the unique dimension-order hop used by VAL and UGAL's non-minimal
phase, CLOS AD's per-dimension ascent candidates, the destination-tag
hop of the conventional butterfly.  Rather than memoizing these per
*algorithm instance*, this module keeps them in a :class:`RouteTable`
shared by every algorithm instance bound to the same topology object,
so a sweep that re-runs one topology at many load points pays each
precomputation once and every per-hop oblivious lookup becomes a
dictionary hit.

Fault-aware wrappers never rebuild a table: they overlay caches that
*mask* the healthy entries by the permanent fault set (see
``repro.faults.routing``).  Transient outages are priced per decision,
not masked — they heal, so they never change a candidate set.

Tables store output *port* numbers.  Ports are assigned by the
simulator's ``RouterEngine`` construction, not by the topology, but the
assignment is a deterministic function of the topology's channel
enumeration; the table therefore records the ``channel -> port`` map of
the first simulator that binds it and *verifies* every later simulator
against that map (:meth:`RouteTable.bind`), failing loudly rather than
ever returning a port that means something different to the engine
asking.

Every table-served algorithm attaches to the shared table; there is
no untabled event path.  Each algorithm's ``route()`` stays as the
reference that reads no table, and the decision-level property tests
and the committed ``route_table/*`` fingerprints hold the table-served
``route_event()`` to it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .dor import dor_next_channel

#: One table per live topology object; entries die with the topology.
_SHARED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

# Tables constructed in this process since import (or since the last
# reset_build_count()).  The sweep runner's warm-worker layer reports
# this through SweepReport to prove that jobs sharing a topology also
# shared one table.
_builds = 0


def table_build_count() -> int:
    """Number of :class:`RouteTable` instances constructed in this
    process since import (or the last :func:`reset_build_count`)."""
    return _builds


def reset_build_count() -> None:
    """Zero the construction counter (called by the worker-pool
    initializer so each worker reports totals since its own start)."""
    global _builds
    _builds = 0


def shared_route_table(topology) -> "RouteTable":
    """The process-wide :class:`RouteTable` for ``topology`` (created
    on first request)."""
    table = _SHARED.get(topology)
    if table is None:
        table = RouteTable(topology)
        _SHARED[topology] = table
    return table


class RouteTable:
    """Lazily filled routing lookups for one topology, shared across
    algorithm instances and simulators.

    All entries are pure functions of the topology (and, for ports, of
    the deterministic engine construction), so sharing them cannot
    change any routing decision: the table returns exactly what each
    algorithm's ``route()`` recomputes, in the same candidate order.
    """

    __slots__ = (
        "topology",
        "_port_of",
        "_minimal",
        "_dor",
        "_clos",
        "_dtag",
        "_hops",
        "__weakref__",
    )

    def __init__(self, topology) -> None:
        global _builds
        _builds += 1
        self.topology = topology
        # channel index -> output port at the channel's source router;
        # recorded by the first bind(), verified by every later one.
        self._port_of: Optional[Dict[int, int]] = None
        # (current, dst_router) -> (vc, ((port, channel), ...))
        self._minimal: Dict[Tuple[int, int], Tuple[int, tuple]] = {}
        # (current, target) -> (port, channel, hops_remaining)
        self._dor: Dict[Tuple[int, int], Tuple[int, object, int]] = {}
        # (current, dim, want) -> ((port, hops), ...)
        self._clos: Dict[Tuple[int, int, int], tuple] = {}
        # (current, dst position address) -> port
        self._dtag: Dict[Tuple[int, int], int] = {}
        # (a, b) -> minimal inter-router hops
        self._hops: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def bind(self, simulator) -> "RouteTable":
        """Record (first simulator) or verify (every later one) the
        ``channel -> port`` map of ``simulator``'s engines.

        Called by the simulator once its engines are built.  A mismatch
        means engine port assignment stopped being a deterministic
        function of the topology — a table port would then be
        meaningless to the asking engine, so this raises instead of
        guessing.
        """
        port_of: Dict[int, int] = {}
        for engine in simulator.engines:
            port_of.update(engine._port_of_channel)
        if self._port_of is None:
            self._port_of = port_of
        elif self._port_of != port_of:
            raise AssertionError(
                "channel->port map differs between simulators sharing a "
                "topology; the shared route table cannot serve both"
            )
        return self

    def port_of(self, channel) -> int:
        """Output port (at the channel's source router) for ``channel``."""
        return self._port_of[channel.index]

    # ------------------------------------------------------------------
    def minimal(self, current: int, dst_router: int):
        """``(vc, ((port, channel), ...))`` for a minimal hop out of
        ``current`` toward ``dst_router``, in MIN AD's candidate order
        (ascending differing dimension, then parallel-channel order);
        ``vc`` is ``hops_remaining - 1``."""
        key = (current, dst_router)
        entry = self._minimal.get(key)
        if entry is None:
            topo = self.topology
            port_of = self._port_of
            candidates = []
            for d in topo.differing_dims(current, dst_router):
                nbr = topo.neighbor(current, d, topo.coord_digit(dst_router, d))
                for ch in topo.channels_between(current, nbr):
                    candidates.append((port_of[ch.index], ch))
            entry = (
                topo.min_router_hops(current, dst_router) - 1,
                tuple(candidates),
            )
            self._minimal[key] = entry
        return entry

    def dor_next(self, current: int, target: int):
        """``(port, channel, hops_remaining)`` for the unique
        dimension-order hop from ``current`` toward ``target``.

        On HyperX-family topologies this is the flattened-butterfly DOR
        hop (the per-phase hop of VAL and of UGAL's non-minimal mode);
        on a torus it is the minimal-ring dimension-order hop of
        :class:`~repro.topologies.torus.TorusDOR`.
        """
        key = (current, target)
        entry = self._dor.get(key)
        if entry is None:
            topo = self.topology
            if hasattr(topo, "differing_dims"):
                channel, remaining = dor_next_channel(topo, current, target)
            elif hasattr(topo, "ring_direction"):
                from ...topologies.torus import torus_dor_next_channel

                channel, remaining = torus_dor_next_channel(
                    topo, current, target
                )
            else:
                raise TypeError(
                    f"{type(topo).__name__} has no dimension-order hop "
                    f"family (needs differing_dims or ring_direction)"
                )
            entry = (self._port_of[channel.index], channel, remaining)
            self._dor[key] = entry
        return entry

    def clos_ascent(self, current: int, dim: int, want: int):
        """``((port, hops), ...)`` for CLOS AD's ascent out of
        ``current`` in (1-based) dimension ``dim`` toward digit
        ``want``, in its reference candidate order: digit values
        ascending (skipping ``current``'s own digit), then parallel
        channels in ``channels_between`` order.  ``hops`` is 1 for the
        productive digit ``want`` and 2 for a middle-stage digit."""
        key = (current, dim, want)
        row = self._clos.get(key)
        if row is None:
            topo = self.topology
            port_of = self._port_of
            own = topo.coord_digit(current, dim)
            row = tuple(
                (port_of[ch.index], 1 if value == want else 2)
                for value in range(topo.dims[dim - 1])
                if value != own
                for ch in topo.channels_between(
                    current, topo.neighbor(current, dim, value)
                )
            )
            self._clos[key] = row
        return row

    def hops(self, a: int, b: int) -> int:
        """Memoized ``topology.min_router_hops(a, b)``."""
        key = (a, b)
        h = self._hops.get(key)
        if h is None:
            h = self.topology.min_router_hops(a, b)
            self._hops[key] = h
        return h

    def destination_tag_next(self, current: int, dst_terminal: int) -> int:
        """Output port of the unique destination-tag hop on a
        conventional butterfly (the path depends only on the
        destination's position address, ``dst_terminal // k``)."""
        topo = self.topology
        key = (current, dst_terminal // topo.k)
        port = self._dtag.get(key)
        if port is None:
            channel = topo.destination_tag_next(current, dst_terminal)
            port = self._port_of[channel.index]
            self._dtag[key] = port
        return port

    # ------------------------------------------------------------------
    # Dense array export (batch backend)
    # ------------------------------------------------------------------
    def ensure_ports(self) -> Dict[int, int]:
        """The ``channel -> port`` map, synthesized from the topology
        when no simulator has bound this table yet.

        ``RouterEngine`` construction assigns output ports by walking
        ``topology.out_channels(r)`` in order (channel outputs first,
        ejection outputs after), so the port of a channel is simply its
        position in that enumeration.  :meth:`bind` verifies this
        synthesized map against every real engine set, so a drift in
        engine construction fails loudly rather than silently skewing
        exported arrays.
        """
        if self._port_of is None:
            port_of: Dict[int, int] = {}
            for r in range(self.topology.num_routers):
                for port, channel in enumerate(self.topology.out_channels(r)):
                    port_of[channel.index] = port
            self._port_of = port_of
        return self._port_of

    def as_arrays(self) -> "RouteArrays":
        """Export every routing family this topology supports as dense
        numpy arrays (see :class:`RouteArrays`).

        The export is built *through* the memoized accessors
        (:meth:`minimal`, :meth:`dor_next`, :meth:`destination_tag_next`,
        :meth:`hops`), so the arrays are by construction a re-encoding
        of exactly the entries the scalar kernels consume — the
        round-trip test in ``tests/test_routing_decisions.py`` decodes
        them back and compares.  Requires numpy (``pip install
        repro[batch]``).
        """
        try:
            import numpy as np
        except ImportError as exc:  # pragma: no cover - numpy-less env
            raise ImportError(
                "RouteTable.as_arrays() requires numpy; install the batch "
                "extra (pip install repro[batch])"
            ) from exc

        self.ensure_ports()
        topo = self.topology
        R = topo.num_routers
        arrays = RouteArrays(num_routers=R, num_channels=len(topo.channels))

        # Unreachable ordered pairs (e.g. backward through butterfly
        # stages) stay -1.
        hops = np.full((R, R), -1, dtype=np.int16)
        for a in range(R):
            for b in range(R):
                try:
                    hops[a, b] = self.hops(a, b)
                except ValueError:
                    pass
        arrays.hops = hops

        if hasattr(topo, "differing_dims"):
            # HyperX family: minimal candidate sets and the unique
            # dimension-order hop, for every ordered router pair.  The
            # ``dor_*``/``hops`` pair doubles as the non-minimal export:
            # a Valiant route through intermediate m is the phase-0 walk
            # along ``dor_channel[a, m]`` followed by the phase-1 walk
            # along ``dor_channel[m, b]``, with ``hops[a, m] +
            # hops[m, b]`` total channel hops — exactly the candidate
            # arrays the batch kernel's vectorized UGAL compare and
            # Valiant stepper index.
            entries = {
                (a, b): self.minimal(a, b)
                for a in range(R)
                for b in range(R)
                if a != b
            }
            width = max(
                (len(cands) for _, cands in entries.values()), default=0
            )
            arrays.minimal_vc = np.full((R, R), -1, dtype=np.int16)
            arrays.minimal_count = np.zeros((R, R), dtype=np.int16)
            arrays.minimal_port = np.full((R, R, width), -1, dtype=np.int32)
            arrays.minimal_channel = np.full((R, R, width), -1, dtype=np.int32)
            arrays.dor_port = np.full((R, R), -1, dtype=np.int32)
            arrays.dor_channel = np.full((R, R), -1, dtype=np.int32)
            arrays.dor_hops = np.full((R, R), -1, dtype=np.int16)
            for (a, b), (vc, cands) in entries.items():
                arrays.minimal_vc[a, b] = vc
                arrays.minimal_count[a, b] = len(cands)
                for i, (port, channel) in enumerate(cands):
                    arrays.minimal_port[a, b, i] = port
                    arrays.minimal_channel[a, b, i] = channel.index
                port, channel, remaining = self.dor_next(a, b)
                arrays.dor_port[a, b] = port
                arrays.dor_channel[a, b] = channel.index
                arrays.dor_hops[a, b] = remaining

        elif hasattr(topo, "ring_direction"):
            # Torus: the unique minimal-ring dimension-order hop of
            # TorusDOR (VC/dateline state factored out), for every
            # ordered router pair.  No minimal-candidate family — the
            # torus algorithms here are oblivious.
            arrays.dor_port = np.full((R, R), -1, dtype=np.int32)
            arrays.dor_channel = np.full((R, R), -1, dtype=np.int32)
            arrays.dor_hops = np.full((R, R), -1, dtype=np.int16)
            for a in range(R):
                for b in range(R):
                    if a == b:
                        continue
                    port, channel, remaining = self.dor_next(a, b)
                    arrays.dor_port[a, b] = port
                    arrays.dor_channel[a, b] = channel.index
                    arrays.dor_hops[a, b] = remaining

        if hasattr(topo, "destination_tag_next"):
            # Conventional butterfly: the unique destination-tag hop,
            # keyed by the destination's position address (dst // k).
            # Last-stage routers eject instead of forwarding, so their
            # rows stay -1.
            positions = topo.num_terminals // topo.k
            arrays.dtag_positions = positions
            arrays.dtag_port = np.full((R, positions), -1, dtype=np.int32)
            arrays.dtag_channel = np.full((R, positions), -1, dtype=np.int32)
            port_of = self._port_of
            for r in range(R):
                if topo.stage_of(r) == topo.n - 1:
                    continue
                for pos in range(positions):
                    dst_terminal = pos * topo.k
                    channel = topo.destination_tag_next(r, dst_terminal)
                    arrays.dtag_port[r, pos] = self.destination_tag_next(
                        r, dst_terminal
                    )
                    arrays.dtag_channel[r, pos] = channel.index
                    assert port_of[channel.index] == arrays.dtag_port[r, pos]

        return arrays


@dataclass
class RouteArrays:
    """Dense numpy encoding of a :class:`RouteTable`.

    Families absent from the table's topology stay ``None``:
    ``minimal_*`` exists for HyperX-family topologies, ``dor_*`` for
    HyperX *and* torus topologies, ``dtag_*`` for conventional
    butterflies, ``hops`` always.  Padding value is -1 throughout;
    ``minimal_count[a, b]`` gives the number of valid leading entries
    of ``minimal_port[a, b]`` / ``minimal_channel[a, b]``.

    ``dor_*`` together with ``hops`` is also the **non-minimal /
    Valiant-intermediate export**: for any intermediate router ``m``,
    ``dor_channel[a, m]`` is the first hop of the to-intermediate
    phase, ``dor_channel[m, b]`` the first hop of the to-destination
    phase, and ``hops[a, m] + hops[m, b]`` the Valiant path length that
    UGAL's delay estimate multiplies against the queue occupancy of
    ``dor_channel[a, m]``.
    """

    num_routers: int
    num_channels: int
    hops: Optional[object] = None  # [R, R] minimal inter-router hops
    minimal_vc: Optional[object] = None  # [R, R] hops_remaining - 1
    minimal_count: Optional[object] = None  # [R, R]
    minimal_port: Optional[object] = None  # [R, R, width]
    minimal_channel: Optional[object] = None  # [R, R, width]
    dor_port: Optional[object] = None  # [R, R]
    dor_channel: Optional[object] = None  # [R, R]
    dor_hops: Optional[object] = None  # [R, R]
    dtag_positions: Optional[int] = None
    dtag_port: Optional[object] = None  # [R, positions]
    dtag_channel: Optional[object] = None  # [R, positions]

