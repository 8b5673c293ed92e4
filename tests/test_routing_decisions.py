"""Decision-level unit tests for the adaptive routing algorithms.

These bypass the cycle loop: they craft queue states directly on a
router engine and check the exact (port, vc) each algorithm picks —
the truth table of Section 3.1.
"""

import pytest

from repro.core import ClosAD, MinimalAdaptive, UGAL, Valiant
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.core.routing.table import shared_route_table
from repro.network import SimulationConfig, Simulator
from repro.network.packet import Packet
from repro.topologies import Butterfly
from repro.topologies.hyperx import HyperX
from repro.topologies.torus import Torus, TorusDOR, torus_dor_next_channel
from repro.traffic import UniformRandom


def build(algorithm, k=4, n=2):
    sim = Simulator(
        FlattenedButterfly(k, n), algorithm, UniformRandom(),
        SimulationConfig(seed=1),
    )
    return sim


def make_packet(sim, src, dst):
    packet = Packet(
        pid=0, src=src, dst=dst,
        dst_router=sim.topology.ejection_router(dst),
        size=1, time_created=0,
    )
    sim.algorithm.on_packet_created(packet)
    return packet


def load_channel(engine, channel, flits):
    """Make ``channel`` look ``flits`` deep to adaptive estimates."""
    port = engine.port_for_channel(channel)
    out = engine.out_ports[port]
    out.pending[0] += flits
    # Keep the incrementally-maintained occupancy mirror consistent,
    # as a real routing commit would.
    out.occ += flits


class TestMinADDecisions:
    def test_picks_productive_channel(self):
        sim = build(MinimalAdaptive())
        engine = sim.engines[0]
        packet = make_packet(sim, src=0, dst=12)  # router 0 -> router 3
        port, vc = sim.algorithm.route(engine, packet)
        channel = sim.topology.channel_to(0, 1, 3)
        assert port == engine.port_for_channel(channel)
        assert vc == 0

    def test_ejects_at_destination(self):
        sim = build(MinimalAdaptive())
        engine = sim.engines[0]
        packet = make_packet(sim, src=0, dst=2)  # same router
        port, vc = sim.algorithm.route(engine, packet)
        assert port == engine.ejection_port(2)

    def test_prefers_emptier_productive_channel(self):
        # In a 3-dim network two productive channels exist; load one.
        sim = build(MinimalAdaptive(), k=2, n=4)
        topo = sim.topology
        dst_router = topo.router_from_coord((1, 1, 0))
        engine = sim.engines[0]
        busy = topo.channel_to(0, 1, 1)
        idle = topo.channel_to(0, 2, 1)
        load_channel(engine, busy, 5)
        packet = make_packet(sim, src=0, dst=dst_router * topo.concentration)
        port, vc = sim.algorithm.route(engine, packet)
        assert port == engine.port_for_channel(idle)
        # Two hops remain: VC = hops_remaining - 1 = 1.
        assert vc == 1

    def test_vc_tracks_hops_remaining(self):
        sim = build(MinimalAdaptive(), k=2, n=4)
        topo = sim.topology
        # One differing dimension -> 1 hop -> vc 0.
        engine = sim.engines[0]
        dst_router = topo.router_from_coord((1, 0, 0))
        packet = make_packet(sim, src=0, dst=dst_router * topo.concentration)
        _, vc = sim.algorithm.route(engine, packet)
        assert vc == 0


class TestValiantDecisions:
    def test_phase_zero_targets_intermediate(self):
        sim = build(Valiant())
        engine = sim.engines[0]
        packet = make_packet(sim, src=0, dst=12)
        packet.intermediate = 2  # force a known intermediate
        port, vc = sim.algorithm.route(engine, packet)
        channel = sim.topology.channel_to(0, 1, 2)
        assert port == engine.port_for_channel(channel)
        assert vc == 1  # to-intermediate VC

    def test_phase_flips_at_intermediate(self):
        sim = build(Valiant())
        packet = make_packet(sim, src=0, dst=12)
        packet.intermediate = 2
        engine = sim.engines[2]
        port, vc = sim.algorithm.route(engine, packet)
        channel = sim.topology.channel_to(2, 1, 3)
        assert port == engine.port_for_channel(channel)
        assert vc == 0  # to-destination VC

    def test_intermediate_equals_source_skips_phase_zero(self):
        sim = build(Valiant())
        packet = make_packet(sim, src=0, dst=12)
        packet.intermediate = 0
        engine = sim.engines[0]
        port, vc = sim.algorithm.route(engine, packet)
        assert vc == 0


class TestUGALDecisions:
    def test_quiet_network_routes_minimally(self):
        sim = build(UGAL())
        engine = sim.engines[0]
        packet = make_packet(sim, src=0, dst=12)
        sim.algorithm.route(engine, packet)
        assert packet.minimal is True

    def test_congested_minimal_path_triggers_valiant(self):
        # k=8 so only 2/8 random intermediates degenerate to minimal.
        sim = build(UGAL(threshold=1), k=8)
        engine = sim.engines[0]
        dst = 3 * 8  # a terminal of router 3
        # Pile 30 flits onto the minimal channel; alternatives empty.
        load_channel(engine, sim.topology.channel_to(0, 1, 3), 30)
        went_nonminimal = 0
        for trial in range(20):
            packet = make_packet(sim, src=0, dst=dst)
            sim.algorithm.route(engine, packet)
            if packet.minimal is False:
                went_nonminimal += 1
                assert packet.intermediate not in (0, 3)
        # Intermediates equal to src/dst collapse onto the minimal
        # path (~25% of draws); the rest must misroute.
        assert went_nonminimal >= 10

    def test_threshold_biases_minimal(self):
        sim = build(UGAL(threshold=100))
        engine = sim.engines[0]
        load_channel(engine, sim.topology.channel_to(0, 1, 3), 30)
        packet = make_packet(sim, src=0, dst=12)
        sim.algorithm.route(engine, packet)
        assert packet.minimal is True

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            UGAL(threshold=-1)


class TestClosADDecisions:
    def test_quiet_network_routes_minimally(self):
        sim = build(ClosAD())
        engine = sim.engines[0]
        packet = make_packet(sim, src=0, dst=12)
        port, vc = sim.algorithm.route(engine, packet)
        direct = sim.topology.channel_to(0, 1, 3)
        assert port == engine.port_for_channel(direct)

    def test_congestion_spreads_to_middle(self):
        sim = build(ClosAD(threshold=1))
        engine = sim.engines[0]
        load_channel(engine, sim.topology.channel_to(0, 1, 3), 30)
        packet = make_packet(sim, src=0, dst=12)
        port, vc = sim.algorithm.route(engine, packet)
        direct_port = engine.port_for_channel(sim.topology.channel_to(0, 1, 3))
        assert port != direct_port
        assert vc == 1  # ascent VC

    def test_picks_emptiest_middle(self):
        sim = build(ClosAD(threshold=1))
        engine = sim.engines[0]
        topo = sim.topology
        load_channel(engine, topo.channel_to(0, 1, 3), 30)  # minimal
        load_channel(engine, topo.channel_to(0, 1, 1), 10)  # middle 1
        # Middle 2 left empty: must win.
        packet = make_packet(sim, src=0, dst=12)
        port, _ = sim.algorithm.route(engine, packet)
        assert port == engine.port_for_channel(topo.channel_to(0, 1, 2))

    def test_zero_threshold_misroutes_around_one_flit(self):
        # Without a minimal-path bias one queued flit on the productive
        # channel already loses to an empty middle stage (low-load
        # misrouting); the default bias of 1 keeps the packet minimal.
        for threshold, minimal in ((0, False), (1, True)):
            sim = build(ClosAD(threshold=threshold))
            engine = sim.engines[0]
            direct = sim.topology.channel_to(0, 1, 3)
            load_channel(engine, direct, 1)
            packet = make_packet(sim, src=0, dst=12)
            port, _ = sim.algorithm.route(engine, packet)
            assert (port == engine.port_for_channel(direct)) is minimal

    def test_descent_is_deterministic(self):
        sim = build(ClosAD())
        packet = make_packet(sim, src=0, dst=12)
        packet.phase = 1  # force descent
        engine = sim.engines[1]
        port, vc = sim.algorithm.route(engine, packet)
        assert port == engine.port_for_channel(sim.topology.channel_to(1, 1, 3))
        assert vc == 0  # descent VC

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ClosAD(threshold=-1)

    def test_aligned_dimension_left_untouched(self):
        """Closest-common-ancestor restriction: a dimension already
        matching the destination is never perturbed in the ascent."""
        sim = build(ClosAD(), k=2, n=4)
        topo = sim.topology
        src_router = topo.router_from_coord((0, 1, 0))
        dst_router = topo.router_from_coord((1, 1, 0))  # dims 2,3 aligned
        engine = sim.engines[src_router]
        packet = make_packet(
            sim, src=src_router * topo.concentration,
            dst=dst_router * topo.concentration,
        )
        port, _ = sim.algorithm.route(engine, packet)
        chosen = None
        for channel in topo.out_channels(src_router):
            if engine.port_for_channel(channel) == port:
                chosen = channel
        assert chosen is not None
        assert chosen.dim == 1  # only the unaligned dimension is touched


# ----------------------------------------------------------------------
# Dense-array export round-trip (RouteTable.as_arrays)
# ----------------------------------------------------------------------

#: Every topology of the kernel-equivalence matrix that the HyperX
#: family export covers, plus conventional butterflies for the
#: destination-tag family.
HYPERX_TOPOLOGIES = {
    "fb4": lambda: FlattenedButterfly(4, 2),
    "fb2x3": lambda: FlattenedButterfly(2, 3),
    "hx222": lambda: HyperX(concentration=2, dims=(2, 2)),
    "hx2222": lambda: HyperX(concentration=2, dims=(2, 2, 2)),
    "hx4m2": lambda: HyperX(concentration=4, dims=(4,), multiplicity=(2,)),
}

BUTTERFLY_TOPOLOGIES = {
    "bf42": lambda: Butterfly(4, 2),
    "bf23": lambda: Butterfly(2, 3),
}


class TestRouteArraysRoundTrip:
    """``as_arrays()`` must be a lossless re-encoding of the memoized
    scalar entries the event kernel consumes: decode every dense cell
    back and compare against :meth:`RouteTable.minimal`,
    :meth:`RouteTable.dor_next` and
    :meth:`RouteTable.destination_tag_next`."""

    @pytest.mark.parametrize("name", sorted(HYPERX_TOPOLOGIES))
    def test_hyperx_family(self, name):
        pytest.importorskip("numpy")
        topo = HYPERX_TOPOLOGIES[name]()
        table = shared_route_table(topo)
        arrays = table.as_arrays()
        R = topo.num_routers
        assert arrays.num_routers == R
        assert arrays.num_channels == len(topo.channels)
        for a in range(R):
            for b in range(R):
                assert arrays.hops[a, b] == table.hops(a, b)
                if a == b:
                    continue
                vc, cands = table.minimal(a, b)
                assert arrays.minimal_vc[a, b] == vc
                assert arrays.minimal_count[a, b] == len(cands)
                for i, (port, channel) in enumerate(cands):
                    assert arrays.minimal_port[a, b, i] == port
                    assert arrays.minimal_channel[a, b, i] == channel.index
                # Padding beyond the candidate count stays -1.
                assert (arrays.minimal_port[a, b, len(cands):] == -1).all()
                port, channel, remaining = table.dor_next(a, b)
                assert arrays.dor_port[a, b] == port
                assert arrays.dor_channel[a, b] == channel.index
                assert arrays.dor_hops[a, b] == remaining
                # The DOR hop is one of the minimal candidates.
                assert channel.index in {
                    ch.index for _, ch in cands
                }

    @pytest.mark.parametrize("name", sorted(BUTTERFLY_TOPOLOGIES))
    def test_destination_tag_family(self, name):
        pytest.importorskip("numpy")
        topo = BUTTERFLY_TOPOLOGIES[name]()
        table = shared_route_table(topo)
        arrays = table.as_arrays()
        R = topo.num_routers
        positions = topo.num_terminals // topo.k
        assert arrays.dtag_positions == positions
        assert arrays.dtag_port.shape == (R, positions)
        last_stage = topo.n - 1
        for r in range(R):
            if topo.stage_of(r) == last_stage:
                # Last-stage routers eject; their rows stay padding.
                assert (arrays.dtag_port[r] == -1).all()
                assert (arrays.dtag_channel[r] == -1).all()
                continue
            for pos in range(positions):
                dst_terminal = pos * topo.k
                port = table.destination_tag_next(r, dst_terminal)
                channel = topo.destination_tag_next(r, dst_terminal)
                assert arrays.dtag_port[r, pos] == port
                assert arrays.dtag_channel[r, pos] == channel.index
        # Backward stage pairs are unreachable: hops rows record -1.
        assert (arrays.hops >= -1).all()
        for a in range(R):
            for b in range(R):
                if topo.stage_of(a) > topo.stage_of(b):
                    assert arrays.hops[a, b] == -1

    def test_ports_match_bound_engines(self):
        """The synthesized channel->port map agrees with the map real
        engines record at bind time (ensure_ports' invariant)."""
        pytest.importorskip("numpy")
        topo = FlattenedButterfly(4, 2)
        table = shared_route_table(topo)
        synthesized = dict(table.ensure_ports())
        sim = Simulator(
            topo, MinimalAdaptive(), UniformRandom(),
            SimulationConfig(seed=1),
        )
        bound = {}
        for engine in sim.engines:
            bound.update(engine._port_of_channel)
        assert synthesized == bound

    @pytest.mark.parametrize("name", ["fb4", "fb2x3", "hx2222"])
    def test_valiant_walk_matches_hops(self, name):
        """The non-minimal export is path-complete: from any source,
        walking ``dor_channel[., m]`` to the intermediate and then
        ``dor_channel[., b]`` to the destination reaches ``b`` in
        exactly ``hops[a, m] + hops[m, b]`` channel hops — the Valiant
        path length the batch kernel's UGAL compare multiplies against
        the phase-0 queue occupancy."""
        pytest.importorskip("numpy")
        topo = HYPERX_TOPOLOGIES[name]()
        table = shared_route_table(topo)
        arrays = table.as_arrays()
        R = topo.num_routers

        def walk(start, target):
            at, steps = start, 0
            while at != target:
                channel = topo.channels[int(arrays.dor_channel[at, target])]
                assert channel.src == at
                at = channel.dst
                steps += 1
                assert steps <= R  # no cycles
            return steps

        for a in range(R):
            for m in range(R):
                for b in range(R):
                    expect = int(arrays.hops[a, m]) + int(arrays.hops[m, b])
                    assert walk(a, m) + walk(m, b) == expect


# ----------------------------------------------------------------------
# Torus dimension-order export round-trip
# ----------------------------------------------------------------------

TORUS_TOPOLOGIES = {
    "ring5": lambda: Torus((5,)),
    "t33": lambda: Torus((3, 3)),
    "t234": lambda: Torus((2, 3, 4)),
}


class TestTorusRouteArraysRoundTrip:
    """The torus ``dor_*`` export must re-encode the hop
    :func:`torus_dor_next_channel` produces (the VC/dateline state of
    :class:`TorusDOR` is deliberately factored out) and be
    path-complete under the same walk the batch kernel performs."""

    @pytest.mark.parametrize("name", sorted(TORUS_TOPOLOGIES))
    def test_dor_export_round_trip(self, name):
        pytest.importorskip("numpy")
        topo = TORUS_TOPOLOGIES[name]()
        table = shared_route_table(topo)
        arrays = table.as_arrays()
        R = topo.num_routers
        assert arrays.num_routers == R
        assert arrays.num_channels == len(topo.channels)
        assert arrays.minimal_channel is None  # oblivious family only
        ports = dict(table.ensure_ports())
        for a in range(R):
            for b in range(R):
                if a == b:
                    assert arrays.hops[a, b] == 0
                    continue
                channel, remaining = torus_dor_next_channel(topo, a, b)
                assert arrays.dor_channel[a, b] == channel.index
                assert arrays.dor_port[a, b] == ports[channel.index]
                assert arrays.dor_hops[a, b] == remaining
                # dor_hops counts the full remaining walk, and the
                # topology's hop metric agrees with it.
                assert arrays.hops[a, b] == remaining
                nxt = channel.dst
                if nxt != b:
                    assert arrays.dor_hops[nxt, b] == remaining - 1

    @pytest.mark.parametrize("name", sorted(TORUS_TOPOLOGIES))
    def test_walk_terminates(self, name):
        pytest.importorskip("numpy")
        topo = TORUS_TOPOLOGIES[name]()
        arrays = shared_route_table(topo).as_arrays()
        R = topo.num_routers
        for a in range(R):
            for b in range(R):
                at, steps = a, 0
                while at != b:
                    at = topo.channels[int(arrays.dor_channel[at, b])].dst
                    steps += 1
                    assert steps <= R
                assert steps == int(arrays.hops[a, b])

    def test_ports_match_bound_engines(self):
        """ensure_ports' synthesized map agrees with real bound engines
        on a torus simulator too."""
        pytest.importorskip("numpy")
        topo = Torus((3, 3))
        table = shared_route_table(topo)
        synthesized = dict(table.ensure_ports())
        sim = Simulator(
            topo, TorusDOR(), UniformRandom(),
            SimulationConfig(seed=1),
        )
        bound = {}
        for engine in sim.engines:
            bound.update(engine._port_of_channel)
        assert synthesized == bound
