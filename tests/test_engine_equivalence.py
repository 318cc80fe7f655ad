"""Vectorized vs reference engine: exact seeded equivalence.

The vectorized engine is only allowed to be *faster*: for every
supported router configuration its seeded :class:`SimulationResult`
must equal the reference engine's **bit for bit** — energy breakdown
(all four components), throughput, delivered cells, payload bits,
latency statistics, event counters, drain length.  These tests compare
whole result objects with ``==`` (dataclass field equality, exact float
comparison) across the fabric/traffic/configuration matrix.

Any relaxation of this contract (tolerances, skipped fields) would let
silent divergence into every default simulation, so don't.
"""

import pytest

from repro.api import PowerModel, Scenario
from repro.errors import ConfigurationError
from repro.fabrics.factory import build_fabric
from repro.router.arbiter import OldestFirstArbiter
from repro.router.router import NetworkRouter
from repro.router.traffic import BernoulliUniformTraffic, TraceEntry, TraceTraffic
from repro.router.voq import VoqNetworkRouter
from repro.sim.engine import SimulationEngine, create_engine
from repro.sim.runner import build_router
from repro.sim.vector_engine import VectorizedEngine

ARCHES = ("crossbar", "fully_connected", "banyan", "batcher_banyan")

RUN = dict(arrival_slots=140, warmup_slots=25, seed=97)


def run_pair(scenario: Scenario):
    """One scenario through both engines (fresh sessions/state)."""
    session = PowerModel()
    ref = session.simulate(scenario.replace(engine="reference")).detail
    vec = session.simulate(scenario.replace(engine="vectorized")).detail
    return ref, vec


def assert_identical(ref, vec):
    """Field-by-field exact equality (nan-aware) with readable failures."""
    import dataclasses
    import math

    diffs = []
    for field in dataclasses.fields(type(ref)):
        a, b = getattr(ref, field.name), getattr(vec, field.name)
        if a == b:
            continue
        # offered_load is nan for load-less generators (trace traffic);
        # nan-in-both counts as equal here.
        if (
            isinstance(a, float)
            and isinstance(b, float)
            and math.isnan(a)
            and math.isnan(b)
        ):
            continue
        diffs.append(f"{field.name}: reference={a!r} vectorized={b!r}")
    if diffs:
        raise AssertionError("engines diverged:\n  " + "\n  ".join(diffs))


class TestFabricMatrix:
    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("load", [0.25, 0.9])
    def test_all_fabrics_all_loads(self, arch, load):
        ref, vec = run_pair(Scenario(arch, 8, load, **RUN))
        assert_identical(ref, vec)

    @pytest.mark.parametrize("arch", ARCHES)
    def test_sixteen_ports(self, arch):
        ref, vec = run_pair(
            Scenario(arch, 16, 0.6, arrival_slots=80, warmup_slots=10, seed=3)
        )
        assert_identical(ref, vec)

    @pytest.mark.parametrize("ports", [2, 4])
    def test_small_banyan(self, ports):
        ref, vec = run_pair(Scenario("banyan", ports, 0.8, **RUN))
        assert_identical(ref, vec)

    @pytest.mark.parametrize("wire_mode", ["per_link", "expected"])
    @pytest.mark.parametrize("arch", ARCHES)
    def test_wire_modes(self, arch, wire_mode):
        ref, vec = run_pair(Scenario(arch, 8, 0.7, wire_mode=wire_mode, **RUN))
        assert_identical(ref, vec)


class TestTrafficMatrix:
    @pytest.mark.parametrize(
        "traffic,params",
        [
            ("hotspot", {"hotspot_fraction": 0.6}),
            ("bursty", {"burst_len": 6.0}),
            ("permutation", {}),
            ("trimodal", {}),
        ],
    )
    @pytest.mark.parametrize("arch", ARCHES)
    def test_traffic_kinds(self, arch, traffic, params):
        ref, vec = run_pair(
            Scenario(arch, 8, 0.5, traffic=traffic, traffic_params=params, **RUN)
        )
        assert_identical(ref, vec)

    def test_trace_traffic_scenario(self):
        entries = [[s, s % 8, (3 * s + 1) % 8, 480] for s in range(60)]
        ref, vec = run_pair(
            Scenario(
                "banyan",
                8,
                0.5,
                traffic="trace",
                traffic_params={"entries": entries},
                arrival_slots=140,
                warmup_slots=0,
                seed=97,
            )
        )
        assert_identical(ref, vec)
        assert ref.delivered_cells == 60

    def test_trace_entries_replay_identically(self):
        """Two mixed-size arrivals in each slot on either side of the
        vectorized engine's 64-slot block edges, on a FIFO and a VOQ
        router: the blocks must cut the trace at exactly the same slots
        the reference engine reads it."""
        slots = (0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 139)
        entries = [
            [s, (s + k) % 8, (3 * s + 5 * k + 1) % 8, (480, 1500)[k]]
            for s in slots
            for k in (0, 1)
        ]
        for queueing in ("fifo", "voq"):
            ref, vec = run_pair(
                Scenario(
                    "banyan", 8, 0.5, traffic="trace",
                    traffic_params={"entries": entries}, queueing=queueing,
                    arrival_slots=140, warmup_slots=0, seed=97,
                )
            )
            assert_identical(ref, vec)
            assert ref.packets_completed == len(entries)

    def test_legacy_packet_generator(self):
        """A generator that only implements arrivals() — and leaves
        Packet.created_slot at its default 0 — must behave identically
        through the from_packets adapter (created_slot drives both
        arbitration order and latency)."""
        from repro.router.packet import Packet
        from repro.router.traffic import TrafficGenerator

        class LegacyGenerator(TrafficGenerator):
            def arrivals(self, slot, rng):
                packets = []
                draws = rng.random(self.ports)
                for src in range(self.ports):
                    if draws[src] < 0.6:
                        packets.append(
                            Packet.random(
                                rng,
                                packet_id=self._next_packet_id,
                                src_port=src,
                                dest_port=int(rng.integers(0, self.ports)),
                                size_bits=480,
                                bus_width=self.bus_width,
                                # created_slot deliberately left at 0
                            )
                        )
                        self._next_packet_id += 1
                return packets

        results = []
        for engine_cls in (SimulationEngine, VectorizedEngine):
            router = build_router("banyan", 8, traffic=LegacyGenerator(8, 32))
            results.append(engine_cls(router, seed=7).run(100, warmup_slots=10))
        assert_identical(*results)

    def test_no_self_destinations(self):
        results = []
        for engine_cls in (SimulationEngine, VectorizedEngine):
            router = build_router(
                "crossbar",
                8,
                traffic=BernoulliUniformTraffic(8, 0.7, allow_self=False),
            )
            results.append(engine_cls(router, seed=11).run(120, warmup_slots=20))
        assert_identical(*results)


class TestConfigurationMatrix:
    def test_dram_buffer_refresh(self):
        ref, vec = run_pair(
            Scenario("banyan", 8, 0.85, buffer_memory="dram", **RUN)
        )
        assert_identical(ref, vec)
        assert ref.energy.refresh_j > 0

    def test_bit_granularity_buffer(self):
        ref, vec = run_pair(
            Scenario(
                "banyan", 8, 0.9, buffer_charge_granularity="bit", **RUN
            )
        )
        assert_identical(ref, vec)

    def test_small_node_buffers_backpressure(self):
        ref, vec = run_pair(
            Scenario("banyan", 8, 0.95, buffer_bits_per_switch=512, **RUN)
        )
        assert_identical(ref, vec)
        assert ref.counters.get("buffer_full_stalls", 0) > 0

    @pytest.mark.parametrize("cap", [2, 6])
    def test_bounded_ingress_queues(self, cap):
        ref, vec = run_pair(
            Scenario("crossbar", 8, 0.95, ingress_queue_cells=cap, **RUN)
        )
        assert_identical(ref, vec)

    def test_no_drain(self):
        ref, vec = run_pair(Scenario("banyan", 8, 0.9, drain=False, **RUN))
        assert_identical(ref, vec)
        assert ref.ingress_backlog_cells > 0

    def test_oldest_first_arbiter(self):
        results = []
        for engine_cls in (SimulationEngine, VectorizedEngine):
            fabric = build_fabric("banyan", 8)
            traffic = BernoulliUniformTraffic(8, 0.8)
            router = NetworkRouter(
                fabric, traffic, arbiter=OldestFirstArbiter(8)
            )
            results.append(engine_cls(router, seed=5).run(120, warmup_slots=20))
        assert_identical(*results)

    def test_wide_cells(self):
        from repro.router.cells import CellFormat

        ref, vec = run_pair(
            Scenario("crossbar", 8, 0.6, bus_width=16, cell_words=8, **RUN)
        )
        assert_identical(ref, vec)


class TestRouterStateMirroring:
    def test_ingress_drop_stats_visible_after_run(self):
        """Bounded-queue drops must show on router.ingress[*].stats for
        both engines (post-run router inspection parity)."""
        stats = {}
        for engine_cls in (SimulationEngine, VectorizedEngine):
            router = build_router(
                "crossbar",
                8,
                traffic=BernoulliUniformTraffic(8, 0.95),
                ingress_queue_cells=2,
            )
            engine_cls(router, seed=13).run(150, warmup_slots=0)
            stats[engine_cls] = [
                (u.stats.packets_in, u.stats.cells_dropped, u.stats.queue_peak)
                for u in router.ingress
            ]
        assert stats[SimulationEngine] == stats[VectorizedEngine]
        assert sum(d for _, d, _ in stats[VectorizedEngine]) > 0

    def test_egress_stats_and_incomplete_visible_after_run(self):
        from repro.router.traffic import TrimodalPacketTraffic

        fields = {}
        for engine_cls in (SimulationEngine, VectorizedEngine):
            router = build_router(
                "crossbar", 8, traffic=TrimodalPacketTraffic(8, 0.9)
            )
            engine_cls(router, seed=17).run(
                60, warmup_slots=0, drain=False
            )
            egress = router.egress
            fields[engine_cls] = (
                egress.stats.cells_delivered,
                egress.stats.payload_bits_delivered,
                egress.stats.packets_completed,
                egress.incomplete_packets,
                egress.latency_stats(),
                egress.throughput,
            )
        assert fields[SimulationEngine] == fields[VectorizedEngine]
        assert fields[VectorizedEngine][3] > 0  # reassemblies in flight

    def test_bad_source_port_raises(self):
        from repro.router.packet import Packet
        from repro.router.traffic import TrafficGenerator

        class BrokenGenerator(TrafficGenerator):
            def arrivals(self, slot, rng):
                return [
                    Packet.random(
                        rng, packet_id=0, src_port=0, dest_port=1,
                        size_bits=480, bus_width=32,
                    ).__class__(
                        packet_id=0, src_port=9, dest_port=1,
                        payload_words=[], size_bits=0,
                    )
                ]

        router = build_router("crossbar", 4, traffic=BrokenGenerator(4, 32))
        engine = VectorizedEngine(router, seed=1)
        with pytest.raises(ConfigurationError, match="out of range"):
            engine.run(5)


class TestVoqMatrix:
    """VOQ/iSLIP on the vectorized engine: exact seeded equivalence."""

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("iterations", [1, 2])
    def test_all_fabrics_islip_iterations(self, arch, iterations):
        ref, vec = run_pair(
            Scenario(
                arch, 8, 0.9, queueing="voq",
                islip_iterations=iterations, **RUN,
            )
        )
        assert_identical(ref, vec)

    @pytest.mark.parametrize("load", [0.25, 0.95])
    def test_loads(self, load):
        ref, vec = run_pair(
            Scenario("crossbar", 8, load, queueing="voq", **RUN)
        )
        assert_identical(ref, vec)

    @pytest.mark.parametrize("wire_mode", ["per_link", "expected"])
    def test_wire_modes(self, wire_mode):
        ref, vec = run_pair(
            Scenario(
                "banyan", 8, 0.8, queueing="voq", islip_iterations=2,
                wire_mode=wire_mode, **RUN,
            )
        )
        assert_identical(ref, vec)

    @pytest.mark.parametrize("depth", [1, 4])
    def test_bounded_voq_depth(self, depth):
        """Per-VOQ tail drop (the VOQ bound is per destination queue,
        unlike the FIFO per-port bound) must mirror exactly — including
        the drop counters and occupancy peaks on the router units."""
        stats = {}
        for engine_cls in (SimulationEngine, VectorizedEngine):
            router = build_router(
                "crossbar",
                8,
                load=0.95,
                queueing="voq",
                ingress_queue_cells=depth,
            )
            result = engine_cls(router, seed=13).run(150, warmup_slots=0)
            stats[engine_cls] = (
                result,
                [
                    (u.stats.packets_in, u.stats.cells_dropped,
                     u.stats.queue_peak)
                    for u in router.ingress
                ],
            )
        assert stats[SimulationEngine] == stats[VectorizedEngine]
        assert sum(d for _, d, _ in stats[VectorizedEngine][1]) > 0

    def test_sixteen_ports_hotspot(self):
        ref, vec = run_pair(
            Scenario(
                "crossbar", 16, 0.8, queueing="voq", islip_iterations=2,
                traffic="hotspot",
                traffic_params={"hotspot_fraction": 0.5},
                arrival_slots=80, warmup_slots=10, seed=3,
            )
        )
        assert_identical(ref, vec)

    def test_voq_beats_fifo_on_vectorized_engine(self):
        """The vectorized engine must show the HOL-unblocking, not just
        match the reference numerically."""
        fifo = PowerModel().simulate(
            Scenario("crossbar", 8, 0.95, arrival_slots=800,
                     warmup_slots=100, drain=False)
        ).detail
        voq = PowerModel().simulate(
            Scenario("crossbar", 8, 0.95, queueing="voq",
                     arrival_slots=800, warmup_slots=100, drain=False)
        ).detail
        assert voq.throughput > fifo.throughput + 0.15


class TestPerPortLoads:
    def test_vector_load_equivalence(self):
        ref, vec = run_pair(
            Scenario(
                "crossbar", 4, [0.1, 0.9, 0.4, 0.0], **RUN
            )
        )
        assert_identical(ref, vec)
        assert ref.offered_load == pytest.approx(0.35)

    def test_vector_load_with_voq(self):
        ref, vec = run_pair(
            Scenario(
                "banyan", 4, [0.2, 0.8, 0.5, 0.9], queueing="voq", **RUN
            )
        )
        assert_identical(ref, vec)

    def test_zero_load_ports_stay_silent(self):
        session = PowerModel()
        record = session.simulate(
            Scenario("crossbar", 4, [0.0, 0.9, 0.0, 0.9], **RUN)
        )
        router_stats = record.detail
        assert router_stats.delivered_cells > 0


class TestRegistry:
    def test_custom_fabric_runs_on_both_engines(self):
        """A registry entry with a vector core is a first-class citizen:
        Scenario validates it and both engines produce identical
        results."""
        from repro.fabrics.crossbar import CrossbarFabric
        from repro.fabrics.factory import default_models
        from repro.fabrics.registry import register_fabric, unregister_fabric
        from repro.fabrics.vectorized import CrossbarCore

        class MyFabric(CrossbarFabric):
            architecture = "my_xbar"

        register_fabric(
            "my_xbar",
            MyFabric,
            vector_core=CrossbarCore,
            models_factory=lambda ports, tech: default_models(
                "crossbar", ports, tech
            ),
        )
        try:
            ref, vec = run_pair(Scenario("my_xbar", 8, 0.6, **RUN))
            assert_identical(ref, vec)
            assert ref.architecture == "my_xbar"
        finally:
            unregister_fabric("my_xbar")

    def test_builtin_entries_cannot_be_replaced(self):
        from repro.fabrics.crossbar import CrossbarFabric
        from repro.fabrics.registry import register_fabric, unregister_fabric

        with pytest.raises(ConfigurationError, match="built-in"):
            register_fabric("crossbar", CrossbarFabric)
        with pytest.raises(ConfigurationError, match="built-in"):
            unregister_fabric("banyan")

    def test_aliases_cannot_hijack_builtin_names(self):
        """An alias colliding with a built-in name or alias must be
        rejected up front — otherwise every Scenario('crossbar', ...)
        would silently build the custom fabric."""
        from repro.fabrics.crossbar import CrossbarFabric
        from repro.fabrics.registry import (
            canonical_architecture,
            register_fabric,
            unregister_fabric,
        )

        class Sneaky(CrossbarFabric):
            architecture = "sneaky"

        for stolen in ("crossbar", "xbar"):
            with pytest.raises(ConfigurationError, match="built-in"):
                register_fabric("sneaky", Sneaky, aliases=(stolen,))
        assert canonical_architecture("xbar") == "crossbar"

        # Alias collisions between custom entries are rejected too,
        # and replace=True only swaps an entry's own names.
        register_fabric("sneaky", Sneaky, aliases=("sn",))
        try:
            with pytest.raises(ConfigurationError, match="registered to"):
                register_fabric("other", Sneaky, aliases=("sn",))
            entry = register_fabric(
                "sneaky", Sneaky, aliases=("sn2",), replace=True
            )
            assert entry.aliases == ("sn2",)
            with pytest.raises(ConfigurationError, match="unknown"):
                canonical_architecture("sn")  # old alias released
        finally:
            unregister_fabric("sneaky")


class TestUnsupportedConfigurations:
    def test_voq_router_now_supported(self):
        fabric = build_fabric("crossbar", 4)
        router = VoqNetworkRouter(fabric, BernoulliUniformTraffic(4, 0.5))
        engine = VectorizedEngine(router, seed=1)
        result = engine.run(40)
        assert result.delivered_cells > 0

    def test_unregistered_custom_fabric_rejected(self):
        from repro.fabrics.crossbar import CrossbarFabric

        class MyFabric(CrossbarFabric):
            architecture = "custom"

        fabric = MyFabric.with_default_models(4)
        router = NetworkRouter(fabric, BernoulliUniformTraffic(4, 0.5))
        with pytest.raises(ConfigurationError, match="reference") as err:
            VectorizedEngine(router)
        # The registry error names the registered cores and the engine.
        assert "vectorized" in str(err.value)
        assert "crossbar" in str(err.value)

    def test_custom_arbiter_rejected(self):
        from repro.router.arbiter import FcfsRoundRobinArbiter

        class MyArbiter(FcfsRoundRobinArbiter):
            pass

        fabric = build_fabric("crossbar", 4)
        router = NetworkRouter(
            fabric, BernoulliUniformTraffic(4, 0.5), arbiter=MyArbiter(4)
        )
        with pytest.raises(ConfigurationError, match="reference"):
            VectorizedEngine(router)

    def test_unknown_engine_name(self):
        router = build_router("crossbar", 4)
        with pytest.raises(ConfigurationError, match="unknown engine"):
            create_engine(router, engine="simd")


class TestEngineFactory:
    def test_create_engine_dispatch(self):
        assert isinstance(
            create_engine(build_router("crossbar", 4), engine="reference"),
            SimulationEngine,
        )
        assert isinstance(
            create_engine(build_router("crossbar", 4), engine="vectorized"),
            VectorizedEngine,
        )

    def test_scenario_engine_round_trips(self):
        scenario = Scenario("banyan", 8, 0.3, engine="reference")
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_scenario_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="engine"):
            Scenario("banyan", 8, 0.3, engine="warp")
