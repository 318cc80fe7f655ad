"""Slot engine: phases, accounting windows, conservation, determinism."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.router.traffic import BernoulliUniformTraffic, TraceEntry, TraceTraffic
from repro.sim.engine import SimulationEngine, create_engine
from repro.sim.runner import build_router, run_simulation


def trace_router(arch, ports, entries, **kwargs):
    traffic = TraceTraffic(ports, entries)
    return build_router(arch, ports, traffic=traffic, **kwargs)


class TestPhases:
    def test_warmup_energy_discarded(self):
        """Identical runs, one with warmup traffic: measurement window
        energy must exclude the warmup cells."""
        entries = [TraceEntry(slot=s, src=0, dest=1, size_bits=480) for s in range(10)]
        router = trace_router("crossbar", 4, entries)
        engine = SimulationEngine(router, seed=1)
        result = engine.run(arrival_slots=5, warmup_slots=5)
        assert result.warmup_slots == 5
        # Only the 5 in-window cells are counted.
        assert result.delivered_cells == 5

    def test_drain_flushes_backlog(self):
        # 8 packets for one destination in slot 0: destination contention
        # serialises them at 1/slot.
        entries = [TraceEntry(0, src, 3, 480) for src in range(8)]
        router = trace_router("crossbar", 8, entries)
        engine = SimulationEngine(router, seed=1)
        result = engine.run(arrival_slots=2, drain=True)
        assert result.delivered_cells == 8
        assert result.ingress_backlog_cells == 0
        assert result.drain_slots > 0

    def test_no_drain_leaves_backlog(self):
        entries = [TraceEntry(0, src, 3, 480) for src in range(8)]
        router = trace_router("crossbar", 8, entries)
        engine = SimulationEngine(router, seed=1)
        result = engine.run(arrival_slots=2, drain=False)
        assert result.ingress_backlog_cells == 8 - 2

    def test_invalid_slot_counts(self):
        router = trace_router("crossbar", 4, [])
        engine = SimulationEngine(router, seed=1)
        with pytest.raises(ConfigurationError):
            engine.run(arrival_slots=0)
        with pytest.raises(ConfigurationError):
            engine.run(arrival_slots=10, warmup_slots=-1)


class TestConservation:
    @pytest.mark.parametrize("arch", ["crossbar", "fully_connected", "banyan",
                                      "batcher_banyan"])
    def test_all_arrivals_delivered_after_drain(self, arch):
        result = run_simulation(
            arch, 8, load=0.4, arrival_slots=150, warmup_slots=0, seed=3
        )
        assert result.fabric_in_flight_cells == 0
        assert result.ingress_backlog_cells == 0
        assert result.packets_completed == result.delivered_cells  # 1-cell pkts

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_leaked_cell_is_an_error(self, engine, monkeypatch):
        """A fabric that loses one delivered cell breaks the run's cell
        conservation, which collection reports instead of a record."""
        router = build_router(
            "crossbar", 4, traffic=BernoulliUniformTraffic(4, 0.5)
        )
        sim = create_engine(router, seed=2, engine=engine)
        core = router.fabric if engine == "reference" else sim._core
        name = "advance_slot" if engine == "reference" else "advance"
        advance = getattr(core, name)
        leaked = []

        def leaky(grants, slot):
            delivered = advance(grants, slot)
            if delivered and not leaked:
                leaked.append(delivered.pop())
            return delivered

        monkeypatch.setattr(core, name, leaky)
        with pytest.raises(SimulationError, match="not conserved"):
            sim.run(arrival_slots=30, warmup_slots=5)
        assert leaked

    def test_negative_ledger_entry_is_an_error(self, monkeypatch):
        router = build_router(
            "crossbar", 4, traffic=BernoulliUniformTraffic(4, 0.5)
        )
        sim = create_engine(router, seed=2)
        advance = sim._core.advance

        def uncounting(grants, slot):
            router.fabric.ledger.count("bit_flips", -(10**9))
            return advance(grants, slot)

        monkeypatch.setattr(sim._core, "advance", uncounting)
        with pytest.raises(SimulationError, match="negative ledger"):
            sim.run(arrival_slots=10)

    def test_throughput_tracks_offered_load_below_saturation(self):
        result = run_simulation(
            "crossbar", 8, load=0.3, arrival_slots=1500, warmup_slots=100, seed=4
        )
        assert result.throughput == pytest.approx(0.3, abs=0.03)


class TestDeterminism:
    @pytest.mark.parametrize("ports", [5, 8])
    def test_engines_leave_the_rng_in_one_state(self, ports):
        """The vectorized engine draws arrivals in blocks, but never past
        the run's last arrival slot: both engines end the run with the
        generator where the per-slot draws leave it."""
        states = []
        for engine in ("reference", "vectorized"):
            traffic = BernoulliUniformTraffic(ports, 0.4, packet_bits=33)
            router = build_router("crossbar", ports, traffic=traffic)
            sim = create_engine(router, seed=6, engine=engine)
            sim.run(arrival_slots=100, warmup_slots=7)
            state = sim.rng.bit_generator.state
            if not state["has_uint32"]:  # numpy never reads it then
                state["uinteger"] = 0
            states.append(state)
        assert states[0] == states[1]

    def test_same_seed_same_energy(self):
        a = run_simulation("banyan", 8, load=0.4, arrival_slots=120, seed=77)
        b = run_simulation("banyan", 8, load=0.4, arrival_slots=120, seed=77)
        assert a.energy.total_j == b.energy.total_j
        assert a.delivered_cells == b.delivered_cells
        assert a.counters == b.counters

    def test_different_seed_different_energy(self):
        a = run_simulation("banyan", 8, load=0.4, arrival_slots=120, seed=77)
        b = run_simulation("banyan", 8, load=0.4, arrival_slots=120, seed=78)
        assert a.energy.total_j != b.energy.total_j


class TestResults:
    def test_breakdown_sums(self):
        r = run_simulation("banyan", 8, load=0.4, arrival_slots=150, seed=5)
        e = r.energy
        assert e.total_j == pytest.approx(
            e.switch_j + e.wire_j + e.buffer_j + e.refresh_j
        )
        assert r.total_power_w == pytest.approx(
            r.switch_power_w + r.wire_power_w + r.buffer_power_w, rel=1e-9
        )

    def test_energy_per_bit_within_worst_case(self):
        """Measured E_bit never exceeds the Eq. 3 worst case."""
        from repro.core.analytical import bit_energy_crossbar
        from repro.tech import TECH_180NM
        from repro.units import fJ

        r = run_simulation("crossbar", 8, load=0.3, arrival_slots=300, seed=6)
        worst = bit_energy_crossbar(8, fJ(220), TECH_180NM.grid_bit_energy_j)
        # Worst case is per cell-bit; measured is per payload bit, so
        # scale by the cell/payload ratio (512/480).
        assert r.energy_per_delivered_bit_j <= worst * (512 / 480)

    def test_summary_contains_headline_numbers(self):
        r = run_simulation("crossbar", 4, load=0.2, arrival_slots=60, seed=7)
        text = r.summary()
        assert "crossbar 4x4" in text
        assert "throughput" in text
        assert "mW" in text

    def test_slot_duration_is_line_rate_cell_time(self):
        r = run_simulation("crossbar", 4, load=0.2, arrival_slots=60, seed=8)
        assert r.slot_seconds == pytest.approx(5.12e-6)
