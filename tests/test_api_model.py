"""PowerModel sessions: caching, batch execution, legacy-shim parity."""

import pytest

from repro.api import PowerModel, RunRecord, Scenario, records_to_csv, records_to_json
from repro.core.estimator import ARCHITECTURES, estimate_power
from repro.errors import ConfigurationError
from repro.sim.runner import run_simulation
from repro.tech import TECH_130NM, TECH_180NM


@pytest.fixture
def session():
    return PowerModel()


SIM_KWARGS = dict(arrival_slots=80, warmup_slots=16, seed=321)


class TestComponentCaches:
    def test_wire_model_built_once_per_tech(self, session):
        a = session.wire_model(TECH_180NM)
        assert session.wire_model(TECH_180NM) is a
        assert session.wire_model(TECH_130NM) is not a
        info = session.cache_info()["wire_models"]
        assert info["builds"] == 2 and info["hits"] == 1

    def test_switch_luts_cached_by_kind(self, session):
        assert session.switch_lut("banyan") is session.switch_lut("banyan")
        assert session.switch_lut("mux", 8) is session.switch_lut("mux", 8)
        assert session.switch_lut("mux", 8) is not session.switch_lut("mux", 16)

    def test_unknown_lut_kind(self, session):
        with pytest.raises(ConfigurationError):
            session.switch_lut("clos")

    def test_energy_models_cached_per_configuration(self, session):
        a = session.energy_models("banyan", 16)
        assert session.energy_models("banyan", 16) is a
        dram = session.energy_models("banyan", 16, buffer_memory="dram")
        assert dram is not a
        assert dram.buffer.refresh_energy_j > 0

    def test_model_sets_share_cached_components(self, session):
        crossbar = session.energy_models("crossbar", 8)
        banyan = session.energy_models("banyan", 8)
        assert crossbar.wire is banyan.wire
        assert crossbar.wire is session.wire_model(TECH_180NM)

    def test_sweep_reuses_luts_once_per_tech(self, session):
        """The acceptance check: a 10-point sweep builds WireModel/LUT
        objects exactly once."""
        for load in [x / 20 for x in range(1, 11)]:
            session.analytical("banyan", 32, load)
        info = session.cache_info()
        assert info["wire_models"]["builds"] == 1
        assert info["wire_models"]["hits"] == 9
        assert info["switch_luts"]["builds"] == 1
        assert info["estimator_buffers"]["builds"] == 1


class TestScenarioExecution:
    def test_estimate_record_fields(self, session):
        record = session.estimate(Scenario("banyan", 32, 0.3))
        assert isinstance(record, RunRecord)
        assert record.backend == "estimate"
        assert record.throughput == 0.3
        assert record.total_power_w > 0
        assert record.total_power_w == pytest.approx(
            record.detail.total_power_w
        )

    def test_simulate_record_fields(self, session):
        record = session.simulate(Scenario("crossbar", 4, 0.2, **SIM_KWARGS))
        assert record.backend == "simulate"
        assert 0 < record.throughput <= 1
        assert record.detail.architecture == "crossbar"
        assert record.elapsed_s >= 0

    def test_estimate_refuses_non_bernoulli_traffic(self, session):
        scenario = Scenario("banyan", 8, 0.3, traffic="hotspot")  # simulate
        with pytest.raises(ConfigurationError, match="simulate-only"):
            session.estimate(scenario)

    def test_run_dispatches_on_backend(self, session):
        est = session.run(Scenario("crossbar", 4, 0.2, backend="estimate"))
        sim = session.run(
            Scenario("crossbar", 4, 0.2, backend="simulate", **SIM_KWARGS)
        )
        assert est.backend == "estimate" and sim.backend == "simulate"

    def test_scenario_buffer_config_reaches_simulation(self, session):
        sram = session.simulate(Scenario("banyan", 4, 0.4, **SIM_KWARGS))
        dram = session.simulate(
            Scenario("banyan", 4, 0.4, buffer_memory="dram", **SIM_KWARGS)
        )
        assert dram.detail.energy.refresh_j > sram.detail.energy.refresh_j


class TestBatch:
    def test_order_preserved_and_mixed_backends(self, session):
        scenarios = [
            Scenario("crossbar", 4, 0.2, backend="estimate", name="a"),
            Scenario("banyan", 4, 0.2, backend="simulate", name="b",
                     **SIM_KWARGS),
            Scenario("fully_connected", 4, 0.2, backend="estimate", name="c"),
        ]
        records = session.run_batch(scenarios)
        assert [r.name for r in records] == ["a", "b", "c"]
        assert [r.backend for r in records] == ["estimate", "simulate",
                                               "estimate"]

    def test_parallel_equals_serial(self):
        scenarios = Scenario.grid(
            architectures=("crossbar", "banyan"),
            ports=(4,),
            loads=(0.2, 0.4),
            **SIM_KWARGS,
        )
        serial = PowerModel().run_batch(scenarios, workers=1)
        parallel = PowerModel().run_batch(scenarios, workers=4)
        assert [r.detail for r in serial] == [r.detail for r in parallel]

    def test_deterministic_across_sessions(self):
        scenario = Scenario("batcher_banyan", 4, 0.3, **SIM_KWARGS)
        a = PowerModel().run(scenario)
        b = PowerModel().run(scenario)
        assert a.detail == b.detail

    def test_empty_batch(self, session):
        assert session.run_batch([]) == []

    def test_bad_workers(self, session):
        with pytest.raises(ConfigurationError):
            session.run_batch([Scenario("crossbar", 4, 0.2)], workers=0)

    def test_reports(self, session):
        records = session.run_batch(
            [Scenario("crossbar", 4, 0.2, backend="estimate", name="r")]
        )
        assert '"architecture": "crossbar"' in records_to_json(records)
        csv_text = records_to_csv(records)
        assert csv_text.splitlines()[0].startswith("name,backend,architecture")
        assert "crossbar" in csv_text.splitlines()[1]


class TestLegacyShims:
    def test_estimate_power_identical_to_session(self):
        session = PowerModel()
        for arch in ARCHITECTURES:
            old = estimate_power(arch, 16, 0.3)
            new = session.estimate(
                Scenario(arch, 16, 0.3, backend="estimate")
            ).detail
            assert old == new, arch

    def test_estimate_power_repeated_calls_share_models(self):
        from repro.api.model import default_session, reset_default_session

        reset_default_session()
        try:
            estimate_power("banyan", 16, 0.2)
            estimate_power("banyan", 16, 0.4)
            info = default_session().cache_info()
            assert info["wire_models"]["builds"] == 1
            assert info["wire_models"]["hits"] >= 1
        finally:
            reset_default_session()

    def test_run_simulation_identical_to_session(self):
        session = PowerModel()
        for arch in ("crossbar", "banyan"):
            old = run_simulation(arch, 4, load=0.3, **SIM_KWARGS)
            new = session.simulate(
                Scenario(arch, 4, 0.3, **SIM_KWARGS)
            ).detail
            assert old == new, arch

    def test_estimate_power_accepts_unified_wire_modes(self):
        # "per_link" used to be simulator-only vocabulary; it now maps
        # to the analytical "expected" accounting.
        a = estimate_power("banyan", 16, 0.3, wire_mode="expected")
        b = estimate_power("banyan", 16, 0.3, wire_mode="per_link")
        assert a == b

    def test_simulation_accepts_unified_wire_modes(self, session):
        a = session.simulation("banyan", 4, load=0.3, wire_mode="expected",
                               **SIM_KWARGS)
        b = session.simulation("banyan", 4, load=0.3, wire_mode="per_link",
                               **SIM_KWARGS)
        assert a == b
