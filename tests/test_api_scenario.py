"""Scenario validation, serialisation, presets and grid expansion."""

import json

import pytest

from repro.api import (
    PRESET_SCENARIOS,
    Scenario,
    load_scenarios,
    preset,
    preset_scenarios,
)
from repro.errors import ConfigurationError
from repro.router.traffic import (
    MAX_PORTS,
    BernoulliUniformTraffic,
    BurstyTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TrimodalPacketTraffic,
)
from repro.tech import TECH_180NM
from repro.wire_modes import WireMode


class TestValidation:
    def test_minimal_construction(self):
        s = Scenario("crossbar", 8, 0.3)
        assert s.architecture == "crossbar"
        assert s.backend == "simulate"
        assert s.wire_mode is WireMode.WORST_CASE

    def test_architecture_aliases_canonicalised(self):
        assert Scenario("xbar", 8, 0.3).architecture == "crossbar"
        assert Scenario("batcher", 8, 0.3).architecture == "batcher_banyan"

    def test_wire_mode_string_parsed(self):
        s = Scenario("banyan", 8, 0.3, wire_mode="per-link")
        assert s.wire_mode is WireMode.PER_LINK

    def test_bad_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            Scenario("crossbar", 8, 0.3, backend="guess")

    def test_bad_load(self):
        with pytest.raises(ConfigurationError, match="load"):
            Scenario("crossbar", 8, 1.5)

    def test_bad_ports(self):
        with pytest.raises(ConfigurationError):
            Scenario("crossbar", 1, 0.3)

    def test_ports_capped(self):
        assert Scenario("crossbar", MAX_PORTS, 0.3).ports == MAX_PORTS
        with pytest.raises(ConfigurationError, match="at most 4096 ports"):
            Scenario("crossbar", MAX_PORTS + 1, 0.3)

    def test_bad_traffic_kind(self):
        with pytest.raises(ConfigurationError, match="traffic"):
            Scenario("crossbar", 8, 0.3, traffic="adversarial")

    def test_non_bernoulli_traffic_rejected_for_estimate_backend(self):
        with pytest.raises(ConfigurationError, match="simulate-only"):
            Scenario("banyan", 8, 0.3, backend="estimate", traffic="hotspot")

    def test_bad_tech_preset(self):
        with pytest.raises(ConfigurationError, match="unknown technology"):
            Scenario("crossbar", 8, 0.3, tech="7nm")

    def test_bad_wire_mode_lists_backends(self):
        with pytest.raises(ConfigurationError) as exc:
            Scenario("crossbar", 8, 0.3, wire_mode="median")
        message = str(exc.value)
        assert "worst_case" in message
        assert "expected" in message and "per_link" in message
        assert "analytical" in message and "simulated" in message

    def test_scenarios_are_hashable_and_frozen(self):
        s = Scenario("crossbar", 8, 0.3)
        assert hash(s) == hash(Scenario("crossbar", 8, 0.3))
        with pytest.raises(AttributeError):
            s.ports = 16

    def test_replace_revalidates(self):
        s = Scenario("crossbar", 8, 0.3)
        assert s.replace(load=0.5).load == 0.5
        with pytest.raises(ConfigurationError):
            s.replace(load=2.0)


class TestSerialisation:
    def test_json_round_trip_defaults(self):
        s = Scenario("banyan", 16, 0.4, backend="estimate", name="p")
        assert Scenario.from_json(s.to_json()) == s

    def test_json_round_trip_traffic_params(self):
        s = Scenario(
            "crossbar", 8, 0.3,
            traffic="hotspot",
            traffic_params={"hotspot_fraction": 0.7, "hotspot_port": 2},
        )
        back = Scenario.from_dict(json.loads(s.to_json()))
        assert back == s
        assert dict(back.traffic_params)["hotspot_fraction"] == 0.7

    def test_json_round_trip_preset_tech_stays_a_name(self):
        s = Scenario("crossbar", 8, 0.3, tech=TECH_180NM)
        assert s.to_dict()["tech"] == "0.18um"
        assert Scenario.from_dict(s.to_dict()).technology == TECH_180NM

    def test_json_round_trip_custom_tech_by_value(self):
        custom = TECH_180NM.scaled(voltage_v=1.8)
        s = Scenario("crossbar", 8, 0.3, tech=custom)
        data = json.loads(s.to_json())
        assert data["tech"]["voltage_v"] == 1.8
        assert Scenario.from_json(s.to_json()).technology == custom

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="throughputt"):
            Scenario.from_dict(
                {"architecture": "crossbar", "ports": 8, "load": 0.3,
                 "throughputt": 0.3}
            )

    def test_load_scenarios_bare_array_and_wrapped(self):
        items = [Scenario("crossbar", 4, 0.2).to_dict(),
                 Scenario("banyan", 4, 0.2).to_dict()]
        bare = load_scenarios(json.dumps(items))
        wrapped = load_scenarios(json.dumps({"scenarios": items}))
        assert bare == wrapped
        assert [s.architecture for s in bare] == ["crossbar", "banyan"]

    def test_load_scenarios_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            load_scenarios("[]")
        with pytest.raises(ConfigurationError, match="scenarios"):
            load_scenarios('{"runs": []}')

    def test_load_scenarios_malformed_json_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_scenarios('[{"architecture": "crossbar",]')


class TestDerived:
    def test_technology_resolution(self):
        assert Scenario("crossbar", 8, 0.3).technology == TECH_180NM

    def test_cell_format(self):
        fmt = Scenario("crossbar", 8, 0.3, bus_width=16, cell_words=8).cell_format
        assert fmt.bus_width == 16 and fmt.words == 8

    def test_label_synthesised_and_explicit(self):
        assert "crossbar-8x8" in Scenario("crossbar", 8, 0.3).label
        assert Scenario("crossbar", 8, 0.3, name="mine").label == "mine"

    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("bernoulli", BernoulliUniformTraffic),
            ("hotspot", HotspotTraffic),
            ("bursty", BurstyTraffic),
            ("trimodal", TrimodalPacketTraffic),
            ("permutation", PermutationTraffic),
        ],
    )
    def test_build_traffic_kinds(self, kind, cls):
        generator = Scenario("crossbar", 8, 0.3, traffic=kind).build_traffic()
        assert isinstance(generator, cls)
        assert generator.ports == 8


class TestGrid:
    def test_expansion_count(self):
        scenarios = Scenario.grid(
            architectures=("crossbar", "banyan"),
            ports=(4, 8),
            loads=(0.1, 0.3, 0.5),
            techs=("0.18um", "0.13um"),
        )
        assert len(scenarios) == 2 * 2 * 3 * 2

    def test_expansion_order_deterministic(self):
        scenarios = Scenario.grid(
            architectures=("crossbar", "banyan"), loads=(0.1, 0.2)
        )
        key = [(s.architecture, s.load) for s in scenarios]
        assert key == [("crossbar", 0.1), ("crossbar", 0.2),
                       ("banyan", 0.1), ("banyan", 0.2)]

    def test_common_kwargs_apply_to_all(self):
        scenarios = Scenario.grid(loads=(0.1, 0.2), backend="estimate", seed=7)
        assert all(s.backend == "estimate" and s.seed == 7 for s in scenarios)


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESET_SCENARIOS:
            scenarios = preset_scenarios(name)
            assert scenarios, name
            assert all(isinstance(s, Scenario) for s in scenarios)

    def test_fig9_grid_shape(self):
        scenarios = preset_scenarios("fig9")
        assert len(scenarios) == 4 * 10
        assert {s.ports for s in scenarios} == {32}

    def test_fig10_grid_shape(self):
        scenarios = preset_scenarios("fig10")
        assert len(scenarios) == 4 * 4
        assert {s.ports for s in scenarios} == {4, 8, 16, 32}
        assert {s.load for s in scenarios} == {0.50}

    def test_scalar_presets(self):
        assert preset("tcpip").traffic == "trimodal"
        assert preset("bursty").traffic == "bursty"
        assert preset("hotspot").traffic == "hotspot"

    def test_preset_on_grid_raises(self):
        with pytest.raises(ConfigurationError, match="preset_scenarios"):
            preset("fig9")

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            preset_scenarios("fig11")


class TestWireMode:
    def test_parse_spellings(self):
        assert WireMode.parse("worst_case") is WireMode.WORST_CASE
        assert WireMode.parse("Per-Link") is WireMode.PER_LINK
        assert WireMode.parse(WireMode.EXPECTED) is WireMode.EXPECTED

    def test_backend_translation(self):
        assert WireMode.WORST_CASE.analytical == "worst_case"
        assert WireMode.WORST_CASE.simulated == "worst_case"
        # expected and per_link are one physical choice, two spellings
        assert WireMode.EXPECTED.simulated == "per_link"
        assert WireMode.PER_LINK.analytical == "expected"

    def test_parse_rejects_unknown_with_backends(self):
        with pytest.raises(ConfigurationError, match="simulated backend"):
            WireMode.parse("median")

    def test_parse_rejects_non_string(self):
        with pytest.raises(ConfigurationError):
            WireMode.parse(3)


class TestPerPortLoadVectors:
    def test_vector_load_freezes_to_tuple(self):
        s = Scenario("crossbar", 4, [0.1, 0.2, 0.3, 0.4])
        assert s.load == (0.1, 0.2, 0.3, 0.4)
        assert s.mean_load == pytest.approx(0.25)
        assert hash(s)  # stays hashable

    def test_vector_load_round_trips_json(self):
        s = Scenario("banyan", 4, [0.0, 1.0, 0.5, 0.25])
        back = Scenario.from_json(s.to_json())
        assert back == s
        assert back.load == (0.0, 1.0, 0.5, 0.25)

    def test_vector_load_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError, match="4 entries"):
            Scenario("crossbar", 4, [0.1, 0.2])

    def test_vector_load_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="0, 1"):
            Scenario("crossbar", 4, [0.1, 0.2, 0.3, 1.4])

    def test_vector_load_estimate_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="simulate-only"):
            Scenario("crossbar", 4, [0.1, 0.2, 0.3, 0.4], backend="estimate")

    def test_vector_load_bursty_accepted(self):
        s = Scenario("crossbar", 4, [0.0, 0.2, 0.3, 0.4], traffic="bursty")
        traffic = s.build_traffic()
        assert traffic.load == pytest.approx(0.225)

    def test_vector_load_bursty_saturated_port_rejected(self):
        # A port pinned at load 1.0 never leaves the ON state; the
        # generator rejects it at build time.
        s = Scenario("crossbar", 4, [0.1, 1.0, 0.3, 0.4], traffic="bursty")
        with pytest.raises(ConfigurationError, match="< 1"):
            s.build_traffic()

    def test_grid_accepts_vector_loads(self):
        scenarios = Scenario.grid(
            architectures=("crossbar",),
            ports=(4,),
            loads=(0.3, [0.1, 0.2, 0.3, 0.4]),
        )
        assert [s.load for s in scenarios] == [0.3, (0.1, 0.2, 0.3, 0.4)]

    def test_build_traffic_consumes_vector(self):
        s = Scenario("crossbar", 4, [0.0, 0.0, 0.0, 1.0])
        traffic = s.build_traffic()
        import numpy as np

        batch = traffic.arrivals_batch(0, np.random.default_rng(1))
        assert batch.srcs.tolist() == [3]


class TestQueueingAndRngStream:
    def test_voq_fields_round_trip(self):
        s = Scenario("crossbar", 8, 0.9, queueing="voq", islip_iterations=3)
        assert Scenario.from_json(s.to_json()) == s

    def test_unknown_queueing_rejected(self):
        with pytest.raises(ConfigurationError, match="queueing"):
            Scenario("crossbar", 8, 0.5, queueing="output")

    def test_islip_iterations_need_voq(self):
        with pytest.raises(ConfigurationError, match="voq"):
            Scenario("crossbar", 8, 0.5, islip_iterations=2)

    def test_voq_estimate_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="simulate-only"):
            Scenario("crossbar", 8, 0.5, queueing="voq", backend="estimate")

    def test_unknown_rng_stream_rejected(self):
        with pytest.raises(ConfigurationError, match="rng_stream"):
            Scenario("crossbar", 8, 0.5, rng_stream=3)

    def test_removed_stream_two_rejected(self):
        # The tag stays in every content hash, with its one value.
        v1 = Scenario("crossbar", 8, 0.5)
        assert v1.to_dict()["rng_stream"] == 1
        with pytest.raises(ConfigurationError, match="stream 2 was removed"):
            v1.replace(rng_stream=2)

    def test_bad_stream_version_rejected(self):
        # A spec file or store line written while stream 2 existed.
        data = dict(Scenario("crossbar", 8, 0.5).to_dict(), rng_stream=2)
        with pytest.raises(ConfigurationError, match="stream 2 was removed"):
            Scenario.from_dict(data)

    def test_queueing_changes_content_hash(self):
        fifo = Scenario("crossbar", 8, 0.5)
        voq = fifo.replace(queueing="voq")
        assert fifo.content_hash() != voq.content_hash()

    def test_custom_registered_architecture_validates(self):
        from repro.fabrics.crossbar import CrossbarFabric
        from repro.fabrics.registry import register_fabric, unregister_fabric

        class ScenarioFabric(CrossbarFabric):
            architecture = "scn_custom"

        register_fabric("scn_custom", ScenarioFabric)
        try:
            s = Scenario("scn_custom", 4, 0.3)
            assert s.architecture == "scn_custom"
            with pytest.raises(ConfigurationError, match="closed forms"):
                Scenario("scn_custom", 4, 0.3, backend="estimate")
        finally:
            unregister_fabric("scn_custom")
