"""The campaign layer: specs, presets, execution, aggregation, CLI."""

import json

import numpy as np
import pytest

from repro.api import Scenario
from repro.api.store import RunRecordStore
from repro.campaigns import (
    Campaign,
    ComparisonRecord,
    GRID_AXES,
    GRID_METRICS,
    PRESET_CAMPAIGNS,
    campaign_names,
    campaign_plan,
    get_campaign,
    render_report,
    run_campaign,
)
from repro.cli import main
from repro.core.estimator import ARCHITECTURES
from repro.errors import ConfigurationError

#: Cheap simulated grid shared by the execution tests.
SMALL_BASE = {"arrival_slots": 80, "warmup_slots": 10, "seed": 7}


def small_campaign(**overrides):
    kwargs = dict(
        name="small",
        architectures=("crossbar", "banyan"),
        ports=(4,),
        loads=(0.1, 0.3),
        base=SMALL_BASE,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


class TestCampaignSpec:
    def test_json_round_trip_grid(self):
        campaign = small_campaign(
            techs=("0.18um", "0.13um"),
            backends=("simulate", "estimate"),
            params={"target_throughput": 0.4},
        )
        restored = Campaign.from_json(campaign.to_json())
        assert restored == campaign
        assert restored.content_hash() == campaign.content_hash()

    def test_json_round_trip_table_kinds(self):
        for name in ("table1", "table2"):
            campaign = get_campaign(name)
            assert Campaign.from_json(campaign.to_json()) == campaign

    def test_per_port_load_axis_round_trips(self):
        campaign = small_campaign(loads=(0.2, [0.1, 0.9, 0.4, 0.0]))
        restored = Campaign.from_json(campaign.to_json())
        assert restored == campaign
        loads = {s.load for s in restored.scenarios()}
        assert (0.1, 0.9, 0.4, 0.0) in loads

    def test_scenarios_nesting_order_and_base(self):
        campaign = small_campaign(backends=("simulate", "estimate"))
        scenarios = campaign.scenarios()
        assert len(scenarios) == campaign.size() == 8
        # backend outermost, load innermost; base fields applied.
        assert [s.backend for s in scenarios[:4]] == ["simulate"] * 4
        assert [s.load for s in scenarios[:2]] == [0.1, 0.3]
        assert scenarios[0].architecture == "crossbar"
        assert scenarios[2].architecture == "banyan"
        assert all(s.arrival_slots == 80 and s.seed == 7 for s in scenarios)
        assert all(s.name == "small" for s in scenarios)

    def test_replace_revalidates(self):
        campaign = small_campaign()
        bigger = campaign.replace(ports=(4, 8))
        assert bigger.size() == 2 * campaign.size()
        assert bigger.content_hash() != campaign.content_hash()
        with pytest.raises(ConfigurationError):
            campaign.replace(loads=(1.5,))

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError, match="kind"):
            Campaign(name="x", kind="grid9")
        with pytest.raises(ConfigurationError, match="non-empty"):
            Campaign(name="x", architectures=("crossbar",), ports=(4,))
        with pytest.raises(ConfigurationError, match="axis fields"):
            small_campaign(base={"architecture": "banyan"})
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            small_campaign(base={"slotz": 3})
        with pytest.raises(ConfigurationError, match="preset names"):
            small_campaign(techs=(0.18,))
        with pytest.raises(ConfigurationError, match="backend"):
            small_campaign(backends=("emulate",))
        with pytest.raises(ConfigurationError, match="traffic"):
            small_campaign(traffics=("poisson",))
        with pytest.raises(ConfigurationError, match="no architectures"):
            Campaign(name="x", kind="table2", architectures=("crossbar",))
        with pytest.raises(ConfigurationError, match="unknown campaign"):
            Campaign.from_dict({"name": "x", "flavor": "grid"})

    def test_wire_mode_normalised_in_base(self):
        from repro.wire_modes import WireMode

        campaign = small_campaign(base={**SMALL_BASE,
                                        "wire_mode": WireMode.EXPECTED})
        assert dict(campaign.base)["wire_mode"] == "expected"
        assert json.loads(campaign.to_json())["base"]["wire_mode"] == "expected"

    def test_table_kinds_have_no_scenarios(self):
        with pytest.raises(ConfigurationError, match="scenario grid"):
            get_campaign("table1").scenarios()


class TestPresets:
    def test_registry(self):
        assert set(campaign_names()) == set(PRESET_CAMPAIGNS)
        for name in campaign_names():
            assert get_campaign(name).name == name
        with pytest.raises(ConfigurationError, match="known campaigns"):
            get_campaign("fig11")

    def test_fig9_matches_legacy_bench_grid(self):
        """The fig9 preset expands to exactly the grid the legacy
        bench_fig9_throughput_sweep.py swept (per-point match)."""
        campaign = get_campaign("fig9")
        scenarios = campaign.scenarios()
        legacy_points = {
            (arch, ports, load)
            for arch in ARCHITECTURES
            for ports in (4, 8, 16, 32)
            for load in (0.10, 0.20, 0.30, 0.40, 0.50)
        }
        assert {
            (s.architecture, s.ports, s.load) for s in scenarios
        } == legacy_points
        for s in scenarios:
            expected = Scenario(
                s.architecture, s.ports, s.load,
                arrival_slots=800, warmup_slots=160, seed=2002, name="fig9",
            )
            assert s == expected

    def test_fig10_matches_legacy_bench_grid(self):
        campaign = get_campaign("fig10")
        assert campaign.loads == (0.1, 0.2, 0.3, 0.4, 0.5, 0.55)
        assert campaign.ports == (4, 8, 16, 32)
        assert campaign.params_dict == {"target_throughput": 0.50}
        base = campaign.base_dict
        assert (base["arrival_slots"], base["warmup_slots"],
                base["seed"]) == (800, 160, 2002)

    def test_table_preset_params(self):
        assert get_campaign("table1").params_dict == {
            "cycles": 256, "seed": 1,
        }
        assert get_campaign("table2").params_dict == {
            "ports": [4, 8, 16, 32, 64, 128],
        }

    def test_plan_without_execution(self):
        plan = campaign_plan(get_campaign("fig9"))
        assert len(plan) == 80
        assert plan[0] == {
            "backend": "simulate", "traffic": "bernoulli",
            "architecture": "crossbar", "tech": "0.18um",
            "ports": 4, "load": 0.1,
        }
        assert len(campaign_plan(get_campaign("table1"))) == 9
        assert campaign_plan(get_campaign("table2"))[0] == {"ports": 4}


class TestGridExecution:
    @pytest.fixture(scope="class")
    def fig10_record(self):
        """Crossbar and fully connected at 4 and 8 ports, read off at
        25% egress throughput."""
        return run_campaign(small_campaign(
            architectures=("crossbar", "fully_connected"),
            ports=(4, 8),
            loads=(0.1, 0.3, 0.5),
            params={"target_throughput": 0.25},
        ))

    @staticmethod
    def _power_at_target(record):
        return {
            (row["architecture"], row["ports"]): row["power_w"]
            for row in record.interpolated_power()
        }

    def test_interpolated_power_matches_np_interp(self, fig10_record):
        rows = fig10_record.interpolated_power()
        assert len(rows) == 4
        for row in rows:
            series = sorted(
                fig10_record.select(architecture=row["architecture"],
                                    ports=row["ports"]),
                key=lambda p: p["throughput"],
            )
            xs = [p["throughput"] for p in series]
            ys = [p["total_power_w"] for p in series]
            assert xs[0] < 0.25 < xs[-1] and not row["saturated"]
            assert row["power_w"] == np.interp(0.25, xs, ys)

    def test_larger_fabric_costs_more_at_equal_throughput(
        self, fig10_record
    ):
        power = self._power_at_target(fig10_record)
        for arch in ("crossbar", "fully_connected"):
            assert power[(arch, 8)] > power[(arch, 4)]

    def test_fully_connected_cheaper_than_crossbar_at_4x4(
        self, fig10_record
    ):
        power = self._power_at_target(fig10_record)
        assert power[("fully_connected", 4)] < power[("crossbar", 4)]

    def test_saturated_group_reports_saturation_power(self):
        # A 4-port banyan cannot reach 90% egress throughput.
        campaign = small_campaign(
            architectures=("banyan",), loads=(0.1, 0.3),
        )
        record = run_campaign(campaign)
        (row,) = record.interpolated_power(0.9)
        assert row["saturated"] is True
        top = max(record.points, key=lambda p: p["throughput"])
        assert row["power_w"] == top["total_power_w"]

    def test_backend_deltas(self):
        campaign = small_campaign(backends=("simulate", "estimate"))
        record = run_campaign(campaign)
        deltas = record.backend_deltas()
        assert len(deltas) == 4
        for delta in deltas:
            sim = record.point(
                backend="simulate",
                architecture=delta["architecture"], load=delta["load"],
            )
            est = record.point(
                backend="estimate",
                architecture=delta["architecture"], load=delta["load"],
            )
            assert delta["simulated"] == sim["total_power_w"]
            assert delta["estimated"] == est["total_power_w"]
            assert delta["delta"] == pytest.approx(
                sim["total_power_w"] - est["total_power_w"]
            )
        # Single-backend campaigns have nothing to pair.
        assert run_campaign(small_campaign()).backend_deltas() == []

    def test_cache_second_run_is_all_hits(self, tmp_path):
        campaign = small_campaign()
        path = tmp_path / "records.jsonl"
        cold_store = RunRecordStore(path)
        cold = run_campaign(campaign, store=cold_store)
        assert cold_store.stats()["misses"] == campaign.size()
        warm_store = RunRecordStore(path)
        warm = run_campaign(campaign, store=warm_store)
        stats = warm_store.stats()
        assert stats["misses"] == 0
        assert stats["hits"] == campaign.size()
        # Exports are byte-identical across cold and warm runs.
        assert warm.to_csv() == cold.to_csv()
        assert warm.to_json() == cold.to_json()

    def test_run_campaign_by_name(self):
        record = run_campaign("table2")
        assert record.campaign.name == "table2"
        with pytest.raises(ConfigurationError, match="known campaigns"):
            run_campaign("fig11")


class TestTableCampaigns:
    def test_table2_matches_sram_model(self):
        from repro.core import tables
        from repro.memmodel import SramMacro
        from repro.units import to_pJ

        record = run_campaign(get_campaign("table2"))
        assert record.axes == ("ports",)
        assert [p["ports"] for p in record.points] == [4, 8, 16, 32, 64, 128]
        for point in record.points:
            macro = SramMacro.for_banyan(point["ports"])
            assert point["model_pj_per_bit"] == to_pJ(
                macro.access_energy_per_bit_j
            )
            assert point["switches"] == tables.banyan_switch_count(
                point["ports"]
            )
        assert record.points[-1]["paper_pj_per_bit"] is None

    def test_table1_matches_characterisation(self):
        from repro.gatesim.characterize import regenerate_table1

        campaign = get_campaign("table1").replace(
            params={"cycles": 48, "seed": 1}
        )
        record = run_campaign(campaign)
        result = regenerate_table1(cycles=48, seed=1)
        assert [p["entry"] for p in record.points] == sorted(result["raw"])
        for point in record.points:
            assert point["raw_j"] == result["raw"][point["entry"]]
            assert point["calibrated_j"] == result["calibrated"][
                point["entry"]]
            assert point["reference_j"] == result["reference"][
                point["entry"]]
            assert point["scale"] == result["scale"]

    def test_table_params_validated(self):
        with pytest.raises(ConfigurationError, match="table1 params"):
            run_campaign(
                get_campaign("table1").replace(params={"cycles": 48,
                                                       "loops": 2})
            )
        with pytest.raises(ConfigurationError, match="at least 1 cycle"):
            run_campaign(get_campaign("table1").replace(params={"cycles": 0}))
        with pytest.raises(ConfigurationError, match="table2 params"):
            run_campaign(
                get_campaign("table2").replace(params={"rows": [4]})
            )
        # Integers only: no strings, floats or bools, which int() used
        # to turn into a traceback or a silently different run.
        for params in ({"cycles": "abc"}, {"seed": "x"}, {"cycles": 2.7},
                       {"cycles": True}, {"seed": 1.0}):
            with pytest.raises(ConfigurationError, match="an integer"):
                run_campaign(get_campaign("table1").replace(params=params))
        with pytest.raises(ConfigurationError, match="list of integers"):
            run_campaign(get_campaign("table2").replace(params={"ports": 4}))
        for ports in (["x"], [3], [4.5], [True], [0], [8, 12]):
            with pytest.raises(ConfigurationError, match="powers of two"):
                run_campaign(
                    get_campaign("table2").replace(params={"ports": ports})
                )
        # A dry-run plan checks the same params.
        with pytest.raises(ConfigurationError, match="an integer"):
            campaign_plan(
                get_campaign("table1").replace(params={"seed": "x"})
            )
        with pytest.raises(ConfigurationError, match="powers of two"):
            campaign_plan(
                get_campaign("table2").replace(params={"ports": [3]})
            )


class TestComparisonRecord:
    @pytest.fixture(scope="class")
    def record(self):
        return run_campaign(small_campaign())

    def test_csv_layout(self, record):
        lines = record.to_csv().splitlines()
        assert lines[0] == ",".join(GRID_AXES + GRID_METRICS)
        assert len(lines) == 1 + len(record.points)
        # Full-precision floats round-trip through the CSV text.
        first = lines[1].split(",")
        assert float(first[6]) == record.points[0]["throughput"]

    def test_json_round_trip(self, record):
        restored = ComparisonRecord.from_json(record.to_json())
        assert restored.campaign == record.campaign
        assert restored.axes == record.axes
        assert restored.metrics == record.metrics
        assert restored.points == record.points
        assert restored.detail is None
        with pytest.raises(ConfigurationError, match="unknown"):
            ComparisonRecord.from_dict({**record.to_dict(), "extra": 1})

    def test_markdown(self, record):
        markdown = record.to_markdown()
        lines = markdown.splitlines()
        assert lines[0].startswith("| backend | traffic |")
        assert len(lines) == 2 + len(record.points)

    def test_pivot_and_selectors(self, record):
        pivot = record.pivot("load", "architecture", "total_power_w")
        assert set(pivot) == {0.1, 0.3}
        assert set(pivot[0.1]) == {"crossbar", "banyan"}
        point = record.point(architecture="banyan", load=0.3)
        assert pivot[0.3]["banyan"] == point["total_power_w"]
        assert record.axis_values("architecture") == ["crossbar", "banyan"]
        with pytest.raises(ConfigurationError, match="unknown axis"):
            record.axis_values("flavor")
        with pytest.raises(ConfigurationError, match="unknown metric"):
            record.pivot("load", "architecture", "speed")
        with pytest.raises(ConfigurationError, match="exactly one"):
            record.point(architecture="banyan")

    def test_pivot_ambiguity_raises(self):
        campaign = small_campaign(ports=(4, 8), loads=(0.1,))
        two_ports = run_campaign(campaign)
        with pytest.raises(ConfigurationError, match="ambiguous"):
            two_ports.pivot("load", "architecture", "total_power_w")
        pinned = two_ports.pivot(
            "load", "architecture", "total_power_w", where={"ports": 8}
        )
        assert set(pinned[0.1]) == {"crossbar", "banyan"}

    def test_vector_loads_aggregate_with_tuple_keys(self):
        campaign = small_campaign(
            architectures=("crossbar",),
            loads=(0.2, [0.1, 0.3, 0.2, 0.4]),
        )
        record = run_campaign(campaign)
        pivot = record.pivot("load", "architecture", "total_power_w")
        assert set(pivot) == {0.2, (0.1, 0.3, 0.2, 0.4)}
        # Grouped views and the report renderer handle vectors too.
        assert len(record.interpolated_power(0.1)) == 1
        assert "crossbar" in render_report(record)

    def test_report_keeps_backends_separate_at_target(self):
        campaign = small_campaign(
            backends=("simulate", "estimate"),
            params={"target_throughput": 0.2},
        )
        report = render_report(run_campaign(campaign))
        # One read-off table per backend, never collapsed onto one.
        assert report.count("power at 20% egress throughput") == 2
        assert "[simulate/bernoulli/0.18um] power at" in report
        assert "[estimate/bernoulli/0.18um] power at" in report

    def test_render_report_smoke(self, record):
        report = render_report(record)
        assert "small" in report
        assert "total power" in report
        # Table kinds render their paper layouts.
        table2 = render_report(run_campaign("table2"))
        assert "Table 2" in table2 and "paper=" in table2


class TestCampaignCli:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in campaign_names():
            assert name in out

    def test_dry_run_fig9(self, capsys):
        assert main(["campaign", "run", "fig9", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "80 points" in out
        assert out.count("architecture=") == 80

    def test_unknown_name_errors(self, capsys):
        assert main(["campaign", "run", "fig11"]) == 2
        assert "known campaigns" in capsys.readouterr().err

    def test_run_campaign_file_with_cache_and_exports(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "mini.json"
        spec.write_text(small_campaign(name="mini").to_json())
        cache = tmp_path / "records.jsonl"
        csv_path = tmp_path / "mini.csv"
        json_path = tmp_path / "mini.json.out"
        assert main([
            "campaign", "run", str(spec),
            "--cache", str(cache),
            "--csv", str(csv_path),
            "--json", str(json_path),
            "--format", "csv",
        ]) == 0
        captured = capsys.readouterr()
        assert "4 misses" in captured.err
        assert csv_path.read_text().startswith(",".join(GRID_AXES))
        restored = ComparisonRecord.from_json(json_path.read_text())
        assert len(restored.points) == 4
        # Second run: all hits, identical CSV on stdout.
        assert main([
            "campaign", "run", str(spec),
            "--cache", str(cache), "--format", "csv",
        ]) == 0
        second = capsys.readouterr()
        assert "0 misses" in second.err
        assert second.out == captured.out

    def test_run_table_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "table2.md"
        assert main([
            "campaign", "run", "table2",
            "--format", "markdown", "--output", str(out_path),
        ]) == 0
        assert out_path.read_text().startswith("| ports |")

    def test_report_table2(self, capsys):
        assert main(["campaign", "report", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "paper pJ" in out
