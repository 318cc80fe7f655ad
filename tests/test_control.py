"""Energy-aware control plane (:mod:`repro.control`).

Pins the subsystem's contracts:

* demand series and control specs round-trip through JSON and hash
  stably by content;
* a flat single-epoch series with every policy disabled is
  *bit-identical* to the plain :class:`~repro.network.NetworkPowerModel`
  run of the same network spec (the PR-5 anchor);
* the greedy pruner only keeps a link down when every demand stays
  routed inside the SLA headroom, and projects pruned routings back
  onto the full port map;
* per-epoch savings against the fixed-routing baseline are
  non-negative by construction — for both built-in presets;
* the wake-energy transition charge lands once, at sleep entry;
* warm ``--figures`` re-runs serve the whole record with zero misses
  and byte-identical exports, through the CLI included.
"""

import json

import pytest

from repro.api.figstore import DerivedRecordStore
from repro.api.store import RunRecordStore
from repro.cli import main
from repro.errors import ConfigurationError
from repro.network import (
    Demand,
    Link,
    NetworkPowerModel,
    NetworkSpec,
    NetworkTopology,
    RouterNode,
    TrafficMatrix,
    get_network,
    line,
)
from repro.control import (
    CONTROL_PRESETS,
    ControlRecord,
    ControlSpec,
    DemandSeries,
    cable_key,
    cables_of,
    control_names,
    get_control,
    optimize_routing,
    run_control,
)

#: Small measurement window shared by every simulated test here.
FAST = dict(arrival_slots=80, warmup_slots=10, seed=7)


def small_network(**overrides) -> NetworkSpec:
    """A 3-node line with one edge demand: the r1-r2 cable stays idle,
    so there is something to prune and sleep — and the estimate
    backend keeps every test fast."""
    defaults = dict(
        name="ctl",
        topology=line(3),
        matrix=TrafficMatrix((Demand("r0", "r1", 0.4),)),
        port_power_w=0.01,
        base=dict(backend="estimate"),
    )
    defaults.update(overrides)
    return NetworkSpec(**defaults)


def small_spec(**overrides) -> ControlSpec:
    network = overrides.pop("network", None) or small_network()
    series = overrides.pop("series", None) or DemandSeries.step(
        network.matrix, (1.0, 0.5), name="s"
    )
    defaults = dict(
        name="t",
        network=network,
        series=series,
        max_utilization=0.9,
        sleep=True,
        sleep_power_fraction=0.1,
        wake_energy_j=0.5,
    )
    defaults.update(overrides)
    return ControlSpec(**defaults)


# ----------------------------------------------------------------------
# Demand series
# ----------------------------------------------------------------------


class TestDemandSeries:
    def test_round_trip_and_hash_stability(self):
        base = TrafficMatrix.uniform(("a", "b"), 0.4)
        series = DemandSeries("day", base, (0.5, 1.0), epoch_seconds=1800.0)
        back = DemandSeries.from_json(series.to_json())
        assert back == series
        assert back.content_hash() == series.content_hash()
        assert series.replace(scales=(1.0, 0.5)).content_hash() != (
            series.content_hash()
        )

    def test_scale_one_reproduces_base_exactly(self):
        base = TrafficMatrix.uniform(("a", "b"), 0.37)
        series = DemandSeries.flat(base, epochs=3)
        assert series.epochs == 3
        assert series.duration_s == 3 * 3600.0
        # Float-exact, hash included: the single-epoch identity anchor.
        assert series.matrix(0) == base
        assert series.matrix(0).content_hash() == base.content_hash()

    def test_step_repeats(self):
        base = TrafficMatrix.uniform(("a", "b"), 0.1)
        series = DemandSeries.step(base, (1.0, 0.25), repeats=2)
        assert series.scales == (1.0, 1.0, 0.25, 0.25)
        assert series.matrix(2).total() == pytest.approx(0.25 * base.total())

    def test_diurnal_trough_and_peak_hours(self):
        base = TrafficMatrix.uniform(("a", "b"), 0.1)
        series = DemandSeries.diurnal(
            base, epochs=24, low=0.25, peak=1.0, trough_hour=4.0
        )
        assert series.epoch_seconds == pytest.approx(86400.0 / 24)
        assert series.scale(4) == pytest.approx(0.25)   # 4 am trough
        assert series.scale(16) == pytest.approx(1.0)   # 4 pm peak

    def test_validation(self):
        base = TrafficMatrix.uniform(("a", "b"), 0.1)
        with pytest.raises(ConfigurationError, match=">= 1 epoch"):
            DemandSeries("x", base, ())
        with pytest.raises(ConfigurationError, match=">= 0"):
            DemandSeries("x", base, (-0.5,))
        with pytest.raises(ConfigurationError, match="epoch_seconds"):
            DemandSeries("x", base, (1.0,), epoch_seconds=0.0)
        series = DemandSeries("x", base, (1.0,))
        with pytest.raises(ConfigurationError, match="out of range"):
            series.matrix(1)
        with pytest.raises(ConfigurationError, match="unknown demand-series"):
            DemandSeries.from_dict({"name": "x", "base": base.to_dict(),
                                    "scales": [1.0], "bogus": 1})

    @pytest.mark.parametrize("field", [
        {"scales": ["0.5"]}, {"scales": [True, 1.0]}, {"scales": "12"},
        {"epoch_seconds": True},
    ], ids=["scale-str", "scale-bool", "scales-str", "epoch_seconds-bool"])
    def test_rejects_wrongly_typed_numbers(self, field):
        # Each would run under a new content hash: "12" as the scales
        # (1.0, 2.0), one character at a time.
        series = get_control("dumbbell_sleep_sweep").series
        (name,) = field
        with pytest.raises(ConfigurationError, match=f"{name} must be"):
            DemandSeries.from_dict({**series.to_dict(), **field})

    def test_int_scales_are_the_float_scales(self):
        series = get_control("dumbbell_sleep_sweep").series
        data = {**series.to_dict(), "scales": [1, 0], "epoch_seconds": 60}
        assert DemandSeries.from_dict(data).content_hash() == (
            series.replace(scales=(1.0, 0.0), epoch_seconds=60.0)
            .content_hash()
        )


# ----------------------------------------------------------------------
# Control spec
# ----------------------------------------------------------------------


class TestControlSpec:
    def test_round_trip_and_hash_stability(self):
        spec = get_control("dumbbell_sleep_sweep")
        back = ControlSpec.from_json(spec.to_json())
        assert back == spec
        assert back.content_hash() == spec.content_hash()
        assert spec.replace(sleep=False).content_hash() != (
            spec.content_hash()
        )

    def test_link_rates_sorted_deduped_and_need_full_rate(self):
        spec = small_spec(link_rates=(1.0, 0.5, 0.5, 0.25))
        assert spec.link_rates == (0.25, 0.5, 1.0)
        with pytest.raises(ConfigurationError, match="full rate 1.0"):
            small_spec(link_rates=(0.25, 0.5))
        with pytest.raises(ConfigurationError, match=r"in \(0, 1\]"):
            small_spec(link_rates=(0.0, 1.0))

    def test_headroom_validation(self):
        with pytest.raises(ConfigurationError, match="max_utilization"):
            small_spec(max_utilization=0.0)
        with pytest.raises(ConfigurationError, match="sla_sweep"):
            small_spec(sla_sweep=(1.5,))
        with pytest.raises(ConfigurationError, match="sleep_power_fraction"):
            small_spec(sleep_power_fraction=1.5)
        with pytest.raises(ConfigurationError, match="wake_energy_j"):
            small_spec(wake_energy_j=-1.0)

    def test_headrooms_union_sorted(self):
        spec = small_spec(max_utilization=0.9, sla_sweep=(0.5, 0.9, 0.7))
        assert spec.headrooms() == (0.5, 0.7, 0.9)

    def test_states_active(self):
        assert not small_spec(sleep=False).states_active
        assert small_spec(sleep=True).states_active
        assert small_spec(
            sleep=False, link_rates=(0.5, 1.0)
        ).states_active

    def test_series_nodes_must_exist(self):
        foreign = TrafficMatrix((Demand("nope", "r0", 0.1),))
        with pytest.raises(ConfigurationError, match="unknown nodes"):
            small_spec(series=DemandSeries("x", foreign, (1.0,)))

    def test_epoch_network_identity_at_scale_one(self):
        network = small_network()
        spec = small_spec(
            network=network,
            series=DemandSeries.flat(network.matrix),
        )
        assert spec.epoch_network(0).content_hash() == (
            network.content_hash()
        )


# ----------------------------------------------------------------------
# Green-routing optimizer
# ----------------------------------------------------------------------


class TestOptimizer:
    def test_prunes_idle_cables_within_headroom(self):
        # The dumbbell hotspot leaves the r1/r2 side cables idle.
        spec = get_network("dumbbell_switchoff")
        plan = optimize_routing(
            spec.topology, spec.matrix, mode=spec.routing,
            max_utilization=0.9,
        )
        assert plan.pruned_cables  # something was worth pruning
        assert plan.pruned_cables == tuple(sorted(plan.pruned_cables))
        assert plan.max_link_utilization <= 0.9 + 1e-9
        # Every demand still routes over the pruned topology.
        for demand in spec.matrix.demands:
            assert (demand.src, demand.dst) in plan.routing.demand_hops

    def test_projected_loads_cover_the_full_topology(self):
        spec = get_network("dumbbell_switchoff")
        plan = optimize_routing(
            spec.topology, spec.matrix, max_utilization=0.9
        )
        # The plan routes over the *original* link set (pruned links at
        # zero load), so freed cable ports stay cable ports downstream.
        assert plan.routing.topology == spec.topology
        original_edges = {(l.src, l.dst) for l in spec.topology.links}
        assert set(plan.routing.link_loads) == original_edges
        for a, b in plan.pruned_cables:
            assert plan.routing.link_loads[(a, b)] == 0.0
            assert plan.routing.link_loads[(b, a)] == 0.0
        # The pruned topology itself really lost the cables.
        pruned_edges = {(l.src, l.dst) for l in plan.topology.links}
        assert pruned_edges < original_edges

    def test_zero_demand_keeps_its_only_path_up(self):
        # The idle r1-r2 cable is tried first, but the 0.0-cell demand
        # r0 -> r2 has no other path: a demand that carries no load must
        # stay routable all the same.
        matrix = TrafficMatrix(
            (Demand("r0", "r1", 0.3), Demand("r0", "r2", 0.0))
        )
        plan = optimize_routing(line(3), matrix)
        assert plan.pruned_cables == ()
        assert plan.routing.demand_hops == {("r0", "r1"): 1, ("r0", "r2"): 2}

    def test_zero_demand_takes_the_longer_way_round(self):
        # A four-router ring: pruning the idle r0-r1 cable sends the
        # 0.0-cell demand r0 -> r1 the other way round, three hops.
        names = ("r0", "r1", "r2", "r3")
        topology = NetworkTopology(
            name="ring4",
            nodes=[RouterNode(name, 3) for name in names],
            links=[
                Link(a, b)
                for i, name in enumerate(names)
                for a, b in ((name, names[i - 1]), (names[i - 1], name))
            ],
        )
        matrix = TrafficMatrix(
            (Demand("r0", "r1", 0.0), Demand("r2", "r3", 0.2))
        )
        plan = optimize_routing(topology, matrix)
        assert plan.pruned_cables == (("r0", "r1"),)
        assert plan.routing.demand_hops == {("r0", "r1"): 3, ("r2", "r3"): 1}

    def test_tight_headroom_prunes_nothing(self):
        # Base max utilization already exceeds the bound -> no pruning.
        spec = get_network("dumbbell_switchoff")
        plan = optimize_routing(
            spec.topology, spec.matrix, max_utilization=0.05
        )
        assert plan.pruned_cables == ()

    def test_cable_helpers(self):
        assert cable_key("b", "a") == ("a", "b")
        spec = get_network("dumbbell_switchoff")
        cables = cables_of(spec.topology)
        assert len(cables) == 7  # 3 + 3 leaves + the hub cable
        assert cables == tuple(sorted(cables))


# ----------------------------------------------------------------------
# Control model
# ----------------------------------------------------------------------


class TestControlModel:
    def test_flat_single_epoch_bit_identical_to_network_run(self):
        # Everything off -> the control plane IS the PR-5 data plane.
        network = small_network(base=FAST)
        spec = ControlSpec(
            name="inert",
            network=network,
            series=DemandSeries.flat(network.matrix),
            optimize=False,
        )
        record = run_control(spec)
        base = NetworkPowerModel().run(network)
        row = record.epochs[0]
        assert row["config"] == "fixed"
        assert row["power_w"] == base.totals["power_w"]
        assert row["savings_w"] == 0.0
        assert record.detail["epoch_records"][0].to_json() == base.to_json()

    def test_savings_non_negative_and_sleep_transition(self):
        record = run_control(small_spec())
        for row in record.epochs:
            assert row["savings_w"] >= 0.0
        # The idle r1-r2 cable sleeps from epoch 0: one wake charge,
        # spread over the epoch, then nothing on later epochs.
        first, second = record.epochs
        assert first["links_asleep"] == 1
        assert first["transition_power_w"] == pytest.approx(0.5 / 3600.0)
        assert second["links_asleep"] == 1
        assert second["transition_power_w"] == 0.0

    def test_fixed_candidate_unpolluted_by_transitions(self):
        # fixed_power_w is the pure baseline: scale 1.0 epochs at both
        # ends of the step series report the same fixed power even
        # though only the first pays a wake charge.
        record = run_control(
            small_spec(
                series=DemandSeries.step(
                    small_network().matrix, (1.0, 0.5, 1.0), name="s3"
                )
            )
        )
        assert record.epochs[0]["fixed_power_w"] == pytest.approx(
            record.epochs[2]["fixed_power_w"]
        )

    def test_sla_sweep_rows(self):
        record = run_control(small_spec(sla_sweep=(0.5,)))
        assert [row["max_utilization"] for row in record.sla] == [0.5, 0.9]
        for row in record.sla:
            assert row["savings_j"] >= 0.0
            assert row["fixed_energy_j"] >= row["energy_j"]
        assert record.totals["max_utilization"] == 0.9
        assert record.savings_j == record.totals["savings_j"]

    def test_record_round_trip(self):
        record = run_control(small_spec(sla_sweep=(0.5,)))
        back = ControlRecord.from_json(record.to_json())
        assert back.to_csv() == record.to_csv()
        assert back.sla_to_csv() == record.sla_to_csv()
        assert back.totals == record.totals
        assert back.detail is None
        assert "| epoch |" in record.to_markdown()

    def test_figure_store_serves_whole_record(self, tmp_path):
        spec = small_spec()
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        first = run_control(spec, figures=figures)
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_control(spec, figures=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert second.to_csv() == first.to_csv()
        assert second.sla_to_csv() == first.sla_to_csv()

    def test_run_control_accepts_name_and_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="known specs"):
            run_control("nope")
        with pytest.raises(ConfigurationError, match="ControlSpec"):
            run_control(42)


# ----------------------------------------------------------------------
# Built-in presets (the acceptance gates)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def dumbbell_record():
    return run_control("dumbbell_sleep_sweep")


@pytest.fixture(scope="module")
def fat_tree_record():
    return run_control("fat_tree_diurnal")


class TestPresets:
    def test_registry(self):
        assert control_names() == sorted(CONTROL_PRESETS)
        for name in control_names():
            assert get_control(name).name == name

    def test_dumbbell_savings_every_epoch(self, dumbbell_record):
        record = dumbbell_record
        assert record.totals["epochs"] == 5
        for row in record.epochs:
            assert row["savings_w"] >= 0.0
            assert row["links_up"] >= record.totals["min_links_up"]
        assert record.totals["savings_pct"] > 0.0
        # The idle side cables sleep through the whole series.
        assert all(row["links_asleep"] >= 2 for row in record.epochs)

    def test_fat_tree_green_routing_wins(self, fat_tree_record):
        record = fat_tree_record
        assert record.totals["epochs"] == 4
        for row in record.epochs:
            assert row["savings_w"] >= 0.0
        # Pruning genuinely engages: fewer cables up than exist, and
        # the up-count tracks the diurnal demand.
        assert record.totals["min_links_up"] < record.totals["cables"]
        assert any(row["config"] == "optimized" for row in record.epochs)
        ups = [row["links_up"] for row in record.epochs]
        scales = [row["scale"] for row in record.epochs]
        assert ups.index(max(ups)) == scales.index(max(scales))

    def test_fat_tree_sla_curve_tightens_with_headroom(self, fat_tree_record):
        # A looser utilization bound can only help the pruner.
        by_headroom = {
            row["max_utilization"]: row["savings_j"]
            for row in fat_tree_record.sla
        }
        assert by_headroom[0.6] <= by_headroom[0.85]
        assert by_headroom[0.6] >= 0.0


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------


class TestControlCampaigns:
    def test_presets_registered(self):
        from repro.campaigns import campaign_names, get_campaign

        names = campaign_names()
        assert "fat_tree_diurnal" in names
        assert "dumbbell_sleep_sweep" in names
        campaign = get_campaign("dumbbell_sleep_sweep")
        assert campaign.kind == "control"
        assert campaign.size() == 6  # 5 epochs + the total row
        assert get_campaign("fat_tree_diurnal").size() == 5

    def test_campaign_plan_matches_size_without_running(self):
        from repro.campaigns import campaign_plan, get_campaign

        campaign = get_campaign("dumbbell_sleep_sweep")
        plan = campaign_plan(campaign)
        assert len(plan) == campaign.size() == 6
        assert {p["scale"] for p in plan if isinstance(p["epoch"], int)} == (
            {1.0, 0.5, 0.25}
        )

    def test_campaign_run_round_trip_and_report(self):
        from repro.campaigns import (
            CONTROL_TOTAL_EPOCH,
            Campaign,
            ComparisonRecord,
            render_report,
            run_campaign,
        )

        campaign = Campaign(
            name="ctl",
            kind="control",
            params={"spec": small_spec().to_dict()},
        )
        record = run_campaign(campaign)
        assert len(record.points) == 3  # 2 epochs + total
        back = ComparisonRecord.from_json(record.to_json())
        assert back.to_csv() == record.to_csv()
        totals = [
            p for p in record.points if p["epoch"] == CONTROL_TOTAL_EPOCH
        ]
        assert len(totals) == 1
        assert totals[0]["savings_w"] >= 0.0
        report = render_report(record)
        assert "per-epoch control-plane power" in report
        assert "series mean" in report

    def test_campaign_figures_cache(self, tmp_path):
        from repro.campaigns import Campaign, run_campaign

        campaign = Campaign(
            name="ctl",
            kind="control",
            params={"spec": small_spec().to_dict()},
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        first = run_campaign(campaign, figures=figures)
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_campaign(campaign, figures=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert second.to_csv() == first.to_csv()

    def test_control_campaign_validation(self):
        from repro.campaigns import Campaign

        with pytest.raises(ConfigurationError, match="exactly one"):
            Campaign(name="x", kind="control")
        with pytest.raises(ConfigurationError, match="exactly one"):
            Campaign(
                name="x", kind="control",
                params={"control": "fat_tree_diurnal",
                        "spec": small_spec().to_dict()},
            )
        with pytest.raises(ConfigurationError, match="unknown"):
            Campaign(name="x", kind="control", params={"control": "nope"})


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestControlCli:
    def test_list(self, capsys):
        assert main(["control", "list"]) == 0
        out = capsys.readouterr().out
        for name in control_names():
            assert name in out
        # Satellite contract: routing mode, node/link and epoch counts.
        assert "routing" in out and "epochs" in out
        assert "ecmp" in out and "shortest" in out

    def test_dry_run(self, capsys):
        assert main(["control", "run", "dumbbell_sleep_sweep",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "5 epochs" in out
        assert out.count("epoch ") == 5
        assert "max_util" in out

    def test_run_warm_cache_byte_identical(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec().to_json())
        figs = tmp_path / "figs.jsonl"
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        assert main(["control", "run", str(spec_file),
                     "--figures", str(figs), "--csv", str(csv_a),
                     "--sla-csv", str(tmp_path / "sla.csv"),
                     "--json", str(tmp_path / "rec.json"),
                     "--format", "csv"]) == 0
        first = capsys.readouterr()
        assert main(["control", "run", str(spec_file),
                     "--figures", str(figs), "--csv", str(csv_b),
                     "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert " 0 misses" in captured.err
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert captured.out == first.out
        assert captured.out.encode() == csv_b.read_bytes()
        payload = json.loads((tmp_path / "rec.json").read_text())
        assert payload["totals"]["epochs"] == 2

    def test_report_command(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec(sla_sweep=(0.5,)).to_json())
        assert main(["control", "report", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "per-epoch power" in out
        assert "savings vs SLA headroom" in out

    def test_campaign_cli_knows_control_presets(self, capsys):
        assert main(["campaign", "run", "dumbbell_sleep_sweep",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "6 points" in out

    def test_unknown_control_errors_cleanly(self, capsys):
        assert main(["control", "run", "nope"]) == 2
        assert "known specs" in capsys.readouterr().err
