"""Campaign execution: scenario grids through ``run_batch``, tables
through their dedicated models.

:func:`run_campaign` is the single entry point: it turns any
:class:`~repro.campaigns.campaign.Campaign` into a
:class:`~repro.campaigns.comparison.ComparisonRecord`.

* Grid campaigns fan their derived scenario grid out over
  :meth:`repro.api.PowerModel.run_batch` — inline or a process pool,
  optional :class:`~repro.api.store.RunRecordStore` JSONL cache — so a
  re-run of an already-measured campaign is served entirely from disk
  (``repro campaign run fig9 --cache records.jsonl`` twice simulates
  nothing the second time).
* ``table1`` campaigns re-characterise the node switches at gate level
  (:func:`repro.gatesim.characterize.regenerate_table1`).
* ``table2`` campaigns evaluate the banked-SRAM buffer model
  (:class:`repro.memmodel.SramMacro`).
* ``network`` campaigns sweep a :class:`~repro.network.power.
  NetworkSpec` over demand scales through
  :class:`~repro.network.power.NetworkPowerModel` (every constituent
  :class:`~repro.network.power.NetworkRecord` also lands in the
  derived-figure store, keyed by its spec's topology+matrix hash).
* ``control`` campaigns run an energy-aware control-plane series
  (:class:`~repro.control.model.ControlModel`): per-epoch rows plus a
  series-total row, with per-epoch baselines and the whole
  :class:`~repro.control.record.ControlRecord` figure-cached.
* ``surrogate_eval`` campaigns execute their grid like ``"grid"``,
  train a :class:`~repro.surrogate.train.SurrogateModel` on the
  completed records (held-out slice excluded) and score every point
  surrogate-vs-simulation — the accuracy report behind ``repro serve``.

Passing ``figures=`` (a :class:`~repro.api.figstore.
DerivedRecordStore`) caches the *aggregated* record keyed by
``Campaign.content_hash()``: a warm figure store serves ``repro
campaign report`` without constructing a session or touching a single
scenario.

:func:`campaign_plan` returns the per-point axis assignments *without*
executing anything — the CLI's ``--dry-run`` (and the CI preset-rot
check) use it to validate a campaign cheaply.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.errors import ConfigurationError

from repro.api.figstore import DerivedRecordStore
from repro.api.model import PowerModel, check_batch_options, default_session
from repro.api.records import RunRecord
from repro.resilience.records import BatchReport

from repro.campaigns.campaign import Campaign, GRID_AXES
from repro.campaigns.comparison import ComparisonRecord

#: Metric columns of a grid campaign's points (RunRecord headline
#: numbers, in CSV column order).
GRID_METRICS = (
    "throughput",
    "total_power_w",
    "switch_power_w",
    "wire_power_w",
    "buffer_power_w",
    "energy_per_bit_j",
)

TABLE1_AXES = ("entry",)
TABLE1_METRICS = ("raw_j", "calibrated_j", "reference_j", "scale")

TABLE2_AXES = ("ports",)
TABLE2_METRICS = ("switches", "sram_kbit", "model_pj_per_bit", "paper_pj_per_bit")

#: Axis / metric columns of a network campaign's points.  The
#: ``"(total)"`` node row per scale carries the network-wide
#: aggregates (fabric + port power, switch-off delta).
NETWORK_AXES = ("scale", "node")
NETWORK_METRICS = (
    "architecture",
    "ports",
    "powered_ports",
    "mean_load",
    "throughput",
    "fabric_power_w",
    "port_power_w",
    "power_w",
    "switch_off_delta_w",
)

#: The synthetic per-scale aggregate row's node name.
NETWORK_TOTAL_NODE = "(total)"

#: Axis / metric columns of a control campaign's points.  The
#: ``"(total)"`` epoch row carries the series-wide aggregates (mean
#: power, mean savings).
CONTROL_AXES = ("epoch",)
CONTROL_METRICS = (
    "scale",
    "config",
    "links_up",
    "links_asleep",
    "powered_ports",
    "max_link_utilization",
    "power_w",
    "fixed_power_w",
    "savings_w",
)

#: The synthetic aggregate row's epoch name.
CONTROL_TOTAL_EPOCH = "(total)"

#: Axis / metric columns of a surrogate_eval campaign's points: the
#: grid axes, plus per-point surrogate-vs-simulation scoring.
SURROGATE_AXES = GRID_AXES
SURROGATE_METRICS = (
    "split",
    "throughput",
    "total_power_w",
    "surrogate_power_w",
    "band_w",
    "abs_error_w",
    "rel_error",
    "ood",
)

_DEFAULT_TABLE2_PORTS = (4, 8, 16, 32, 64, 128)


def _grid_axis_values(scenario) -> dict[str, Any]:
    tech = scenario.tech
    load = scenario.load
    return {
        "backend": scenario.backend,
        "traffic": scenario.traffic,
        "architecture": scenario.architecture,
        "tech": tech if isinstance(tech, str) else tech.name,
        "ports": scenario.ports,
        "load": list(load) if isinstance(load, tuple) else load,
    }


def _grid_point(record: RunRecord) -> dict[str, Any]:
    point = _grid_axis_values(record.scenario)
    for metric in GRID_METRICS:
        point[metric] = getattr(record, metric)
    return point


def _network_node_point(
    scale: float, row: dict[str, Any]
) -> dict[str, Any]:
    point: dict[str, Any] = {"scale": scale, "node": row["node"]}
    for metric in NETWORK_METRICS:
        point[metric] = row.get(metric)
    return point


def _network_total_point(scale: float, record) -> dict[str, Any]:
    totals = record.totals
    loads = [row["mean_load"] for row in record.nodes]
    return {
        "scale": scale,
        "node": NETWORK_TOTAL_NODE,
        "architecture": None,
        "ports": totals["total_ports"],
        "powered_ports": totals["powered_ports"],
        "mean_load": sum(loads) / len(loads) if loads else 0.0,
        "throughput": None,
        "fabric_power_w": totals["fabric_power_w"],
        "port_power_w": totals["port_power_w"],
        "power_w": totals["power_w"],
        "switch_off_delta_w": totals["switch_off_delta_w"],
    }


def _control_epoch_point(row: dict[str, Any]) -> dict[str, Any]:
    point: dict[str, Any] = {"epoch": row["epoch"]}
    for metric in CONTROL_METRICS:
        point[metric] = row.get(metric)
    return point


def _control_total_point(record) -> dict[str, Any]:
    totals = record.totals
    return {
        "epoch": CONTROL_TOTAL_EPOCH,
        "scale": None,
        "config": None,
        "links_up": totals["mean_links_up"],
        "links_asleep": None,
        "powered_ports": None,
        "max_link_utilization": totals["max_utilization"],
        "power_w": totals["mean_power_w"],
        "fixed_power_w": totals["mean_fixed_power_w"],
        "savings_w": totals["mean_savings_w"],
    }


def campaign_plan(campaign: Campaign) -> list[dict[str, Any]]:
    """Per-point axis assignments, without executing anything.

    For network campaigns the plan routes the matrix (cheap — no
    simulation) so an infeasible preset fails the dry-run, and reports
    each derived router's mean ingress load.
    """
    if campaign.kind in ("grid", "surrogate_eval"):
        return [_grid_axis_values(s) for s in campaign.scenarios()]
    if campaign.kind == "network":
        from repro.network.routing import route

        spec = campaign.network_spec()
        plan = []
        for scale in campaign.network_scales():
            scaled = spec if scale == 1.0 else spec.scaled(scale)
            routing = route(scaled.topology, scaled.matrix, scaled.routing)
            means = []
            for node in scaled.topology.nodes:
                loads = routing.ingress_loads[node.name]
                means.append(sum(loads) / len(loads))
                plan.append(
                    {
                        "scale": scale,
                        "node": node.name,
                        "architecture": node.architecture,
                        "ports": node.ports,
                        "load": means[-1],
                    }
                )
            # The synthetic aggregate row the executed record will
            # carry, so the plan's point count matches Campaign.size().
            plan.append(
                {
                    "scale": scale,
                    "node": NETWORK_TOTAL_NODE,
                    "architecture": None,
                    "ports": sum(n.ports for n in scaled.topology.nodes),
                    "load": sum(means) / len(means),
                }
            )
        return plan
    if campaign.kind == "control":
        from repro.network.routing import route

        spec = campaign.control_spec()
        plan = []
        routed: dict[float, float] = {}
        for epoch in range(spec.series.epochs):
            scale = spec.series.scales[epoch]
            if scale not in routed:
                # Route the epoch's matrix (cheap — no simulation) so
                # an infeasible series fails the dry-run.
                routing = route(
                    spec.network.topology,
                    spec.series.matrix(epoch),
                    spec.network.routing,
                )
                utils = [
                    load
                    / spec.network.topology.link(src, dst).capacity
                    for (src, dst), load in routing.link_loads.items()
                ]
                routed[scale] = max(utils) if utils else 0.0
            plan.append(
                {
                    "epoch": epoch,
                    "scale": scale,
                    "total_demand": spec.series.matrix(epoch).total(),
                    "max_link_utilization": routed[scale],
                }
            )
        # The synthetic aggregate row the executed record will carry,
        # so the plan's point count matches Campaign.size().
        plan.append(
            {
                "epoch": CONTROL_TOTAL_EPOCH,
                "scale": None,
                "total_demand": None,
                "max_link_utilization": max(routed.values()),
            }
        )
        return plan
    if campaign.kind == "table2":
        return [{"ports": ports} for ports in _table2_ports(campaign)]
    # table1: the entry list owned by the characterisation module.
    from repro.gatesim.characterize import TABLE1_ENTRIES

    _table1_params(campaign)
    return [{"entry": entry} for entry in sorted(TABLE1_ENTRIES)]


def _run_network(
    campaign: Campaign,
    session: PowerModel | None,
    figures: DerivedRecordStore | None,
    batch: dict[str, Any],
) -> ComparisonRecord:
    from repro.network.power import NetworkPowerModel

    spec = campaign.network_spec()
    model = NetworkPowerModel(session)
    points = []
    records = []
    failures = []
    for scale in campaign.network_scales():
        scaled = spec if scale == 1.0 else spec.scaled(scale)
        record = model.run(scaled, figures=figures, **batch)
        records.append(record)
        failures.extend(record.failures)
        for row in record.nodes:
            points.append(_network_node_point(scale, row))
        points.append(_network_total_point(scale, record))
    return ComparisonRecord(
        campaign=campaign,
        axes=NETWORK_AXES,
        metrics=NETWORK_METRICS,
        points=points,
        detail=records,
        failures=failures,
    )


def _run_control(
    campaign: Campaign,
    session: PowerModel | None,
    figures: DerivedRecordStore | None,
    batch: dict[str, Any],
) -> ComparisonRecord:
    from repro.control.model import ControlModel

    record = ControlModel(session).run(
        campaign.control_spec(), figures=figures, **batch
    )
    points = [_control_epoch_point(row) for row in record.epochs]
    points.append(_control_total_point(record))
    return ComparisonRecord(
        campaign=campaign,
        axes=CONTROL_AXES,
        metrics=CONTROL_METRICS,
        points=points,
        detail=record,
    )


def _run_grid(
    campaign: Campaign,
    session: PowerModel | None,
    batch: dict[str, Any],
) -> ComparisonRecord:
    """Run the campaign's scenario grid as one batch; ``batch`` goes
    unchanged to :meth:`~repro.api.PowerModel.run_batch`, with a fresh
    ``report`` when none is given, from which the failures are read."""
    if batch.get("report") is None:
        batch = {**batch, "report": BatchReport()}
    report = batch["report"]
    before = len(report.failures)
    if session is None:
        session = default_session()
    records = session.run_batch(campaign.scenarios(), **batch)
    # Failed points (on_failure="record") leave None slots: the record
    # keeps only completed points and carries the failures as explicit
    # holes, so a partial campaign still exports everything it measured.
    return ComparisonRecord(
        campaign=campaign,
        axes=GRID_AXES,
        metrics=GRID_METRICS,
        points=[_grid_point(r) for r in records if r is not None],
        detail=records,
        failures=list(report.failures[before:]),
    )


def _run_surrogate_eval(
    campaign: Campaign,
    session: PowerModel | None,
    batch: dict[str, Any],
) -> ComparisonRecord:
    """Execute the grid, train a surrogate on it, score every point.

    The grid runs through :func:`_run_grid`, exactly like a ``"grid"``
    campaign (cache, retry, journal and fault semantics included).  The
    completed records then train a
    :class:`~repro.surrogate.train.SurrogateModel` with a
    1-in-``holdout_modulus`` held-out slice, and each point reports the
    surrogate's total-power prediction next to the simulated truth —
    ``split="holdout"`` rows are the honest generalisation measure
    (the model never saw them), ``split="train"`` rows exercise the
    exact-match memo (error 0 by construction).
    """
    from repro.surrogate.dataset import context_signature, dataset_from_records
    from repro.surrogate.train import is_holdout_key, train_surrogate

    grid = _run_grid(campaign, session, batch)
    records = grid.detail
    completed = [r for r in records if r is not None]
    params = campaign.params_dict
    modulus = int(params.get("holdout_modulus", 4))
    model = train_surrogate(
        dataset_from_records(completed),
        ridge_lambda=float(params.get("ridge_lambda", 1e-6)),
        holdout_modulus=modulus,
    )
    points = []
    for record in completed:
        scenario = record.scenario
        point = _grid_axis_values(scenario)
        key = scenario.content_hash()
        point["split"] = "holdout" if is_holdout_key(key, modulus) else "train"
        point["throughput"] = record.throughput
        point["total_power_w"] = record.total_power_w
        data = scenario.to_dict()
        load = data["load"]
        if isinstance(load, list):
            values, band, reason = None, None, "per-port load vector"
        else:
            values, band, reason = model.evaluate(
                context_signature(data), float(load), scenario.ports
            )
        if values is None:
            point["surrogate_power_w"] = None
            point["band_w"] = None
            point["abs_error_w"] = None
            point["rel_error"] = None
        else:
            predicted = values["total_power_w"]
            point["surrogate_power_w"] = predicted
            point["band_w"] = band
            point["abs_error_w"] = abs(predicted - record.total_power_w)
            point["rel_error"] = (
                point["abs_error_w"] / record.total_power_w
                if record.total_power_w > 0.0
                else None
            )
        point["ood"] = reason is not None
        points.append(point)
    return ComparisonRecord(
        campaign=campaign,
        axes=SURROGATE_AXES,
        metrics=SURROGATE_METRICS,
        points=points,
        detail={"records": records, "model": model},
        failures=grid.failures,
    )


def _table1_params(campaign: Campaign) -> dict[str, int]:
    """A table1 campaign's ``cycles`` and ``seed``: each an ``int``,
    never a ``bool``."""
    params = dict({"cycles": 192, "seed": 1}, **campaign.params_dict)
    unknown = set(params) - {"cycles", "seed"}
    if unknown:
        raise ConfigurationError(
            f"unknown table1 params: {sorted(unknown)}"
        )
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"table1 param {name!r} must be an integer, got {value!r}"
            )
    return params


def _table2_ports(campaign: Campaign) -> list[int]:
    """A table2 campaign's ``ports`` param: a list of integers, each a
    power of two >= 2 (a banyan's port count)."""
    params = campaign.params_dict
    unknown = set(params) - {"ports"}
    if unknown:
        raise ConfigurationError(
            f"unknown table2 params: {sorted(unknown)}"
        )
    ports = params.get("ports", list(_DEFAULT_TABLE2_PORTS))
    if not isinstance(ports, list):
        raise ConfigurationError(
            f"table2 param 'ports' must be a list of integers, got {ports!r}"
        )
    for count in ports:
        if (isinstance(count, bool) or not isinstance(count, int)
                or count < 2 or count & (count - 1)):
            raise ConfigurationError(
                f"table2 ports must be powers of two >= 2, got {count!r}"
            )
    return ports


def _run_table1(campaign: Campaign) -> ComparisonRecord:
    from repro.gatesim.characterize import regenerate_table1

    result = regenerate_table1(**_table1_params(campaign))
    points = [
        {
            "entry": entry,
            "raw_j": result["raw"][entry],
            "calibrated_j": result["calibrated"][entry],
            "reference_j": result["reference"][entry],
            "scale": result["scale"],
        }
        for entry in sorted(result["raw"])
    ]
    return ComparisonRecord(
        campaign=campaign,
        axes=TABLE1_AXES,
        metrics=TABLE1_METRICS,
        points=points,
        detail=result,
    )


def _run_table2(campaign: Campaign) -> ComparisonRecord:
    from repro.core import tables
    from repro.memmodel import SramMacro
    from repro.units import to_pJ

    points = []
    macros = {}
    for ports in _table2_ports(campaign):
        macro = SramMacro.for_banyan(ports)
        macros[ports] = macro
        paper = tables.BANYAN_BUFFER_ENERGY_BY_PORTS.get(ports)
        points.append(
            {
                "ports": ports,
                "switches": tables.banyan_switch_count(ports),
                "sram_kbit": macro.size_bits // 1024,
                "model_pj_per_bit": to_pJ(macro.access_energy_per_bit_j),
                "paper_pj_per_bit": to_pJ(paper) if paper else None,
            }
        )
    return ComparisonRecord(
        campaign=campaign,
        axes=TABLE2_AXES,
        metrics=TABLE2_METRICS,
        points=points,
        detail=macros,
    )


def run_campaign(
    campaign: Campaign | str,
    session: PowerModel | None = None,
    *,
    figures: DerivedRecordStore | None = None,
    **batch: Any,
) -> ComparisonRecord:
    """Execute a campaign (or preset name) into a comparison record.

    Parameters
    ----------
    campaign:
        A :class:`Campaign` or a built-in preset name (``"fig9"``,
        ``"fig10"``, ``"table1"``, ``"table2"``,
        ``"fat_tree_k4_sweep"``, ...).
    session:
        The :class:`~repro.api.PowerModel` to run grid points through
        (default: the shared session — its cached energy models are
        reused across campaign runs).
    figures:
        Optional :class:`~repro.api.figstore.DerivedRecordStore` of
        whole aggregated records keyed by ``Campaign.content_hash()``.
        On a hit the campaign is served without a session (or any
        scenario execution); on a miss the fresh record is persisted.
        Network campaigns additionally cache every per-scale
        :class:`~repro.network.power.NetworkRecord` keyed by its spec's
        topology+matrix content hash.  A record carrying failures is
        never figure-cached — a later clean run must not be served the
        holes.
    **batch:
        Goes unchanged to :meth:`~repro.api.PowerModel.run_batch` for
        grid, surrogate_eval, network and control campaigns; table
        kinds run no batch and ignore it.  Control campaigns tighten
        ``retry.on_failure`` to ``"raise"``.
    """
    check_batch_options("run_campaign", batch)
    if isinstance(campaign, str):
        from repro.campaigns.presets import get_campaign

        campaign = get_campaign(campaign)
    if figures is not None:
        figure_key = _figure_key(campaign)
        cached = figures.get(figure_key, "comparison")
        if cached is not None:
            return ComparisonRecord.from_dict(cached)
    if campaign.kind == "table1":
        record = _run_table1(campaign)
    elif campaign.kind == "table2":
        record = _run_table2(campaign)
    elif campaign.kind == "network":
        record = _run_network(campaign, session, figures, batch)
    elif campaign.kind == "control":
        record = _run_control(campaign, session, figures, batch)
    elif campaign.kind == "surrogate_eval":
        record = _run_surrogate_eval(campaign, session, batch)
    else:
        record = _run_grid(campaign, session, batch)
    if figures is not None and not record.failures:
        figures.put(figure_key, "comparison", record.to_dict())
    return record


def _figure_key(campaign: Campaign) -> str:
    """The derived-figure store key of a campaign's aggregated record.

    For most kinds this is ``Campaign.content_hash()``.  A network or
    control campaign that references a preset *by name* resolves the
    spec at run time, so the resolved spec content is mixed in —
    editing a preset must miss the figure cache, not serve the pre-edit
    record under an unchanged campaign hash.
    """
    if campaign.kind == "network":
        combined = (
            campaign.content_hash() + campaign.network_spec().content_hash()
        )
        return hashlib.sha256(combined.encode()).hexdigest()
    if campaign.kind == "control":
        combined = (
            campaign.content_hash() + campaign.control_spec().content_hash()
        )
        return hashlib.sha256(combined.encode()).hexdigest()
    return campaign.content_hash()
