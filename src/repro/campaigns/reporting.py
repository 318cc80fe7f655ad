"""Human-readable campaign reports (``repro campaign report``).

Renders a :class:`~repro.campaigns.comparison.ComparisonRecord` the way
the paper presents it: Fig. 9-style load x architecture power tables
per port count, the Fig. 10 read-off at the target throughput (with the
paper's fully-connected vs Batcher-Banyan gap), analytical-vs-simulated
delta tables for dual-backend campaigns, and the Table 1/Table 2
layouts.  Everything routes through
:func:`repro.analysis.report.format_table`, so campaign reports look
like the benches' regenerated tables.
"""

from __future__ import annotations

import statistics

from repro.analysis.report import format_comparison, format_table
from repro.units import to_fJ, to_mW

from repro.campaigns.comparison import ComparisonRecord


def _grid_sections(record: ComparisonRecord) -> list[str]:
    sections = []
    campaign = record.campaign
    for backend in record.axis_values("backend"):
        for traffic in record.axis_values("traffic"):
            for tech in record.axis_values("tech"):
                for ports in record.axis_values("ports"):
                    where = {
                        "backend": backend,
                        "traffic": traffic,
                        "tech": tech,
                        "ports": ports,
                    }
                    pivot = record.pivot(
                        "load", "architecture", "total_power_w", where=where
                    )
                    archs = record.axis_values("architecture")
                    rows = [
                        [str(load)]
                        + [f"{to_mW(pivot[load][a]):.4f}" for a in archs]
                        for load in pivot
                    ]
                    sections.append(
                        format_table(
                            ["load"] + [f"{a} mW" for a in archs],
                            rows,
                            title=(
                                f"{campaign.name} [{backend}/{traffic}/"
                                f"{tech}] {ports}x{ports} — total power "
                                "vs load"
                            ),
                        )
                    )
    target = campaign.params_dict.get("target_throughput")
    if target is not None:
        interp = record.interpolated_power(target)
        archs = record.axis_values("architecture")
        ports_values = record.axis_values("ports")
        # One read-off table per (backend, traffic, tech) group — never
        # collapse distinct backends onto one (architecture, ports) cell.
        for backend in record.axis_values("backend"):
            for traffic in record.axis_values("traffic"):
                for tech in record.axis_values("tech"):
                    by_key = {
                        (r["architecture"], r["ports"]): r
                        for r in interp
                        if r["backend"] == backend
                        and r["traffic"] == traffic
                        and r["tech"] == tech
                    }
                    if not by_key:
                        continue
                    rows = []
                    for ports in ports_values:
                        row = [f"{ports}x{ports}"]
                        for arch in archs:
                            r = by_key[(arch, ports)]
                            mark = "*" if r["saturated"] else ""
                            row.append(f"{to_mW(r['power_w']):.4f}{mark}")
                        rows.append(row)
                    sections.append(
                        format_table(
                            ["size"] + [f"{a} mW" for a in archs],
                            rows,
                            title=(
                                f"[{backend}/{traffic}/{tech}] power at "
                                f"{target:.0%} egress throughput "
                                "(* = saturated below target)"
                            ),
                        )
                    )
                    if {"fully_connected", "batcher_banyan"} <= set(archs):
                        for ports in ports_values:
                            fc = by_key[("fully_connected", ports)]["power_w"]
                            bb = by_key[("batcher_banyan", ports)]["power_w"]
                            if bb:
                                sections.append(
                                    f"[{backend}] FC-vs-BB gap at "
                                    f"{ports}x{ports}: {(bb - fc) / bb:.1%}"
                                )
    deltas = record.backend_deltas()
    if deltas:
        rows = [
            [
                d["architecture"],
                d["ports"],
                str(d["load"]),
                f"{to_mW(d['simulated']):.4f}",
                f"{to_mW(d['estimated']):.4f}",
                f"{d['rel_delta']:+.1%}",
            ]
            for d in deltas
        ]
        sections.append(
            format_table(
                ["arch", "ports", "load", "simulated mW", "analytical mW",
                 "delta"],
                rows,
                title="simulated vs closed-form total power",
            )
        )
    return sections


def _table1_sections(record: ComparisonRecord) -> list[str]:
    rows = []
    for p in record.points:
        rows.append(
            [
                p["entry"],
                f"{to_fJ(p['raw_j']):.0f}",
                f"{to_fJ(p['calibrated_j']):.0f}",
                f"{to_fJ(p['reference_j']):.0f}",
                f"{p['calibrated_j'] / p['reference_j']:.2f}"
                if p["reference_j"]
                else "-",
            ]
        )
    scale = record.points[0]["scale"] if record.points else float("nan")
    return [
        format_table(
            ["entry", "raw fJ", "calibrated fJ", "paper fJ", "ratio"],
            rows,
            title=f"Table 1 — bit energy (calibration scale {scale:.2f})",
        )
    ]


def _table2_sections(record: ComparisonRecord) -> list[str]:
    rows = []
    comparisons = []
    for p in record.points:
        paper = p["paper_pj_per_bit"]
        rows.append(
            [
                f"{p['ports']}x{p['ports']}",
                p["switches"],
                p["sram_kbit"],
                f"{p['model_pj_per_bit']:.1f}",
                f"{paper:.0f}" if paper else "-",
            ]
        )
        if paper:
            comparisons.append(
                format_comparison(
                    f"Table 2 {p['ports']}x{p['ports']}",
                    paper,
                    p["model_pj_per_bit"],
                    unit="pJ/bit",
                )
            )
    return [
        format_table(
            ["In/Out", "switches", "shared SRAM (Kbit)", "model pJ",
             "paper pJ"],
            rows,
            title="Table 2 — buffer bit energy of N x N Banyan network",
        )
    ] + comparisons


def _network_sections(record: ComparisonRecord) -> list[str]:
    from repro.campaigns.runner import NETWORK_TOTAL_NODE

    sections = []
    for scale in record.axis_values("scale"):
        rows = []
        total_row = None
        for p in record.select(scale=scale):
            cells = [
                p["node"],
                p["architecture"] or "-",
                f"{p['powered_ports']}/{p['ports']}",
                f"{p['mean_load']:.3f}",
                f"{p['throughput']:.3f}" if p["throughput"] is not None
                else "-",
                f"{to_mW(p['fabric_power_w']):.4f}",
                f"{to_mW(p['port_power_w']):.4f}",
                f"{to_mW(p['power_w']):.4f}",
            ]
            rows.append(cells)
            if p["node"] == NETWORK_TOTAL_NODE:
                total_row = p
        title = f"demand scale {scale:g} — per-router power"
        sections.append(
            format_table(
                ["node", "arch", "ports", "load", "throughput",
                 "fabric mW", "ports mW", "total mW"],
                rows,
                title=title,
            )
        )
        if total_row is not None and total_row["switch_off_delta_w"]:
            sections.append(
                f"scale {scale:g}: switch-off saved "
                f"{to_mW(total_row['switch_off_delta_w']):.4f} mW "
                f"({total_row['powered_ports']}/{total_row['ports']} "
                "ports powered)"
            )
    return sections


def _control_sections(record: ComparisonRecord) -> list[str]:
    from repro.campaigns.runner import CONTROL_TOTAL_EPOCH

    sections = []
    rows = []
    total_row = None
    for p in record.points:
        if p["epoch"] == CONTROL_TOTAL_EPOCH:
            total_row = p
            continue
        rows.append(
            [
                str(p["epoch"]),
                f"{p['scale']:.3f}",
                p["config"] or "-",
                str(p["links_up"]),
                str(p["links_asleep"]),
                f"{p['max_link_utilization']:.1%}",
                f"{to_mW(p['power_w']):.4f}",
                f"{to_mW(p['fixed_power_w']):.4f}",
                f"{to_mW(p['savings_w']):.4f}",
            ]
        )
    sections.append(
        format_table(
            ["epoch", "scale", "config", "links up", "asleep", "max util",
             "power mW", "fixed mW", "saved mW"],
            rows,
            title="per-epoch control-plane power",
        )
    )
    if total_row is not None:
        sections.append(
            f"series mean: {to_mW(total_row['power_w']):.4f} mW vs fixed "
            f"{to_mW(total_row['fixed_power_w']):.4f} mW "
            f"(saved {to_mW(total_row['savings_w']):.4f} mW, mean links up "
            f"{total_row['links_up']:.2f})"
        )
    return sections


def _surrogate_sections(record: ComparisonRecord) -> list[str]:
    sections = []
    rows = []
    holdout_errors = []
    ood_count = 0
    for p in record.points:
        if p["ood"]:
            ood_count += 1
        if (
            p["split"] == "holdout"
            and not p["ood"]
            and p["rel_error"] is not None
        ):
            holdout_errors.append(p["rel_error"])
            rows.append(
                [
                    p["architecture"],
                    f"{p['ports']}x{p['ports']}",
                    str(p["load"]),
                    f"{to_mW(p['total_power_w']):.4f}",
                    f"{to_mW(p['surrogate_power_w']):.4f}",
                    f"{to_mW(p['band_w']):.4f}",
                    f"{p['rel_error']:.2%}",
                ]
            )
    sections.append(
        format_table(
            ["arch", "size", "load", "simulated mW", "surrogate mW",
             "band mW", "rel error"],
            rows,
            title="held-out points — surrogate vs simulation",
        )
    )
    train_points = sum(1 for p in record.points if p["split"] == "train")
    summary = (
        f"{len(record.points)} points ({train_points} train, "
        f"{len(record.points) - train_points} holdout), "
        f"{ood_count} out-of-distribution"
    )
    if holdout_errors:
        summary += (
            f"; in-distribution holdout rel error: median "
            f"{statistics.median(holdout_errors):.2%}, "
            f"max {max(holdout_errors):.2%}"
        )
    sections.append(summary)
    return sections


def render_report(record: ComparisonRecord) -> str:
    """The full paper-style text report of one executed campaign."""
    campaign = record.campaign
    header = f"campaign {campaign.name}: {campaign.title}" if (
        campaign.title
    ) else f"campaign {campaign.name}"
    if campaign.kind == "table1":
        sections = _table1_sections(record)
    elif campaign.kind == "table2":
        sections = _table2_sections(record)
    elif campaign.kind == "network":
        sections = _network_sections(record)
    elif campaign.kind == "control":
        sections = _control_sections(record)
    elif campaign.kind == "surrogate_eval":
        sections = _surrogate_sections(record)
    else:
        sections = _grid_sections(record)
    return "\n\n".join([header] + sections)
