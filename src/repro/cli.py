"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``estimate``   closed-form power estimate (Eq. 3-6 + Tables 1-2).
``simulate``   bit-accurate simulation of one operating point.
``sweep``      Fig. 9-style throughput sweep for one architecture.
``batch``      run a JSON file of scenarios (mixed backends) in parallel.
``campaign``   run/list/report declarative paper-reproduction campaigns.
``network``    run/list/report network-level aggregate power specs.
``control``    run/list/report energy-aware control-plane series.
``surrogate``  train/evaluate the instant what-if surrogate model.
``serve``      async HTTP what-if power API over a trained surrogate.
``table1``     regenerate Table 1 via gate-level characterisation.
``table2``     regenerate Table 2 via the SRAM model.

``estimate``/``simulate``/``sweep`` are thin wrappers over the
:mod:`repro.api` session layer; ``batch`` is its native front end,
``campaign`` fronts :mod:`repro.campaigns` (whole figures/tables as one
cached, parallel batch — see ``docs/REPRODUCING.md``), ``network``
fronts :mod:`repro.network` (topology + traffic matrix + routing →
aggregate router power), ``control`` fronts :mod:`repro.control`
(demand over time + green routing + link power states → power vs time
and savings vs SLA), and ``surrogate``/``serve`` front
:mod:`repro.surrogate` (calibrate a polynomial surrogate from a JSONL
result cache, check it for drift, serve instant what-if queries over
HTTP with a transparent simulation fallback).  All commands share one
:class:`~repro.wire_modes.WireMode` vocabulary for ``--wire-mode``
(``worst_case``/``expected``/``per_link``), translated per backend.

Examples
--------
::

    python -m repro estimate --arch banyan --ports 32 --throughput 0.3
    python -m repro simulate --arch crossbar --ports 16 --load 0.4 --slots 2000
    python -m repro sweep --arch batcher_banyan --ports 8
    python -m repro batch examples/scenarios.json --workers 4
    python -m repro campaign run fig9 --cache records.jsonl --csv fig9.csv
    python -m repro campaign run fig9 --retries 2 --timeout 120 \\
        --journal fig9_journal.jsonl --resume
    python -m repro campaign report table2
    python -m repro network run fat_tree_k4 --workers 4
    python -m repro network report dumbbell_switchoff
    python -m repro control run fat_tree_diurnal --workers 4
    python -m repro control report dumbbell_sleep_sweep
    python -m repro surrogate train records.jsonl --output model.json
    python -m repro surrogate eval model.json records.jsonl
    python -m repro serve model.json --port 8642 --cache records.jsonl
    python -m repro table2
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.report import format_table
from repro.core import tables
from repro.errors import ConfigurationError, ReproError
from repro.fabrics.registry import registered_architectures
from repro.tech.presets import PRESETS as TECH_PRESETS
from repro.units import to_mW, to_pJ
from repro.wire_modes import WireMode

#: All unified wire-mode spellings, for argparse choices.
WIRE_MODE_CHOICES = tuple(m.value for m in WireMode)


def _add_engine(parser: argparse.ArgumentParser) -> None:
    from repro.sim.engine import ENGINES

    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="vectorized",
        help="slot-loop implementation (bit-identical seeded results; "
        "'vectorized' is several times faster)",
    )


def _add_resilience(parser: argparse.ArgumentParser) -> None:
    """Supervised-execution flags shared by batch|campaign|network|control."""
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry each failing execution unit up to N more times "
        "(exponential backoff, deterministic jitter); exhausted units "
        "become explicit holes in the record instead of aborting the "
        "run.  Results are bit-identical with or without retries",
    )
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock budget; a unit past its deadline is "
        "abandoned (thread pool) or its pool killed and respawned "
        "(process pool) and the attempt counts as a failure",
    )
    group.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="JSONL checkpoint journal: every unit outcome is flushed "
        "to disk as it lands, so a killed run loses only unfinished "
        "units",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="replay completed units from --journal without executing "
        "them; only failed/missing units re-run (exports stay "
        "byte-identical to an uninterrupted run)",
    )
    group.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="JSON FaultPlan of scripted failures (worker crashes, "
        "hangs, transient errors) to inject — for testing the "
        "recovery paths and the chaos CI job",
    )


def _add_execution(
    parser: argparse.ArgumentParser, figures: bool = True
) -> None:
    """Pool, cache and resilience flags shared by
    batch|campaign|network|control."""
    parser.add_argument(
        "--workers", type=int, default=1, help="worker-pool width"
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="worker pool kind: threads (shared caches) or processes "
        "(CPU-bound fan-out across cores)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="JSONL result cache keyed by scenario content hash; "
        "already-measured scenarios are served from it (a warm cache "
        "runs no new simulations) and fresh results appended",
    )
    if figures:
        parser.add_argument(
            "--figures",
            default=None,
            metavar="PATH",
            help="JSONL derived-figure cache keyed by the spec's content "
            "hash; a warm figure cache serves the whole record without "
            "running (or even constructing) a session",
        )
    _add_resilience(parser)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arch",
        default="crossbar",
        help="architecture: one of "
        f"{', '.join(registered_architectures())} (aliases and custom "
        "registry entries accepted)",
    )
    parser.add_argument("--ports", type=int, default=16, help="port count")
    parser.add_argument(
        "--tech",
        default="0.18um",
        choices=sorted(TECH_PRESETS),
        help="technology node preset",
    )
    parser.add_argument(
        "--wire-mode",
        choices=WIRE_MODE_CHOICES,
        default="worst_case",
        help="wire-length accounting (expected/per_link are the "
        "average-path accounting, translated per backend)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Switch-fabric power analysis (Ye/Benini/De Micheli, DAC 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="closed-form power estimate")
    _add_common(est)
    est.add_argument("--throughput", type=float, default=0.3)

    sim = sub.add_parser("simulate", help="bit-accurate simulation")
    _add_common(sim)
    sim.add_argument("--load", type=float, default=0.3, help="offered load")
    sim.add_argument("--slots", type=int, default=1000, help="arrival slots")
    sim.add_argument("--warmup", type=int, default=200)
    sim.add_argument("--seed", type=int, default=12345)
    sim.add_argument(
        "--queueing",
        choices=("fifo", "voq"),
        default="fifo",
        help="input discipline: the paper's FIFO queues or "
        "VOQ + iSLIP matching",
    )
    sim.add_argument(
        "--islip-iterations",
        type=int,
        default=1,
        metavar="K",
        help="iSLIP iterations per slot (with --queueing voq)",
    )
    _add_engine(sim)

    sweep = sub.add_parser("sweep", help="throughput sweep (Fig. 9 style)")
    _add_common(sweep)
    sweep.add_argument("--slots", type=int, default=600)
    sweep.add_argument("--seed", type=int, default=12345)
    sweep.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=[0.1, 0.2, 0.3, 0.4, 0.5],
    )
    _add_engine(sweep)

    batch = sub.add_parser(
        "batch", help="run a scenarios JSON file through the batch API"
    )
    batch.add_argument(
        "scenarios",
        help='JSON file: an array of scenario objects (or {"scenarios": [...]})',
    )
    batch.add_argument(
        "--rng-stream",
        type=int,
        choices=(1, 2),
        default=None,
        help="override every scenario's RNG-consumption contract: "
        "1 = slot-at-a-time (bit-stable with old seeds), 2 = chunked "
        "pregeneration (faster long runs).  The version is part of the "
        "scenario content hash, so cached v1/v2 results never mix",
    )
    batch.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="json",
        help="report format written to stdout (or --output)",
    )
    batch.add_argument(
        "--output",
        default=None,
        help="write the report to this file instead of stdout "
        "(a one-line summary still prints)",
    )
    _add_execution(batch, figures=False)

    campaign = sub.add_parser(
        "campaign",
        help="declarative paper-reproduction campaigns (figures/tables)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def _add_campaign_exec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "name",
            help="built-in preset (repro campaign list) or a campaign "
            "JSON file",
        )
        _add_execution(p)

    run_p = campaign_sub.add_parser(
        "run", help="execute a campaign into a ComparisonRecord"
    )
    _add_campaign_exec(run_p)
    run_p.add_argument(
        "--format",
        choices=("table", "csv", "json", "markdown"),
        default="table",
        help="report format written to stdout (or --output)",
    )
    run_p.add_argument(
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    run_p.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        dest="csv_path",
        help="additionally export the record as CSV to this file",
    )
    run_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="additionally export the record as JSON to this file",
    )
    run_p.add_argument(
        "--dry-run",
        action="store_true",
        help="validate the campaign and print its point plan without "
        "executing anything",
    )

    campaign_sub.add_parser(
        "list", help="list the built-in campaign presets"
    )

    report_p = campaign_sub.add_parser(
        "report",
        help="execute (cache-aware) and print the paper-style report",
    )
    _add_campaign_exec(report_p)

    network = sub.add_parser(
        "network",
        help="network-level aggregate power (topology + traffic matrix)",
    )
    network_sub = network.add_subparsers(dest="network_command",
                                         required=True)

    def _add_network_exec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "name",
            help="built-in network preset (repro network list) or a "
            "NetworkSpec JSON file",
        )
        p.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="multiply every demand of the traffic matrix",
        )
        p.add_argument(
            "--shards",
            type=int,
            default=None,
            metavar="N",
            help="partition the per-router scenario grid into N "
            "contiguous node-order shards, each run as its own batch "
            "and folded into the record incrementally — bounded peak "
            "memory, byte-identical exports",
        )
        p.add_argument(
            "--detail",
            choices=("none", "summary", "full"),
            default="full",
            help="what the in-memory record retains after aggregation: "
            "per-router RunRecords + routing (full, default), routing "
            "only (summary), or nothing (none); exports are unaffected",
        )
        _add_execution(p)

    net_run = network_sub.add_parser(
        "run", help="execute a network spec into a NetworkRecord"
    )
    _add_network_exec(net_run)
    net_run.add_argument(
        "--format",
        choices=("table", "csv", "json", "markdown"),
        default="table",
        help="report format written to stdout (or --output)",
    )
    net_run.add_argument(
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    net_run.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        dest="csv_path",
        help="additionally export the per-node record as CSV",
    )
    net_run.add_argument(
        "--links-csv",
        default=None,
        metavar="PATH",
        dest="links_csv_path",
        help="additionally export the per-link record as CSV",
    )
    net_run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="additionally export the record as JSON",
    )
    net_run.add_argument(
        "--dry-run",
        action="store_true",
        help="route the matrix and print the derived per-router plan "
        "without simulating anything",
    )

    network_sub.add_parser(
        "list", help="list the built-in network presets"
    )

    net_report = network_sub.add_parser(
        "report",
        help="execute (cache-aware) and print the network power report",
    )
    _add_network_exec(net_report)

    control = sub.add_parser(
        "control",
        help="energy-aware control plane (demand series + green routing "
        "+ link power states)",
    )
    control_sub = control.add_subparsers(dest="control_command",
                                         required=True)

    def _add_control_exec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "name",
            help="built-in control preset (repro control list) or a "
            "ControlSpec JSON file",
        )
        _add_execution(p)

    ctl_run = control_sub.add_parser(
        "run", help="execute a control spec into a ControlRecord"
    )
    _add_control_exec(ctl_run)
    ctl_run.add_argument(
        "--format",
        choices=("table", "csv", "json", "markdown"),
        default="table",
        help="report format written to stdout (or --output)",
    )
    ctl_run.add_argument(
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    ctl_run.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        dest="csv_path",
        help="additionally export the per-epoch record as CSV",
    )
    ctl_run.add_argument(
        "--sla-csv",
        default=None,
        metavar="PATH",
        dest="sla_csv_path",
        help="additionally export the savings-vs-SLA curve as CSV",
    )
    ctl_run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="additionally export the record as JSON",
    )
    ctl_run.add_argument(
        "--dry-run",
        action="store_true",
        help="route every epoch and print the per-epoch demand plan "
        "without simulating anything",
    )

    control_sub.add_parser(
        "list", help="list the built-in control presets"
    )

    ctl_report = control_sub.add_parser(
        "report",
        help="execute (cache-aware) and print the control-plane report",
    )
    _add_control_exec(ctl_report)

    surrogate = sub.add_parser(
        "surrogate",
        help="train/evaluate the instant what-if surrogate model",
    )
    surrogate_sub = surrogate.add_subparsers(dest="surrogate_command",
                                             required=True)

    train_p = surrogate_sub.add_parser(
        "train",
        help="calibrate a surrogate from a JSONL run-record cache",
    )
    train_p.add_argument(
        "store",
        help="JSONL result cache written by batch/campaign --cache "
        "(the calibration corpus)",
    )
    train_p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the trained model JSON here (default: print its "
        "stats only)",
    )
    train_p.add_argument(
        "--ridge-lambda",
        type=float,
        default=1e-6,
        metavar="X",
        help="ridge regularisation strength for the per-curve "
        "polynomial fits",
    )
    train_p.add_argument(
        "--holdout-modulus",
        type=int,
        default=4,
        metavar="N",
        help="hold out every record whose content-hash prefix is "
        "0 mod N (the drift-detection slice; N >= 2)",
    )

    eval_p = surrogate_sub.add_parser(
        "eval",
        help="score a trained model against a store (drift check)",
    )
    eval_p.add_argument("model", help="trained surrogate model JSON")
    eval_p.add_argument(
        "store",
        help="JSONL result cache to replay the held-out slice against",
    )
    eval_p.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        metavar="T",
        help="median relative error above which the model counts as "
        "drifted",
    )
    eval_p.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="exit 3 when the model drifted or the store hash moved "
        "(for CI gates)",
    )

    serve = sub.add_parser(
        "serve",
        help="async HTTP what-if power API over a trained surrogate",
    )
    serve.add_argument("model", help="trained surrogate model JSON")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (0 picks a free one; the bound port prints to "
        "stderr)",
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="JSONL result cache backing out-of-distribution fallback "
        "simulations (served from and appended to)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append-only JSONL request journal (one line per request)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failing fallback simulation up to N more times "
        "before degrading that request to a JSON 500",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-fallback-simulation wall-clock budget",
    )
    serve.add_argument(
        "--drift-tolerance",
        type=float,
        default=0.05,
        metavar="T",
        help="relative model-vs-fallback disagreement above which the "
        "online drift counter increments",
    )

    t1 = sub.add_parser("table1", help="regenerate Table 1 (gate level)")
    t1.add_argument("--cycles", type=int, default=192)

    sub.add_parser("table2", help="regenerate Table 2 (SRAM model)")
    return parser


def cmd_estimate(args) -> int:
    from repro.api import Scenario, default_session

    scenario = Scenario(
        architecture=args.arch,
        ports=args.ports,
        load=args.throughput,
        backend="estimate",
        tech=args.tech,
        wire_mode=args.wire_mode,
    )
    est = default_session().estimate(scenario).detail
    print(f"{est.architecture} {est.ports}x{est.ports} "
          f"@ {est.throughput:.0%} throughput")
    print(f"  E_bit   : {to_pJ(est.bit_energy_j):.2f} pJ/bit "
          f"(switch {to_pJ(est.switch_energy_j):.2f}, "
          f"wire {to_pJ(est.wire_energy_j):.2f}, "
          f"buffer {to_pJ(est.buffer_energy_j):.2f})")
    print(f"  power   : {to_mW(est.total_power_w):.3f} mW")
    print(f"  dominant: {est.dominant_component}")
    return 0


def cmd_simulate(args) -> int:
    from repro.api import Scenario, default_session

    scenario = Scenario(
        architecture=args.arch,
        ports=args.ports,
        load=args.load,
        backend="simulate",
        engine=args.engine,
        queueing=args.queueing,
        islip_iterations=args.islip_iterations,
        tech=args.tech,
        wire_mode=args.wire_mode,
        arrival_slots=args.slots,
        warmup_slots=args.warmup,
        seed=args.seed,
    )
    result = default_session().simulate(scenario).detail
    print(result.summary())
    return 0


def cmd_sweep(args) -> int:
    from repro.analysis.sweeps import throughput_sweep
    from repro.tech.presets import get_technology

    sweep = throughput_sweep(
        args.arch,
        args.ports,
        loads=args.loads,
        arrival_slots=args.slots,
        warmup_slots=args.slots // 5,
        seed=args.seed,
        tech=get_technology(args.tech),
        wire_mode=WireMode.parse(args.wire_mode).simulated,
        engine=args.engine,
    )
    rows = [
        [f"{p.offered_load:.2f}", f"{p.throughput:.3f}",
         f"{to_mW(p.total_power_w):.4f}",
         f"{to_mW(p.switch_power_w):.4f}",
         f"{to_mW(p.wire_power_w):.4f}",
         f"{to_mW(p.buffer_power_w):.4f}"]
        for p in sweep.points
    ]
    print(
        format_table(
            ["offered", "throughput", "total mW", "switch", "wire", "buffer"],
            rows,
            title=f"{sweep.architecture} {args.ports}x{args.ports}",
        )
    )
    return 0


def cmd_batch(args) -> int:
    from pathlib import Path

    from repro.api import (
        default_session,
        load_scenarios,
        records_to_csv,
        records_to_json,
        summary_rows,
    )

    try:
        text = Path(args.scenarios).read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read scenario file {args.scenarios!r}: {exc}"
        ) from exc
    scenarios = load_scenarios(text)
    if args.rng_stream is not None:
        scenarios = [
            s.replace(rng_stream=args.rng_stream) for s in scenarios
        ]
    store = _cache_store(args)
    resilience = _resilience_kwargs(args, _batch_key(scenarios))
    records = default_session().run_batch(
        scenarios,
        workers=args.workers,
        executor=args.executor,
        store=store,
        **resilience,
    )
    # With --retries, exhausted units are recorded holes (None): the
    # report covers the completed scenarios, the failures print below.
    records = [r for r in records if r is not None]
    _campaign_cache_stats(args, store)
    _resilience_summary(args, resilience)

    if args.format == "json":
        report = records_to_json(records)
    elif args.format == "csv":
        report = records_to_csv(records)
    else:
        report = format_table(
            ["scenario", "backend", "throughput", "total mW", "pJ/bit", "s"],
            summary_rows(records),
            title=f"batch: {len(records)} scenarios",
        )
    if args.output:
        Path(args.output).write_text(report + "\n")
        print(f"{len(records)} scenarios -> {args.output}")
    else:
        print(report)
    return 0


def _resolve_campaign(name: str):
    """A preset name or a campaign JSON file path -> :class:`Campaign`."""
    from pathlib import Path

    from repro.campaigns import Campaign, PRESET_CAMPAIGNS, get_campaign

    if name in PRESET_CAMPAIGNS:
        return get_campaign(name)
    path = Path(name)
    if path.exists():
        return Campaign.from_json(path.read_text())
    if name.endswith(".json"):
        raise ConfigurationError(f"cannot read campaign file {name!r}")
    return get_campaign(name)  # raises with the known-presets list


def _campaign_store(args, campaign):
    """A RunRecordStore for scenario-running campaigns
    (grid/network/control); table kinds do not run scenarios, so
    batch-only flags are called out instead of silently ignored (and no
    misleading cache stats get printed)."""
    if campaign.kind not in ("grid", "network", "control",
                             "surrogate_eval"):
        ignored = [
            flag
            for flag, given in (
                ("--cache", args.cache),
                ("--workers", args.workers > 1),
                ("--executor", args.executor != "thread"),
                ("--retries", args.retries is not None),
                ("--timeout", args.timeout is not None),
                ("--journal", args.journal),
                ("--resume", args.resume),
                ("--fault-plan", args.fault_plan),
            )
            if given
        ]
        if ignored:
            print(
                f"note: {campaign.kind!r} campaigns run no scenario "
                f"batch; ignoring {', '.join(ignored)}",
                file=sys.stderr,
            )
        return None
    return _cache_store(args)


def _cache_store(args):
    """The ``--cache`` RunRecordStore, or ``None`` without the flag."""
    if not args.cache:
        return None
    from repro.api.store import RunRecordStore

    return RunRecordStore(args.cache)


def _campaign_cache_stats(args, store) -> None:
    if store is not None:
        stats = store.stats()
        line = (
            f"cache {args.cache}: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['entries']} entries"
        )
        # Damage is loud: corrupt lines degrade to misses but are
        # counted and quarantined, never silently dropped.
        if stats.get("skipped_lines"):
            line += (
                f", {stats['skipped_lines']} skipped, "
                f"{stats['quarantined']} quarantined"
            )
        print(line, file=sys.stderr)


def _figure_store(args):
    if not getattr(args, "figures", None):
        return None
    from repro.api.figstore import DerivedRecordStore

    return DerivedRecordStore(args.figures)


def _figure_store_stats(args, figures) -> None:
    if figures is not None:
        stats = figures.stats()
        line = (
            f"figures {args.figures}: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['entries']} entries"
        )
        if stats.get("skipped_lines"):
            line += (
                f", {stats['skipped_lines']} skipped, "
                f"{stats['quarantined']} quarantined"
            )
        print(line, file=sys.stderr)


def _batch_key(scenarios) -> str:
    """A stable journal key for an ad-hoc scenario list: unlike
    campaigns/specs there is no declarative object to hash, so the key
    is derived from the ordered scenario content hashes."""
    import hashlib

    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(scenario.content_hash().encode())
        digest.update(b"\n")
    return "batch-" + digest.hexdigest()[:16]


def _resilience_kwargs(args, journal_key: str) -> dict:
    """``retry``/``journal``/``faults``/``report`` call kwargs from the
    shared resilience flags (empty dict when none are given).

    ``--retries``/``--timeout`` build a :class:`RetryPolicy` with
    ``on_failure="record"`` — from the CLI a failed unit should become
    an explicit hole in the exported record, not a dead run.  (The
    control command tightens this back to ``"raise"`` internally, since
    savings need complete epochs.)
    """
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "timeout", None)
    journal_path = getattr(args, "journal", None)
    resume = getattr(args, "resume", False)
    fault_path = getattr(args, "fault_plan", None)
    if resume and not journal_path:
        raise ConfigurationError("--resume needs --journal PATH")
    kwargs: dict = {}
    if retries is not None or timeout is not None:
        if retries is not None and retries < 0:
            raise ConfigurationError("--retries must be >= 0")
        from repro.resilience import RetryPolicy

        kwargs["retry"] = RetryPolicy(
            max_attempts=(retries or 0) + 1,
            timeout_s=timeout,
            on_failure="record",
        )
    if journal_path:
        from repro.resilience import CampaignJournal

        kwargs["journal"] = CampaignJournal(
            journal_path, journal_key, replay=resume
        )
    if fault_path:
        from pathlib import Path

        from repro.resilience import FaultPlan

        try:
            text = Path(fault_path).read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault plan {fault_path!r}: {exc}"
            ) from exc
        kwargs["faults"] = FaultPlan.from_json(text)
    if kwargs:
        from repro.resilience import BatchReport

        kwargs["report"] = BatchReport()
    return kwargs


def _resilience_summary(args, kwargs: dict) -> None:
    """Print the resilience tally and journal state to stderr (only
    when something beyond plain first-attempt success happened)."""
    report = kwargs.get("report")
    if report is not None and report.eventful:
        print(report.summary(), file=sys.stderr)
        for failure in report.failures:
            print(
                f"  failed {failure.label}: {failure.error_type}: "
                f"{failure.message} ({failure.attempts} attempts, "
                f"stage {failure.stage})",
                file=sys.stderr,
            )
    journal = kwargs.get("journal")
    if journal is not None:
        stats = journal.stats()
        print(
            f"journal {args.journal}: {stats['done']} done, "
            f"{stats['failed']} failed, {stats['skipped_lines']} skipped",
            file=sys.stderr,
        )


def cmd_campaign(args) -> int:
    from pathlib import Path

    from repro.campaigns import (
        campaign_names,
        campaign_plan,
        get_campaign,
        render_report,
        run_campaign,
    )

    if args.campaign_command == "list":
        rows = []
        for name in campaign_names():
            preset = get_campaign(name)
            rows.append([name, preset.kind, preset.size(), preset.title])
        print(
            format_table(
                ["name", "kind", "points", "title"],
                rows,
                title="built-in campaign presets",
            )
        )
        return 0

    campaign = _resolve_campaign(args.name)

    scenario_kind = campaign.kind in ("grid", "network", "control",
                                      "surrogate_eval")

    if args.campaign_command == "run" and args.dry_run:
        plan = campaign_plan(campaign)
        print(
            f"campaign {campaign.name} ({campaign.kind}): "
            f"{len(plan)} points"
        )
        for point in plan:
            print("  " + ", ".join(f"{k}={v}" for k, v in point.items()))
        return 0
    store = _campaign_store(args, campaign)
    figures = _figure_store(args)
    resilience = (
        _resilience_kwargs(args, campaign.content_hash())
        if scenario_kind
        else {}
    )
    record = run_campaign(
        campaign,
        workers=args.workers,
        executor=args.executor,
        store=store,
        figures=figures,
        **resilience,
    )
    _campaign_cache_stats(args, store)
    _figure_store_stats(args, figures)
    _resilience_summary(args, resilience)
    if args.campaign_command == "report":
        print(render_report(record))
        return 0
    if args.csv_path:
        Path(args.csv_path).write_text(record.to_csv())
        print(f"{len(record.points)} points -> {args.csv_path}",
              file=sys.stderr)
    if args.json_path:
        Path(args.json_path).write_text(record.to_json() + "\n")
        print(f"{len(record.points)} points -> {args.json_path}",
              file=sys.stderr)
    if args.format == "csv":
        report = record.to_csv()
    elif args.format == "json":
        report = record.to_json()
    elif args.format == "markdown":
        report = record.to_markdown()
    else:
        rows = [
            [_cell(point.get(col)) for col in record.columns]
            for point in record.points
        ]
        report = format_table(
            list(record.columns),
            rows,
            title=f"campaign {campaign.name}: {len(record.points)} points",
        )
    if args.output:
        Path(args.output).write_text(
            report if report.endswith("\n") else report + "\n"
        )
        print(f"campaign {campaign.name} -> {args.output}")
    else:
        # CSV already ends with a newline; don't add a second one, so
        # stdout and --csv/--output files stay byte-identical.
        print(report, end="" if report.endswith("\n") else "\n")
    return 0


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _resolve_network(name: str):
    """A preset name or a NetworkSpec JSON file -> :class:`NetworkSpec`."""
    from pathlib import Path

    from repro.network import NETWORK_PRESETS, NetworkSpec, get_network

    if name in NETWORK_PRESETS:
        return get_network(name)
    path = Path(name)
    if path.exists():
        return NetworkSpec.from_json(path.read_text())
    if name.endswith(".json"):
        raise ConfigurationError(f"cannot read network spec file {name!r}")
    return get_network(name)  # raises with the known-presets list


def cmd_network(args) -> int:
    from pathlib import Path

    from repro.network import (
        NetworkPowerModel,
        get_network,
        network_names,
        render_network_report,
    )

    if args.network_command == "list":
        rows = []
        for name in network_names():
            spec = get_network(name)
            rows.append(
                [
                    name,
                    len(spec.topology.nodes),
                    len(spec.topology.links),
                    spec.routing,
                    1,  # a bare network spec is a single-epoch series
                    "on" if spec.switch_off else "off",
                    f"{spec.matrix.total():.3f}",
                ]
            )
        print(
            format_table(
                ["name", "nodes", "links", "routing", "epochs",
                 "switch-off", "demand"],
                rows,
                title="built-in network presets",
            )
        )
        return 0

    spec = _resolve_network(args.name)
    if args.scale != 1.0:
        spec = spec.scaled(args.scale)
    model = NetworkPowerModel()

    if args.network_command == "run" and args.dry_run:
        routing = model.route(spec)
        pairs = model.scenarios(spec, routing)
        print(
            f"network {spec.name}: {len(pairs)} routers, "
            f"{len(spec.topology.links)} links, routing={spec.routing}"
        )
        for name, scenario in pairs:
            print(
                f"  {name}: {scenario.architecture} "
                f"{scenario.ports}x{scenario.ports} "
                f"load={_cell(scenario.mean_load)} "
                f"backend={scenario.backend}"
            )
        for row in routing.link_rows():
            print(
                f"  link {row['src']}->{row['dst']}: "
                f"load={row['load']:.3f} "
                f"utilization={row['utilization']:.1%}"
            )
        return 0

    store = _cache_store(args)
    figures = _figure_store(args)
    resilience = _resilience_kwargs(args, spec.content_hash())
    record = model.run(
        spec,
        workers=args.workers,
        executor=args.executor,
        store=store,
        figures=figures,
        shards=args.shards,
        detail=args.detail,
        **resilience,
    )
    _campaign_cache_stats(args, store)
    _figure_store_stats(args, figures)
    _resilience_summary(args, resilience)

    if args.network_command == "report":
        print(render_network_report(record))
        return 0

    if args.csv_path:
        Path(args.csv_path).write_text(record.to_csv())
        print(f"{len(record.nodes)} nodes -> {args.csv_path}",
              file=sys.stderr)
    if args.links_csv_path:
        Path(args.links_csv_path).write_text(record.links_to_csv())
        print(f"{len(record.links)} links -> {args.links_csv_path}",
              file=sys.stderr)
    if args.json_path:
        Path(args.json_path).write_text(record.to_json() + "\n")
        print(f"network record -> {args.json_path}", file=sys.stderr)
    if args.format == "csv":
        report = record.to_csv()
    elif args.format == "json":
        report = record.to_json()
    elif args.format == "markdown":
        report = record.to_markdown()
    else:
        report = render_network_report(record)
    if args.output:
        Path(args.output).write_text(
            report if report.endswith("\n") else report + "\n"
        )
        print(f"network {spec.name} -> {args.output}")
    else:
        # CSV already ends with a newline; don't add a second one, so
        # stdout and --csv/--output files stay byte-identical.
        print(report, end="" if report.endswith("\n") else "\n")
    return 0


def _resolve_control(name: str):
    """A preset name or a ControlSpec JSON file -> :class:`ControlSpec`."""
    from pathlib import Path

    from repro.control import CONTROL_PRESETS, ControlSpec, get_control

    if name in CONTROL_PRESETS:
        return get_control(name)
    path = Path(name)
    if path.exists():
        return ControlSpec.from_json(path.read_text())
    if name.endswith(".json"):
        raise ConfigurationError(f"cannot read control spec file {name!r}")
    return get_control(name)  # raises with the known-presets list


def cmd_control(args) -> int:
    from pathlib import Path

    from repro.control import (
        ControlModel,
        control_names,
        get_control,
        render_control_report,
    )

    if args.control_command == "list":
        rows = []
        for name in control_names():
            spec = get_control(name)
            flags = []
            if spec.optimize:
                flags.append("green")
            if spec.sleep:
                flags.append("sleep")
            if spec.link_rates != (1.0,):
                flags.append("rates")
            rows.append(
                [
                    name,
                    len(spec.network.topology.nodes),
                    len(spec.network.topology.links),
                    spec.network.routing,
                    spec.series.epochs,
                    f"{spec.max_utilization:g}",
                    "+".join(flags) or "-",
                ]
            )
        print(
            format_table(
                ["name", "nodes", "links", "routing", "epochs",
                 "headroom", "policies"],
                rows,
                title="built-in control presets",
            )
        )
        return 0

    spec = _resolve_control(args.name)
    model = ControlModel()

    if args.control_command == "run" and args.dry_run:
        from repro.network.routing import route

        topology = spec.network.topology
        print(
            f"control {spec.name}: {spec.series.epochs} epochs x "
            f"{spec.series.epoch_seconds:g} s, "
            f"{len(spec.network.topology.nodes)} nodes, "
            f"{len(spec.network.topology.links)} links, "
            f"routing={spec.network.routing}, "
            f"headrooms={','.join(f'{h:g}' for h in spec.headrooms())}"
        )
        for i in range(spec.series.epochs):
            matrix = spec.series.matrix(i)
            routing = route(topology, matrix, mode=spec.network.routing)
            max_util = max(
                (row["utilization"] for row in routing.link_rows()),
                default=0.0,
            )
            print(
                f"  epoch {i}: scale={spec.series.scale(i):g} "
                f"demand={matrix.total():.3f} "
                f"max_util={max_util:.1%}"
            )
        return 0

    store = _cache_store(args)
    figures = _figure_store(args)
    resilience = _resilience_kwargs(args, spec.content_hash())
    record = model.run(
        spec,
        workers=args.workers,
        executor=args.executor,
        store=store,
        figures=figures,
        **resilience,
    )
    _campaign_cache_stats(args, store)
    _figure_store_stats(args, figures)
    _resilience_summary(args, resilience)

    if args.control_command == "report":
        print(render_control_report(record))
        return 0

    if args.csv_path:
        Path(args.csv_path).write_text(record.to_csv())
        print(f"{len(record.epochs)} epochs -> {args.csv_path}",
              file=sys.stderr)
    if args.sla_csv_path:
        Path(args.sla_csv_path).write_text(record.sla_to_csv())
        print(f"{len(record.sla)} SLA points -> {args.sla_csv_path}",
              file=sys.stderr)
    if args.json_path:
        Path(args.json_path).write_text(record.to_json() + "\n")
        print(f"control record -> {args.json_path}", file=sys.stderr)
    if args.format == "csv":
        report = record.to_csv()
    elif args.format == "json":
        report = record.to_json()
    elif args.format == "markdown":
        report = record.to_markdown()
    else:
        report = render_control_report(record)
    if args.output:
        Path(args.output).write_text(
            report if report.endswith("\n") else report + "\n"
        )
        print(f"control {spec.name} -> {args.output}")
    else:
        # CSV already ends with a newline; don't add a second one, so
        # stdout and --csv/--output files stay byte-identical.
        print(report, end="" if report.endswith("\n") else "\n")
    return 0


def cmd_surrogate(args) -> int:
    from repro.surrogate import (
        check_drift,
        extract_dataset,
        train_surrogate,
    )
    from repro.surrogate.train import SurrogateModel

    if args.surrogate_command == "train":
        dataset = extract_dataset(args.store)
        model = train_surrogate(
            dataset,
            ridge_lambda=args.ridge_lambda,
            holdout_modulus=args.holdout_modulus,
        )
        stats = model.stats()
        rows = [[key, str(stats[key])] for key in sorted(stats)]
        print(format_table(["field", "value"], rows,
                           title=f"surrogate trained from {args.store}"))
        if dataset.skipped:
            print(f"note: {dataset.skipped} store entries were out of "
                  "surrogate scope (vector loads, zero targets)",
                  file=sys.stderr)
        if args.output:
            model.save(args.output)
            print(f"model -> {args.output}", file=sys.stderr)
        return 0

    # eval
    model = SurrogateModel.load(args.model)
    report = check_drift(model, args.store, tolerance=args.tolerance)
    print(report.summary())
    if args.fail_on_drift and report.retrain:
        return 3
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.surrogate import SurrogatePredictor, SurrogateServer
    from repro.surrogate.train import SurrogateModel

    model = SurrogateModel.load(args.model)
    store = None
    if args.cache:
        from repro.api.store import RunRecordStore

        store = RunRecordStore(args.cache)
    retry = None
    if args.retries is not None or args.timeout is not None:
        if args.retries is not None and args.retries < 0:
            raise ConfigurationError("--retries must be >= 0")
        from repro.resilience import RetryPolicy

        retry = RetryPolicy(
            max_attempts=(args.retries or 0) + 1,
            timeout_s=args.timeout,
            on_failure="raise",
        )
    predictor = SurrogatePredictor(
        model,
        store=store,
        retry=retry,
        drift_tolerance=args.drift_tolerance,
    )
    server = SurrogateServer(
        predictor, host=args.host, port=args.port, journal=args.journal
    )

    async def _main() -> None:
        import signal

        await server.start()
        print(
            f"serving surrogate {model.content_hash()[:16]} "
            f"({model.n_curves} curves) on "
            f"http://{server.host}:{server.port}",
            file=sys.stderr,
        )
        sys.stderr.flush()
        # SIGTERM/SIGINT stop the accept loop cleanly so the request
        # journal is flushed (a supervisor's `kill` must not lose
        # buffered lines).
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def cmd_table1(args) -> int:
    from repro.gatesim.characterize import regenerate_table1
    from repro.units import to_fJ

    result = regenerate_table1(cycles=args.cycles)
    rows = [
        [key, f"{to_fJ(result['raw'][key]):.0f}",
         f"{to_fJ(result['calibrated'][key]):.0f}",
         f"{to_fJ(result['reference'][key]):.0f}"]
        for key in sorted(result["raw"])
    ]
    print(
        format_table(
            ["entry", "raw fJ", "calibrated fJ", "paper fJ"],
            rows,
            title=f"Table 1 (calibration x{result['scale']:.2f})",
        )
    )
    return 0


def cmd_table2(args) -> int:
    from repro.memmodel import SramMacro

    rows = []
    for ports in (4, 8, 16, 32, 64):
        macro = SramMacro.for_banyan(ports)
        paper = tables.BANYAN_BUFFER_ENERGY_BY_PORTS.get(ports)
        rows.append(
            [f"{ports}x{ports}", macro.size_bits // 1024,
             f"{to_pJ(macro.access_energy_per_bit_j):.1f}",
             f"{to_pJ(paper):.0f}" if paper else "-"]
        )
    print(
        format_table(
            ["size", "SRAM Kbit", "model pJ/bit", "paper pJ/bit"],
            rows,
            title="Table 2",
        )
    )
    return 0


_COMMANDS = {
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "batch": cmd_batch,
    "campaign": cmd_campaign,
    "network": cmd_network,
    "control": cmd_control,
    "surrogate": cmd_surrogate,
    "serve": cmd_serve,
    "table1": cmd_table1,
    "table2": cmd_table2,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Library configuration errors print as one ``error:`` line (exit 2)
    instead of a traceback — scenario-file typos and bad parameter
    combinations are user errors, not crashes.  A downstream pager
    closing the pipe (``repro campaign run fig9 | head``) is a clean
    exit, not a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # Flush inside the try: a closed pipe on a small (still
        # buffered) output must surface here, not at shutdown.
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reopen stdout on devnull so the interpreter's shutdown flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
