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
    python -m repro network run fat_tree_k4
    python -m repro network report dumbbell_switchoff
    python -m repro control run fat_tree_diurnal
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
from pathlib import Path
from typing import Any, Callable, NamedTuple

import repro
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
        help="per-unit wall-clock budget; the units then run on a "
        "process pool (one worker at --workers 1), which is killed and "
        "respawned when a unit passes its deadline, and that attempt "
        "counts as a failure",
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
        "--workers",
        type=int,
        default=1,
        help="worker processes of the batch's pool (default 1: no "
        "pool, the units run inline)",
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


def _add_kind(sub, command: str, kind: _Kind) -> None:
    """``repro <command> run|list|report`` from one :data:`_KINDS` entry."""
    parser = sub.add_parser(command, help=kind.help)
    kind_sub = parser.add_subparsers(dest=f"{command}_command",
                                     required=True)

    def add_exec(p: argparse.ArgumentParser) -> None:
        p.add_argument("name", help=kind.name_help)
        for flag, options in kind.flags:
            p.add_argument(flag, **options)
        _add_execution(p)

    run_p = kind_sub.add_parser("run", help=kind.run_help)
    add_exec(run_p)
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
    for flag, help_text, _, _ in kind.exports:
        run_p.add_argument(
            flag,
            default=None,
            metavar="PATH",
            dest=_export_dest(flag),
            help=help_text,
        )
    run_p.add_argument(
        "--dry-run", action="store_true", help=kind.dry_run_help
    )

    kind_sub.add_parser("list", help=f"list the built-in {command} presets")

    report_p = kind_sub.add_parser("report", help=kind.report_help)
    add_exec(report_p)


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

    for command, kind in _KINDS.items():
        _add_kind(sub, command, kind)

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
    from repro.api import Scenario, default_session

    records = default_session().run_batch(
        Scenario.grid(
            architectures=(args.arch,),
            ports=(args.ports,),
            loads=args.loads,
            techs=(args.tech,),
            engine=args.engine,
            wire_mode=args.wire_mode,
            arrival_slots=args.slots,
            warmup_slots=args.slots // 5,
            seed=args.seed,
        )
    )
    rows = [
        [f"{r.scenario.load:.2f}", f"{r.throughput:.3f}",
         f"{to_mW(r.total_power_w):.4f}",
         f"{to_mW(r.switch_power_w):.4f}",
         f"{to_mW(r.wire_power_w):.4f}",
         f"{to_mW(r.buffer_power_w):.4f}"]
        for r in records
    ]
    print(
        format_table(
            ["offered", "throughput", "total mW", "switch", "wire", "buffer"],
            rows,
            title=f"{records[0].architecture} {args.ports}x{args.ports}",
        )
    )
    return 0


def cmd_batch(args) -> int:
    from repro.api import (
        default_session,
        load_scenarios,
        records_to_csv,
        records_to_json,
        summary_rows,
    )

    scenarios = load_scenarios(_read_text(args.scenarios, "scenario file"))
    store = _cache_store(args)
    resilience = _resilience_kwargs(args, _batch_key(scenarios))
    records = default_session().run_batch(
        scenarios,
        workers=args.workers,
        store=store,
        **resilience,
    )
    # With --retries, exhausted units are recorded holes (None): the
    # report covers the completed scenarios, the failures print below.
    records = [r for r in records if r is not None]
    _store_stats("cache", args.cache, store)
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
    _emit(args, report, f"{len(records)} scenarios")
    return 0


def _cache_store(args):
    """The ``--cache`` RunRecordStore, or ``None`` without the flag."""
    if not args.cache:
        return None
    from repro.api.store import RunRecordStore

    return RunRecordStore(args.cache)


def _figure_store(args):
    if not args.figures:
        return None
    from repro.api.figstore import DerivedRecordStore

    return DerivedRecordStore(args.figures)


def _store_stats(label: str, path: str, store) -> None:
    """A ``--cache``/``--figures`` store's tally, to stderr."""
    if store is not None:
        stats = store.stats()
        line = (
            f"{label} {path}: {stats['hits']} hits, "
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


def _retry_policy(args, on_failure: str):
    """The :class:`RetryPolicy` of ``--retries``/``--timeout``, or
    ``None`` when neither is given."""
    if args.retries is None and args.timeout is None:
        return None
    if args.retries is not None and args.retries < 0:
        raise ConfigurationError("--retries must be >= 0")
    from repro.resilience import RetryPolicy

    return RetryPolicy(
        max_attempts=(args.retries or 0) + 1,
        timeout_s=args.timeout,
        on_failure=on_failure,
    )


def _resilience_kwargs(args, journal_key: str) -> dict:
    """``retry``/``journal``/``faults``/``report`` call kwargs from the
    shared resilience flags (empty dict when none are given).

    ``--retries``/``--timeout`` build a :class:`RetryPolicy` with
    ``on_failure="record"`` — from the CLI a failed unit should become
    an explicit hole in the exported record, not a dead run.  (The
    control command tightens this back to ``"raise"`` internally, since
    savings need complete epochs.)
    """
    if args.resume and not args.journal:
        raise ConfigurationError("--resume needs --journal PATH")
    kwargs: dict = {}
    retry = _retry_policy(args, "record")
    if retry is not None:
        kwargs["retry"] = retry
    if args.journal:
        from repro.resilience import CampaignJournal

        kwargs["journal"] = CampaignJournal(
            args.journal, journal_key, replay=args.resume
        )
    if args.fault_plan:
        from repro.resilience import FaultPlan

        kwargs["faults"] = FaultPlan.from_json(
            _read_text(args.fault_plan, "fault plan")
        )
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


def _read_text(path: str, what: str) -> str:
    """A spec or plan file's text; a path that cannot be read (missing,
    a directory, no permission, not UTF-8) is a user error, not a
    crash."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read {what} {path!r}: {exc}"
        ) from exc


def _write(path: str, text: str) -> None:
    """Write a report or export file ending in one newline (CSV already
    ends in one); a path that cannot be written is a user error."""
    try:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path!r}: {exc}") from exc


def _emit(args, report: str, what: str) -> None:
    """The report to ``--output`` (announced as ``what -> PATH``) or to
    stdout."""
    if args.output:
        _write(args.output, report)
        print(f"{what} -> {args.output}")
    else:
        # CSV already ends with a newline; don't add a second one, so
        # stdout and --csv/--output files stay byte-identical.
        print(report, end="" if report.endswith("\n") else "\n")


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class _Kind(NamedTuple):
    """What differs between ``repro campaign``, ``network`` and
    ``control``: :func:`_add_kind` builds each one's parsers from it and
    :func:`cmd_kind` runs all three.

    ``get`` raises with the known presets, ``noun`` names a spec file in
    errors and ``run(spec, args, **kwargs)`` returns the record.  Each
    export is ``(flag, help, text(record), label(record))``; ``flags``
    are ``(flag, kwargs)`` pairs only this kind has, applied by
    ``prepare(spec, args)``.  ``batchless(spec)`` names a spec that runs
    no scenario batch (its batch flags are ignored, with a note).
    """

    help: str
    run_help: str
    report_help: str
    name_help: str
    dry_run_help: str
    names: Callable[[], list[str]]
    get: Callable[[str], Any]
    load: Callable[[str], Any]
    noun: str
    columns: tuple[str, ...]
    row: Callable[[str, Any], list]
    dry_run: Callable[[Any], None]
    run: Callable[..., Any]
    exports: tuple[tuple[str, str, Callable, Callable], ...]
    report: Callable[[Any], str]
    table: Callable[[Any], str]
    flags: tuple = ()
    prepare: Callable[[Any, Any], Any] = lambda spec, args: spec
    batchless: Callable[[Any], str | None] = lambda spec: None


def _campaign_dry_run(campaign) -> None:
    plan = repro.campaigns.campaign_plan(campaign)
    print(
        f"campaign {campaign.name} ({campaign.kind}): "
        f"{len(plan)} points"
    )
    for point in plan:
        print("  " + ", ".join(f"{k}={v}" for k, v in point.items()))


def _campaign_table(record) -> str:
    rows = [
        [_cell(point.get(col)) for col in record.columns]
        for point in record.points
    ]
    return format_table(
        list(record.columns),
        rows,
        title=f"campaign {record.campaign.name}: "
        f"{len(record.points)} points",
    )


def _campaign_batchless(campaign) -> str | None:
    """Table kinds run no scenario batch."""
    if campaign.kind in ("grid", "network", "control", "surrogate_eval"):
        return None
    return f"{campaign.kind!r} campaigns"


def _network_row(name: str, spec) -> list:
    return [
        name,
        len(spec.topology.nodes),
        len(spec.topology.links),
        spec.routing,
        1,  # a bare network spec is a single-epoch series
        "on" if spec.switch_off else "off",
        f"{spec.matrix.total():.3f}",
    ]


def _network_dry_run(spec) -> None:
    model = repro.network.NetworkPowerModel()
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


def _control_row(name: str, spec) -> list:
    flags = []
    if spec.optimize:
        flags.append("green")
    if spec.sleep:
        flags.append("sleep")
    if spec.link_rates != (1.0,):
        flags.append("rates")
    return [
        name,
        len(spec.network.topology.nodes),
        len(spec.network.topology.links),
        spec.network.routing,
        spec.series.epochs,
        f"{spec.max_utilization:g}",
        "+".join(flags) or "-",
    ]


def _control_dry_run(spec) -> None:
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
        routing = repro.network.route(topology, matrix,
                                      mode=spec.network.routing)
        max_util = max(
            (row["utilization"] for row in routing.link_rows()),
            default=0.0,
        )
        print(
            f"  epoch {i}: scale={spec.series.scale(i):g} "
            f"demand={matrix.total():.3f} "
            f"max_util={max_util:.1%}"
        )


#: ``repro <kind> run|list|report`` for each spec kind.  The callables
#: reach ``repro.campaigns``, ``repro.network`` and ``repro.control``
#: only when called, so building the parser imports none of them.
_KINDS = {
    "campaign": _Kind(
        help="declarative paper-reproduction campaigns (figures/tables)",
        run_help="execute a campaign into a ComparisonRecord",
        report_help="execute (cache-aware) and print the paper-style report",
        name_help="built-in preset (repro campaign list) or a campaign "
        "JSON file",
        dry_run_help="validate the campaign and print its point plan "
        "without executing anything",
        names=lambda: repro.campaigns.campaign_names(),
        get=lambda name: repro.campaigns.get_campaign(name),
        load=lambda text: repro.campaigns.Campaign.from_json(text),
        noun="campaign",
        columns=("name", "kind", "points", "title"),
        row=lambda name, c: [name, c.kind, c.size(), c.title],
        dry_run=_campaign_dry_run,
        run=lambda c, args, **kw: repro.campaigns.run_campaign(c, **kw),
        exports=(
            ("--csv", "additionally export the record as CSV to this file",
             lambda r: r.to_csv(), lambda r: f"{len(r.points)} points"),
            ("--json", "additionally export the record as JSON to this file",
             lambda r: r.to_json(), lambda r: f"{len(r.points)} points"),
        ),
        report=lambda record: repro.campaigns.render_report(record),
        table=_campaign_table,
        batchless=_campaign_batchless,
    ),
    "network": _Kind(
        help="network-level aggregate power (topology + traffic matrix)",
        run_help="execute a network spec into a NetworkRecord",
        report_help="execute (cache-aware) and print the network power report",
        name_help="built-in network preset (repro network list) or a "
        "NetworkSpec JSON file",
        dry_run_help="route the matrix and print the derived per-router "
        "plan without simulating anything",
        names=lambda: repro.network.network_names(),
        get=lambda name: repro.network.get_network(name),
        load=lambda text: repro.network.NetworkSpec.from_json(text),
        noun="network spec",
        columns=("name", "nodes", "links", "routing", "epochs",
                 "switch-off", "demand"),
        row=_network_row,
        dry_run=_network_dry_run,
        run=lambda spec, args, **kw: repro.network.NetworkPowerModel().run(
            spec, **kw
        ),
        exports=(
            ("--csv", "additionally export the per-node record as CSV",
             lambda r: r.to_csv(), lambda r: f"{len(r.nodes)} nodes"),
            ("--links-csv", "additionally export the per-link record as CSV",
             lambda r: r.links_to_csv(), lambda r: f"{len(r.links)} links"),
            ("--json", "additionally export the record as JSON",
             lambda r: r.to_json(), lambda r: "network record"),
        ),
        report=lambda record: repro.network.render_network_report(record),
        table=lambda record: repro.network.render_network_report(record),
        flags=(
            ("--scale", dict(
                type=float,
                default=1.0,
                help="multiply every demand of the traffic matrix",
            )),
        ),
        prepare=lambda spec, args: (
            spec.scaled(args.scale) if args.scale != 1.0 else spec
        ),
    ),
    "control": _Kind(
        help="energy-aware control plane (demand series + green routing "
        "+ link power states)",
        run_help="execute a control spec into a ControlRecord",
        report_help="execute (cache-aware) and print the control-plane report",
        name_help="built-in control preset (repro control list) or a "
        "ControlSpec JSON file",
        dry_run_help="route every epoch and print the per-epoch demand "
        "plan without simulating anything",
        names=lambda: repro.control.control_names(),
        get=lambda name: repro.control.get_control(name),
        load=lambda text: repro.control.ControlSpec.from_json(text),
        noun="control spec",
        columns=("name", "nodes", "links", "routing", "epochs",
                 "headroom", "policies"),
        row=_control_row,
        dry_run=_control_dry_run,
        run=lambda spec, args, **kw: repro.control.ControlModel().run(
            spec, **kw
        ),
        exports=(
            ("--csv", "additionally export the per-epoch record as CSV",
             lambda r: r.to_csv(), lambda r: f"{len(r.epochs)} epochs"),
            ("--sla-csv", "additionally export the savings-vs-SLA curve "
             "as CSV",
             lambda r: r.sla_to_csv(), lambda r: f"{len(r.sla)} SLA points"),
            ("--json", "additionally export the record as JSON",
             lambda r: r.to_json(), lambda r: "control record"),
        ),
        report=lambda record: repro.control.render_control_report(record),
        table=lambda record: repro.control.render_control_report(record),
    ),
}


def _export_dest(flag: str) -> str:
    """``--links-csv`` -> ``links_csv_path``."""
    return flag[2:].replace("-", "_") + "_path"


def _resolve(kind: _Kind, name: str):
    """A preset name or a spec JSON file path -> the kind's spec."""
    if name in kind.names():
        return kind.get(name)
    if Path(name).exists():
        return kind.load(_read_text(name, f"{kind.noun} file"))
    if name.endswith(".json"):
        raise ConfigurationError(f"cannot read {kind.noun} file {name!r}")
    return kind.get(name)  # raises with the known-presets list


def _note_ignored(args, subject: str) -> None:
    """Batch-only flags given for a spec that runs no scenario batch are
    called out instead of silently ignored (and no misleading cache
    stats get printed)."""
    ignored = [
        flag
        for flag, given in (
            ("--cache", args.cache),
            ("--workers", args.workers > 1),
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
            f"note: {subject} run no scenario batch; ignoring "
            f"{', '.join(ignored)}",
            file=sys.stderr,
        )


def cmd_kind(args) -> int:
    """``repro campaign|network|control run|list|report``."""
    kind = _KINDS[args.command]
    command = getattr(args, f"{args.command}_command")
    if command == "list":
        rows = [kind.row(name, kind.get(name)) for name in kind.names()]
        print(
            format_table(
                list(kind.columns),
                rows,
                title=f"built-in {args.command} presets",
            )
        )
        return 0

    spec = kind.prepare(_resolve(kind, args.name), args)
    if command == "run" and args.dry_run:
        kind.dry_run(spec)
        return 0
    batchless = kind.batchless(spec)
    if batchless:
        _note_ignored(args, batchless)
    store = None if batchless else _cache_store(args)
    figures = _figure_store(args)
    resilience = (
        {} if batchless else _resilience_kwargs(args, spec.content_hash())
    )
    record = kind.run(
        spec,
        args,
        workers=args.workers,
        store=store,
        figures=figures,
        **resilience,
    )
    _store_stats("cache", args.cache, store)
    _store_stats("figures", args.figures, figures)
    _resilience_summary(args, resilience)
    if command == "report":
        print(kind.report(record))
        return 0

    for flag, _, text, label in kind.exports:
        path = getattr(args, _export_dest(flag))
        if path:
            _write(path, text(record))
            print(f"{label(record)} -> {path}", file=sys.stderr)
    report = {
        "csv": record.to_csv,
        "json": record.to_json,
        "markdown": record.to_markdown,
        "table": lambda: kind.table(record),
    }[args.format]()
    _emit(args, report, f"{args.command} {spec.name}")
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
    predictor = SurrogatePredictor(
        model,
        store=_cache_store(args),
        retry=_retry_policy(args, "raise"),
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
    **dict.fromkeys(_KINDS, cmd_kind),
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
