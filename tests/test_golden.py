"""Golden digests: outputs pinned to committed values.

Every other bit-identity test compares two code paths of the same
checkout, so a change that moves both paths together passes silently.
These tests compare against ``tests/golden/digests.json`` instead:

* ``saturation_voq`` — the canonical :class:`RunRecord` cache dicts
  (``elapsed_s`` stripped) of eight 32-port VOQ scenarios, crossbar and
  banyan with 4 iSLIP iterations at loads 0.6-0.9;
* ``fig9_csv`` / ``fig9_json`` — the fig9 campaign's exports at a short
  40 + 8 slot window;
* ``traffic_kinds`` — the canonical records of six 8-port scenarios,
  one per traffic kind, spread over unbounded, bounded and VOQ ingress
  on the crossbar and the banyan (so both segmentation paths of the
  cell store run), with packet sizes that fill part of a word, part of
  a cell and several cells;
* ``long_window`` — the canonical records of ten FIFO and VOQ scenarios
  at a 300 + 45 slot window: the four fabrics at 16 ports and loads 0.5
  and 0.9, the Batcher-Banyan at 32 ports and the banyan with 2 iSLIP
  iterations at 32 ports, both at load 0.9.  Every other key runs 40 + 8
  slots; this one crosses many batched wire settlements of the
  vectorized cores, with the warmup boundary falling inside a batch.
* ``cli_grammar`` — a canonical JSON walk of ``repro.cli.build_parser()``:
  every parser's prog and description, every action's option strings,
  dest, default, choices, nargs, metavar, type name, required flag and
  help, every subcommand's help line and every argument-group title;
* ``cli_transcripts`` — (argv, exit code, stdout, stderr) of the fixed
  ``repro.cli.main`` calls in :data:`CLI_CALLS`, run in order in a fresh
  working directory, plus the bytes of every export file they write
  (not the cache, figure and journal stores, whose lines carry
  ``elapsed_s``);
* ``sweep_transcripts`` — (argv, exit code, stdout, stderr) of the five
  successful ``repro sweep`` calls in :data:`SWEEP_CALLS`: the four
  fabrics and the ``fc`` alias, both engines, the three wire modes, two
  technology nodes and explicit loads and seeds;
* ``spec_hashes`` — the name, ``content_hash()`` and ``to_json()`` of
  every preset spec: each scenario of every scenario preset, every
  campaign, network and control preset, each network preset's topology
  and matrix and each control preset's series, plus one hand-written
  fault plan's ``to_json()``.  The hash keys every run store, figure
  store and journal, so a change here silently empties them;
* ``preset_exports`` — the CSV, JSON and markdown exports and the
  rendered report of every campaign preset (the grid ones at ports 4
  and 8 only), four network presets and both control presets, all at
  the 40 + 8 slot window (network and control specs are rebased onto
  it), plus each network's links CSV and each control's SLA CSV;
* ``full_presets`` — the same exports of every campaign preset at its
  own ports and window, all the network presets and both control
  presets, none rebased, so it pins the JSON bytes of the scale
  presets too.  It runs every preset at full size, so no tier-1 test
  computes it; the CI golden step runs this script, which does;
* ``routing`` — ``route()`` of every network preset in both modes (link
  loads in link order, demand hops and the ingress, egress and active
  vectors, or the error text), ``build_tables()`` of every network
  preset in both modes, and the ``optimize_routing()`` plan (pruned
  cables, projected link loads and the tables of the pruned topology)
  of every epoch and headroom of both control presets.  It covers the
  scale presets that ``preset_exports`` leaves out.

``PYTHONPATH=src python tests/test_golden.py`` prints every key's
current digest beside ``same`` or ``CHANGED`` against the committed
file and exits 1 if any key changed; an intended change to the numbers
is then copied into the file by hand, as an explicit, reviewed diff.
``--items KEY`` prints, for a record key (``saturation_voq``,
``traffic_kinds`` or ``long_window``), one line per scenario: its label
and the sha256 of its canonical record; for ``fig9_csv``, one line per
row of the CSV export: its architecture, ports and load and the sha256
of the row; for ``routing``, one line per ``route``, ``tables`` and
``plan`` entry, and for ``preset_exports`` and ``full_presets`` one
line per export: its label and the sha256 of its data.  A ``diff`` of
that output from two checkouts names the scenarios, rows, entries or
exports that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.api import PRESET_SCENARIOS, PowerModel, Scenario
from repro.campaigns import Campaign, render_report
from repro.campaigns.presets import PRESET_CAMPAIGNS, get_campaign
from repro.campaigns.runner import run_campaign
from repro.cli import build_parser, main as cli_main
from repro.control import (
    ControlModel,
    ControlSpec,
    DemandSeries,
    optimize_routing,
    render_control_report,
)
from repro.control.presets import CONTROL_PRESETS, get_control
from repro.errors import ConfigurationError
from repro.network import (
    ROUTING_MODES,
    Demand,
    NetworkPowerModel,
    NetworkSpec,
    TrafficMatrix,
    build_tables,
    line,
    render_network_report,
    route,
)
from repro.network.presets import NETWORK_PRESETS, get_network
from repro.resilience import Fault, FaultPlan

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

WINDOW = dict(arrival_slots=40, warmup_slots=8, seed=2002)
LONG_WINDOW = dict(arrival_slots=300, warmup_slots=45, seed=2002)

#: ``(traffic, traffic_params, load)`` of the ``traffic_kinds`` digest.
TRAFFIC_CASES = (
    ("bernoulli", {}, 0.5),
    ("hotspot", {"hotspot_fraction": 0.5, "packet_bits": 100}, 0.4),
    ("permutation", {"packet_bits": 1000}, 0.2),
    ("bursty", {"burst_len": 4.0, "packet_bits": 33}, 0.5),
    ("trimodal", {}, 0.4),
    (
        "trace",
        {"entries": [[s, s % 8, (3 * s + 1) % 8, (97 * s) % 1200]
                     for s in range(40)]},
        0.0,
    ),
)

#: Ingress set-ups the traffic cases rotate through.
QUEUE_CASES = (
    dict(architecture="crossbar"),
    dict(architecture="banyan", ingress_queue_cells=4),
    dict(architecture="crossbar", queueing="voq", islip_iterations=2),
    dict(architecture="banyan"),
    dict(architecture="crossbar", ingress_queue_cells=4),
    dict(architecture="banyan", queueing="voq", islip_iterations=2,
         ingress_queue_cells=3),
)

#: The ``cli_transcripts`` calls, in order: every ``list``, one dry-run
#: per kind, the table2 campaign in each format, then small grid,
#: network and control spec files (see :func:`_cli_specs`) run cold,
#: warm and reported, and the error paths.
CLI_CALLS = (
    ("campaign", "list"),
    ("network", "list"),
    ("control", "list"),
    ("campaign", "run", "fig9", "--dry-run"),
    ("network", "run", "dumbbell_switchoff", "--scale", "0.5",
     "--dry-run"),
    ("control", "run", "dumbbell_sleep_sweep", "--dry-run"),
    ("campaign", "run", "table2"),
    ("campaign", "run", "table2", "--format", "csv"),
    ("campaign", "run", "table2", "--format", "json"),
    ("campaign", "run", "table2", "--format", "markdown",
     "--output", "table2.md"),
    ("campaign", "report", "table2"),
    ("campaign", "run", "table2", "--cache", "c.jsonl", "--workers", "2",
     "--resume"),
    ("campaign", "run", "grid.json", "--cache", "cache.jsonl",
     "--csv", "grid.csv", "--json", "grid.out.json"),
    ("campaign", "run", "grid.json", "--cache", "cache.jsonl",
     "--figures", "figures.jsonl", "--format", "json"),
    ("campaign", "report", "grid.json", "--figures", "figures.jsonl"),
    ("network", "run", "line.json", "--csv", "line.csv",
     "--links-csv", "links.csv", "--json", "line.out.json"),
    ("network", "run", "line.json", "--format", "markdown",
     "--journal", "journal.jsonl"),
    ("network", "report", "line.json", "--scale", "0.5"),
    ("control", "run", "ctl.json", "--csv", "ctl.csv",
     "--sla-csv", "sla.csv", "--json", "ctl.out.json", "--format", "csv"),
    ("control", "run", "ctl.json", "--format", "json"),
    ("control", "report", "ctl.json"),
    ("campaign", "run", "nosuch"),
    ("network", "run", "nosuch"),
    ("control", "run", "nosuch"),
    ("campaign", "report", "x.json"),
    ("network", "report", "x.json"),
    ("control", "report", "x.json"),
    ("network", "run", "line.json", "--resume"),
)

#: Stores the calls open (with their ``.lock`` files); their lines
#: carry ``elapsed_s``.
CLI_STORES = {"c.jsonl", "cache.jsonl", "figures.jsonl", "journal.jsonl"}

#: The ``sweep_transcripts`` calls.
SWEEP_CALLS = (
    ("sweep", "--arch", "crossbar", "--ports", "4", "--slots", "60"),
    ("sweep", "--arch", "fully_connected", "--ports", "8", "--slots", "60",
     "--loads", "0.1", "0.4"),
    ("sweep", "--arch", "banyan", "--ports", "8", "--slots", "60",
     "--wire-mode", "per_link", "--tech", "0.13um"),
    ("sweep", "--arch", "batcher_banyan", "--ports", "8", "--slots", "60",
     "--wire-mode", "expected"),
    ("sweep", "--arch", "fc", "--ports", "4", "--slots", "40",
     "--engine", "reference", "--seed", "7", "--loads", "0.05", "0.9"),
)

#: The hand-written fault plan of the ``spec_hashes`` digest.
FAULT_PLAN = FaultPlan(
    faults=(
        Fault("hang", 2, hang_s=60.0),
        Fault("transient", 5, attempts=(1, 2)),
        Fault("crash", 15),
    ),
    seed=2002,
)

#: Grid campaign presets; ``preset_exports`` runs them at these ports.
GRID_PRESETS = ("fig9", "fig10", "fig9_vs_analytical", "fig9_surrogate")
GRID_PORTS = (4, 8)

#: Network presets ``preset_exports`` runs (the large ones are left to
#: ``spec_hashes``).
EXPORT_NETWORKS = ("single_crossbar8", "fat_tree_k4", "dumbbell_switchoff",
                   "mesh4_ecmp")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _strip_timing(value):
    if isinstance(value, dict):
        return {
            k: _strip_timing(v) for k, v in value.items() if k != "elapsed_s"
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _canonical_records(scenarios: list[Scenario]) -> list[str]:
    """Each scenario's record as key-sorted JSON, ``elapsed_s`` stripped."""
    records = PowerModel().run_batch(scenarios, workers=1)
    return [
        json.dumps(_strip_timing(r.to_cache_dict()), sort_keys=True)
        for r in records
    ]


def saturation_voq_scenarios() -> list[Scenario]:
    return [
        Scenario(arch, 32, load, queueing="voq", islip_iterations=4,
                 **WINDOW)
        for arch in ("crossbar", "banyan")
        for load in (0.6, 0.7, 0.8, 0.9)
    ]


def traffic_kinds_scenarios() -> list[Scenario]:
    return [
        Scenario(
            ports=8,
            load=load,
            traffic=traffic,
            traffic_params=params,
            **QUEUE_CASES[i % len(QUEUE_CASES)],
            **WINDOW,
        )
        for i, (traffic, params, load) in enumerate(TRAFFIC_CASES)
    ]


def long_window_scenarios() -> list[Scenario]:
    return [
        *(
            Scenario(arch, 16, load, **LONG_WINDOW)
            for arch in ("crossbar", "fully_connected", "banyan",
                         "batcher_banyan")
            for load in (0.5, 0.9)
        ),
        Scenario("batcher_banyan", 32, 0.9, **LONG_WINDOW),
        Scenario("banyan", 32, 0.9, queueing="voq", islip_iterations=2,
                 **LONG_WINDOW),
    ]


#: The keys that pin a list of scenarios' canonical records.
RECORD_KEYS = {
    "saturation_voq": saturation_voq_scenarios,
    "traffic_kinds": traffic_kinds_scenarios,
    "long_window": long_window_scenarios,
}


def records_digest(key: str) -> str:
    return _sha256("\n".join(_canonical_records(RECORD_KEYS[key]())))


def record_items(key: str) -> list[str]:
    """One line per scenario of a record key: its position, label,
    traffic and queueing, then the sha256 of its canonical record."""
    scenarios = RECORD_KEYS[key]()
    return [
        f"{i:>2} {s.label} {s.traffic} {s.queueing}  {_sha256(record)}"
        for i, (s, record) in enumerate(
            zip(scenarios, _canonical_records(scenarios))
        )
    ]


def run_fig9():
    """The fig9 campaign's record at the golden window."""
    campaign = get_campaign("fig9")
    campaign = campaign.replace(base=dict(campaign.base_dict, **WINDOW))
    return run_campaign(campaign, session=PowerModel(), workers=1)


def fig9_digests(record) -> dict[str, str]:
    return {
        "fig9_csv": _sha256(record.to_csv()),
        "fig9_json": _sha256(record.to_json()),
    }


def fig9_csv_items(record) -> list[str]:
    """One line per row of the fig9 CSV export: its position,
    architecture, ports and load, then the sha256 of the row."""
    lines = record.to_csv().splitlines()
    return [
        f"{i:>2} {row['architecture']} {row['ports']} {row['load']}  "
        f"{_sha256(line)}"
        for i, (row, line) in enumerate(zip(csv.DictReader(lines), lines[1:]))
    ]


def _grammar(parser: argparse.ArgumentParser) -> dict:
    """One parser's grammar, recursing into its subcommands."""
    actions = []
    for action in parser._actions:
        entry = {
            "class": type(action).__name__,
            "option_strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "choices": action.choices,
            "nargs": action.nargs,
            "metavar": action.metavar,
            "type": getattr(action.type, "__name__", action.type),
            "required": action.required,
            "help": action.help,
        }
        if isinstance(action, argparse._SubParsersAction):
            entry["choices"] = {
                name: _grammar(sub) for name, sub in action.choices.items()
            }
            entry["commands"] = [
                [choice.dest, choice.help]
                for choice in action._choices_actions
            ]
        actions.append(entry)
    return {
        "prog": parser.prog,
        "description": parser.description,
        "groups": [
            [group.title, [a.dest for a in group._group_actions]]
            for group in parser._action_groups
        ],
        "actions": actions,
    }


def cli_grammar_digest() -> str:
    return _sha256(json.dumps(_grammar(build_parser()), sort_keys=True))


def _cli_specs() -> dict[str, str]:
    """The spec files :data:`CLI_CALLS` name: a 4-point grid campaign, a
    3-node line network and a 2-epoch control spec."""
    grid = Campaign(
        name="grid4",
        architectures=("crossbar", "banyan"),
        ports=(4,),
        loads=(0.1, 0.3),
        base=WINDOW,
    )
    network = NetworkSpec(
        name="line3",
        topology=line(3),
        matrix=TrafficMatrix((Demand("r0", "r2", 0.4),)),
        base=WINDOW,
    )
    edge = NetworkSpec(
        name="edge3",
        topology=line(3),
        matrix=TrafficMatrix((Demand("r0", "r1", 0.4),)),
        port_power_w=0.01,
        base=WINDOW,
    )
    control = ControlSpec(
        name="ctl2",
        network=edge,
        series=DemandSeries.step(edge.matrix, (1.0, 0.5), name="s"),
        max_utilization=0.9,
        sleep=True,
        sleep_power_fraction=0.1,
        wake_energy_j=0.5,
    )
    return {
        "grid.json": grid.to_json(),
        "line.json": network.to_json(),
        "ctl.json": control.to_json(),
    }


def _transcript(argv: tuple[str, ...]) -> bytes:
    """One ``repro.cli.main`` call as JSON: argv, exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode()


def cli_transcripts_digest() -> str:
    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in _cli_specs().items():
                Path(name).write_text(text)
            inputs = set(os.listdir())
            for argv in CLI_CALLS:
                digest.update(_transcript(argv))
            for name in sorted(set(os.listdir()) - inputs):
                if name.removesuffix(".lock") in CLI_STORES:
                    continue
                data = Path(name).read_bytes()
                digest.update(f"{name} {len(data)}\n".encode() + data)
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


def sweep_transcripts_digest() -> str:
    digest = hashlib.sha256()
    for argv in SWEEP_CALLS:
        digest.update(_transcript(argv))
    return digest.hexdigest()


def _preset_specs() -> list[tuple[str, object]]:
    """Every preset spec with a label, in a fixed order."""
    specs: list[tuple[str, object]] = []
    for name in sorted(PRESET_SCENARIOS):
        for i, scenario in enumerate(PRESET_SCENARIOS[name]()):
            specs.append((f"scenario {name} {i}", scenario))
    for name in sorted(PRESET_CAMPAIGNS):
        specs.append((f"campaign {name}", get_campaign(name)))
    for name in sorted(NETWORK_PRESETS):
        spec = get_network(name)
        specs.append((f"network {name}", spec))
        specs.append((f"topology {name}", spec.topology))
        specs.append((f"matrix {name}", spec.matrix))
    for name in sorted(CONTROL_PRESETS):
        spec = get_control(name)
        specs.append((f"control {name}", spec))
        specs.append((f"series {name}", spec.series))
    return specs


def spec_hashes_digest() -> str:
    lines = [
        f"{label} {spec.content_hash()} {spec.to_json()}"
        for label, spec in _preset_specs()
    ]
    lines.append(f"fault_plan {FAULT_PLAN.to_json()}")
    return _sha256("\n".join(lines))


def _rebase(spec: NetworkSpec) -> NetworkSpec:
    """A network spec moved onto the short golden window."""
    return spec.replace(base=dict(spec.base_dict, **WINDOW))


def _windowed_campaign(name: str) -> Campaign:
    """A campaign preset cut down to the golden window: grid kinds at
    :data:`GRID_PORTS`, network and control kinds with their specs
    rebased inline; table kinds unchanged."""
    campaign = get_campaign(name)
    if name in GRID_PRESETS:
        return campaign.replace(
            ports=GRID_PORTS, base=dict(campaign.base_dict, **WINDOW)
        )
    if campaign.kind == "network":
        params = dict(campaign.params_dict,
                      spec=_rebase(campaign.network_spec()).to_dict())
        del params["network"]
        return Campaign.from_dict(dict(campaign.to_dict(), params=params))
    if campaign.kind == "control":
        spec = campaign.control_spec()
        spec = spec.replace(network=_rebase(spec.network))
        return Campaign.from_dict(
            dict(campaign.to_dict(), params={"spec": spec.to_dict()})
        )
    return campaign


def preset_exports(full: bool = False) -> list[tuple[str, bytes]]:
    """``(label, export bytes)`` of every export the ``preset_exports``
    key pins, in digest order; with ``full``, those the ``full_presets``
    key pins: every campaign preset at its own ports and window, every
    network preset and both control presets, none rebased."""
    session = PowerModel()
    exports: list[tuple[str, str]] = []
    for name in sorted(PRESET_CAMPAIGNS):
        campaign = get_campaign(name) if full else _windowed_campaign(name)
        record = run_campaign(campaign, session=session, workers=1)
        exports += [
            (f"campaign {name} csv", record.to_csv()),
            (f"campaign {name} json", record.to_json()),
            (f"campaign {name} markdown", record.to_markdown()),
            (f"campaign {name} report", render_report(record)),
        ]
    networks = NetworkPowerModel(session)
    for name in sorted(NETWORK_PRESETS) if full else EXPORT_NETWORKS:
        spec = get_network(name)
        record = networks.run(spec if full else _rebase(spec), workers=1)
        exports += [
            (f"network {name} csv", record.to_csv()),
            (f"network {name} links", record.links_to_csv()),
            (f"network {name} json", record.to_json()),
            (f"network {name} markdown", record.to_markdown()),
            (f"network {name} report", render_network_report(record)),
        ]
    controls = ControlModel(session)
    for name in sorted(CONTROL_PRESETS):
        spec = get_control(name)
        if not full:
            spec = spec.replace(network=_rebase(spec.network))
        record = controls.run(spec, workers=1)
        exports += [
            (f"control {name} csv", record.to_csv()),
            (f"control {name} sla", record.sla_to_csv()),
            (f"control {name} json", record.to_json()),
            (f"control {name} markdown", record.to_markdown()),
            (f"control {name} report", render_control_report(record)),
        ]
    return [(label, text.encode()) for label, text in exports]


def _routed(topology, result) -> list:
    """A routing result in link and node order, floats exact."""
    return [
        [result.link_loads[(link.src, link.dst)] for link in topology.links],
        [[src, dst, hops] for (src, dst), hops in result.demand_hops.items()],
        [
            [name, result.ingress_loads[name], result.egress_loads[name],
             result.active_ports[name]]
            for name in topology.node_names
        ],
    ]


def _tables(tables) -> list:
    """Routing tables in their own insertion order."""
    return [
        tables.mode,
        [[node, [[dst, hops] for dst, hops in entries.items()]]
         for node, entries in tables.tables.items()],
    ]


def routing_entries() -> list[tuple[str, bytes]]:
    """``(label, JSON data)`` of every ``route``, ``tables`` and ``plan``
    entry the ``routing`` key pins, in digest order."""
    entries = []

    def put(label: str, value) -> None:
        entries.append((label, json.dumps(value).encode()))

    for name in sorted(NETWORK_PRESETS):
        spec = get_network(name)
        for mode in ROUTING_MODES:
            try:
                routed = _routed(spec.topology,
                                 route(spec.topology, spec.matrix, mode))
            except ConfigurationError as exc:
                routed = f"error: {exc}"
            put(f"route {name} {mode}", routed)
            put(f"tables {name} {mode}",
                _tables(build_tables(spec.topology, mode)))
    for name in sorted(CONTROL_PRESETS):
        spec = get_control(name)
        topology = spec.network.topology
        for epoch, scale in enumerate(spec.series.scales):
            for headroom in spec.headrooms():
                plan = optimize_routing(
                    topology,
                    spec.series.base.scaled(scale),
                    mode=spec.network.routing,
                    max_utilization=headroom,
                )
                put(f"plan {name} {epoch} {headroom}", [
                    plan.pruned_cables,
                    _routed(topology, plan.routing),
                    plan.max_link_utilization,
                    _tables(plan.tables),
                ])
    return entries


def entries_digest(entries: list[tuple[str, bytes]]) -> str:
    """sha256 over labelled entries, each framed by its label and
    length."""
    digest = hashlib.sha256()
    for label, data in entries:
        digest.update(f"{label} {len(data)}\n".encode() + data)
    return digest.hexdigest()


def entry_items(entries: list[tuple[str, bytes]]) -> list[str]:
    """One line per labelled entry: its label, then the sha256 of its
    data."""
    return [
        f"{label}  {hashlib.sha256(data).hexdigest()}"
        for label, data in entries
    ]


def current_digests() -> dict[str, str]:
    return {
        "cli_grammar": cli_grammar_digest(),
        "cli_transcripts": cli_transcripts_digest(),
        "sweep_transcripts": sweep_transcripts_digest(),
        "spec_hashes": spec_hashes_digest(),
        "preset_exports": entries_digest(preset_exports()),
        "full_presets": entries_digest(preset_exports(full=True)),
        "routing": entries_digest(routing_entries()),
        **{key: records_digest(key) for key in RECORD_KEYS},
        **fig9_digests(run_fig9()),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_saturation_voq_records_match_golden(golden):
    assert records_digest("saturation_voq") == golden["saturation_voq"]


def test_traffic_kinds_records_match_golden(golden):
    assert records_digest("traffic_kinds") == golden["traffic_kinds"]


def test_long_window_records_match_golden(golden):
    assert records_digest("long_window") == golden["long_window"]


def test_record_items_name_every_scenario():
    items = record_items("traffic_kinds")
    assert [line.split()[2] for line in items] == [
        traffic for traffic, _, _ in TRAFFIC_CASES
    ]
    assert all(len(line.split()[-1]) == 64 for line in items)


@pytest.fixture(scope="module")
def fig9_record():
    return run_fig9()


def test_fig9_csv_items_name_every_row(fig9_record):
    items = fig9_csv_items(fig9_record)
    assert [tuple(line.split()[:4]) for line in items] == [
        (str(i), s.architecture, str(s.ports), str(s.load))
        for i, s in enumerate(get_campaign("fig9").scenarios())
    ]
    assert all(len(line.split()[-1]) == 64 for line in items)


def test_fig9_exports_match_golden(golden, fig9_record):
    digests = fig9_digests(fig9_record)
    assert digests["fig9_csv"] == golden["fig9_csv"]
    assert digests["fig9_json"] == golden["fig9_json"]


def test_cli_grammar_matches_golden(golden):
    assert cli_grammar_digest() == golden["cli_grammar"]


def test_cli_transcripts_match_golden(golden):
    assert cli_transcripts_digest() == golden["cli_transcripts"]


def test_sweep_transcripts_match_golden(golden):
    assert sweep_transcripts_digest() == golden["sweep_transcripts"]


def test_spec_hashes_match_golden(golden):
    assert spec_hashes_digest() == golden["spec_hashes"]


@pytest.fixture(scope="module")
def preset_export_list():
    return preset_exports()


def test_preset_export_items_name_every_export(preset_export_list):
    items = entry_items(preset_export_list)
    labels = [f"campaign {name} {kind}" for name in sorted(PRESET_CAMPAIGNS)
              for kind in ("csv", "json", "markdown", "report")]
    labels += [f"network {name} {kind}" for name in EXPORT_NETWORKS
               for kind in ("csv", "links", "json", "markdown", "report")]
    labels += [f"control {name} {kind}" for name in sorted(CONTROL_PRESETS)
               for kind in ("csv", "sla", "json", "markdown", "report")]
    assert [line.rsplit(maxsplit=1)[0] for line in items] == labels
    assert all(len(line.split()[-1]) == 64 for line in items)


def test_preset_exports_match_golden(golden, preset_export_list):
    assert entries_digest(preset_export_list) == golden["preset_exports"]


@pytest.fixture(scope="module")
def routing_entry_list():
    return routing_entries()


def test_routing_items_name_every_entry(routing_entry_list):
    items = entry_items(routing_entry_list)
    labels = [
        f"{kind} {name} {mode}"
        for name in sorted(NETWORK_PRESETS)
        for mode in ROUTING_MODES
        for kind in ("route", "tables")
    ]
    for name in sorted(CONTROL_PRESETS):
        spec = get_control(name)
        labels += [
            f"plan {name} {epoch} {headroom}"
            for epoch in range(spec.series.epochs)
            for headroom in spec.headrooms()
        ]
    assert [line.rsplit(maxsplit=1)[0] for line in items] == labels
    assert all(len(line.split()[-1]) == 64 for line in items)


def test_routing_matches_golden(golden, routing_entry_list):
    assert entries_digest(routing_entry_list) == golden["routing"]


def main() -> int:
    """Print every key's digest against the committed file; 1 if any
    key changed (or is missing from the file).  With ``--items KEY``,
    print the record key's per-scenario lines (or the fig9 CSV's
    per-row lines, or the per-entry lines of ``routing``,
    ``preset_exports`` or ``full_presets``) instead."""
    entry_keys = {
        "routing": routing_entries,
        "preset_exports": preset_exports,
        "full_presets": lambda: preset_exports(full=True),
    }
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--items", choices=sorted([*RECORD_KEYS, "fig9_csv", *entry_keys])
    )
    args = parser.parse_args()
    if args.items == "fig9_csv":
        print("\n".join(fig9_csv_items(run_fig9())))
        return 0
    if args.items in entry_keys:
        print("\n".join(entry_items(entry_keys[args.items]())))
        return 0
    if args.items:
        print("\n".join(record_items(args.items)))
        return 0
    committed = json.loads(GOLDEN.read_text())
    changed = 0
    for key, digest in sorted(current_digests().items()):
        same = committed.get(key) == digest
        changed += not same
        print(f"{key:<17} {digest}  {'same' if same else 'CHANGED'}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
