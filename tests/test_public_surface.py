"""The package's public surface, and what an import loads.

Each package's ``__all__`` is pinned, every name a fresh ``import
repro`` offers must resolve, and every exported name must be the very
object its defining module holds, also after every module has been
imported (importing a submodule binds its name on the package, which
must not shadow an export of the same name, such as the
``repro.gatesim.simulate`` function).

Package exports are lazy, so a run loads only the modules its path
uses: ``import repro`` loads no numpy, a ``fig9`` run loads neither
networkx nor the network, control, serving, gate-level or analysis
layers, and every module imports on its own, which no package import
order can then hide a cycle from.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every module under ``src/repro`` by dotted name, ``__main__`` (which
#: runs the CLI) aside.
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts[:-1])
    if path.name == "__init__.py"
    else ".".join(path.relative_to(SRC).with_suffix("").parts)
    for path in (SRC / "repro").rglob("*.py")
    if path.name != "__main__.py"
)

#: The sorted ``__all__`` of ``repro`` and of each subpackage.
EXPORTS = {
    "repro": [
        "ARCHITECTURES", "AnalyticalPowerEstimate", "Campaign",
        "ComparisonRecord", "ControlModel", "ControlRecord", "ControlSpec",
        "DemandSeries", "DerivedRecordStore", "NetworkPowerModel",
        "NetworkRecord", "NetworkSpec", "NetworkTopology", "PAPER",
        "PowerModel", "RunRecord", "Scenario", "SimulationResult",
        "TECH_130NM", "TECH_180NM", "TECH_250NM", "Technology",
        "TrafficMatrix", "WireMode", "__version__", "build_fabric",
        "build_router", "default_models", "default_session",
        "estimate_all_architectures", "estimate_power", "get_campaign",
        "get_control", "get_network", "load_scenarios", "preset",
        "preset_scenarios", "run_batch", "run_campaign", "run_control",
        "run_network", "run_simulation",
    ],
    "repro.analysis": [
        "KAROL_HLUCHYJ_TABLE", "format_series", "format_table",
        "hol_saturation_asymptote", "hol_saturation_throughput",
    ],
    "repro.api": [
        "BACKENDS", "CSV_COLUMNS", "DerivedRecordStore", "PRESET_SCENARIOS",
        "PowerModel", "RunRecord", "RunRecordStore", "Scenario",
        "TRAFFIC_KINDS", "WireMode", "default_session", "load_scenarios",
        "preset", "preset_scenarios", "records_to_csv", "records_to_json",
        "reset_default_session", "run_batch", "summary_rows",
    ],
    "repro.campaigns": [
        "CAMPAIGN_KINDS", "CONTROL_AXES", "CONTROL_METRICS",
        "CONTROL_TOTAL_EPOCH", "Campaign", "ComparisonRecord",
        "DerivedRecordStore", "GRID_AXES", "GRID_METRICS", "NETWORK_AXES",
        "NETWORK_METRICS", "NETWORK_TOTAL_NODE", "PRESET_CAMPAIGNS",
        "SURROGATE_AXES", "SURROGATE_METRICS", "campaign_names",
        "campaign_plan", "get_campaign", "render_report", "run_campaign",
    ],
    "repro.control": [
        "CONTROL_PRESETS", "ControlModel", "ControlRecord", "ControlSpec",
        "DemandSeries", "EPOCH_COLUMNS", "GreenPlan", "SLA_COLUMNS",
        "cable_key", "cables_of", "control_names", "get_control",
        "optimize_routing", "render_control_report", "run_control",
    ],
    "repro.core": [
        "AnalyticalPowerEstimate", "BufferEnergyModel", "EnergyModelSet",
        "MuxEnergyLUT", "SwitchEnergyLUT", "banyan_blocking_probability",
        "banyan_stage_loads", "bit_energy_banyan",
        "bit_energy_batcher_banyan", "bit_energy_crossbar",
        "bit_energy_fully_connected", "estimate_power", "tables",
    ],
    "repro.fabrics": [
        "BanyanFabric", "BatcherBanyanFabric", "CrossbarFabric",
        "FabricEntry", "FullyConnectedFabric", "SwitchFabric",
        "build_fabric", "canonical_architecture", "default_models",
        "get_entry", "register_fabric", "registered_architectures",
        "unregister_fabric",
    ],
    "repro.gatesim": [
        "CellLibrary", "CellType", "EnergyReport", "Gate", "Net", "Netlist",
        "SimulationTrace", "characterize_mux", "characterize_switch",
        "estimate_energy", "regenerate_table1", "simulate",
    ],
    "repro.gatesim.circuits": [
        "build_banyan_switch", "build_crosspoint", "build_mux_tree",
        "build_sorting_switch",
    ],
    "repro.memmodel": [
        "DramMacro", "SramMacro", "banyan_buffer_model",
        "buffer_model_for_memory", "fit_bank_model", "shared_buffer_bits",
    ],
    "repro.network": [
        "DETAIL_LEVELS", "Demand", "GENERATORS", "LINK_COLUMNS", "Link",
        "NETWORK_PRESETS", "NODE_COLUMNS", "NetworkPowerModel",
        "NetworkRecord", "NetworkSpec", "NetworkTopology", "PortMap",
        "ROUTING_MODES", "RouterNode", "RoutingResult", "RoutingTables",
        "TrafficMatrix", "build_tables",
        "derive_port_loads", "dumbbell", "edge_nodes", "fat_tree",
        "get_network", "isp", "line", "mesh", "network_names",
        "render_network_report", "route", "run_network", "shard_bounds",
        "single", "star",
    ],
    "repro.resilience": [
        "BatchReport", "CampaignJournal", "FAULT_KINDS", "FailureRecord",
        "Fault", "FaultPlan", "RetryPolicy", "SimulatedCrash", "Supervisor",
        "TransientFault", "apply_fault", "corrupt_line",
    ],
    "repro.router": [
        "BernoulliUniformTraffic", "BurstyTraffic", "Cell", "CellFormat",
        "EgressUnit", "FcfsRoundRobinArbiter", "HotspotTraffic",
        "IngressUnit", "NetworkRouter", "OldestFirstArbiter", "Packet",
        "PermutationTraffic", "TraceTraffic", "TrafficGenerator",
        "TrimodalPacketTraffic", "make_payload_words", "segment_packet",
    ],
    "repro.sim": [
        "ENGINES", "EnergyBreakdown", "EnergyLedger", "SimulationEngine",
        "SimulationResult", "VectorizedEngine", "WireTracer", "count_flips",
        "create_engine", "run_simulation",
    ],
    "repro.surrogate": [
        "DatasetRow", "DriftReport", "Prediction", "SurrogateDataset",
        "SurrogateModel", "SurrogatePredictor", "SurrogateServer",
        "TARGET_FIELDS", "check_drift", "context_signature",
        "dataset_from_records", "extract_dataset", "is_holdout_key",
        "train_surrogate",
    ],
    "repro.tech": [
        "PRESETS", "TECH_130NM", "TECH_180NM", "TECH_250NM", "Technology",
        "WireModel", "get_technology",
    ],
    "repro.thompson": [
        "BanyanLayout", "BatcherBanyanLayout", "CrossbarLayout", "Embedding",
        "FullyConnectedLayout", "GridRect", "ThompsonGrid", "embed_graph",
    ],
}

#: The non-dunder names of ``dir(repro)`` in a fresh process while
#: ``repro/__init__.py`` imported every subpackage: the exports plus the
#: subpackages and modules that import bound on the package.
REPRO_NAMES = [
    "ARCHITECTURES", "AnalyticalPowerEstimate", "Campaign",
    "ComparisonRecord", "ControlModel", "ControlRecord", "ControlSpec",
    "DemandSeries", "DerivedRecordStore", "NetworkPowerModel",
    "NetworkRecord", "NetworkSpec", "NetworkTopology", "PAPER",
    "PowerModel", "RunRecord", "Scenario", "SimulationResult", "TECH_130NM",
    "TECH_180NM", "TECH_250NM", "Technology", "TrafficMatrix", "WireMode",
    "analysis", "api", "build_fabric", "build_router", "campaigns",
    "control", "core", "default_models", "default_session", "errors",
    "estimate_all_architectures", "estimate_power", "fabrics", "get_campaign",
    "get_control", "get_network", "load_scenarios", "memmodel", "network",
    "preset", "preset_scenarios", "resilience", "router", "run_batch",
    "run_campaign", "run_control", "run_network", "run_simulation",
    "serial", "sim", "tech", "thompson", "units", "version", "wire_modes",
]


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path and
    return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _definers() -> dict[str, list[str]]:
    """``{name: modules}``: the modules under ``src/repro`` that bind
    ``name`` at top level by ``def``, ``class`` or assignment."""
    out: dict[str, list[str]] = {}
    for module in MODULES:
        parts = module.split(".")
        path = SRC.joinpath(*parts).with_suffix(".py")
        if not path.exists():
            path = SRC.joinpath(*parts, "__init__.py")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names = [node.target.id]
            else:
                continue
            for name in names:
                out.setdefault(name, []).append(module)
    return out


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_exports_are_pinned(package):
    assert sorted(importlib.import_module(package).__all__) == EXPORTS[package]


def test_every_name_of_a_bare_import_resolves():
    """Each name resolves, and ``dir(repro)`` lists every export."""
    missing, unlisted = json.loads(run_python(
        "import json, repro\n"
        "listed = dir(repro)\n"
        f"names = {REPRO_NAMES!r}\n"
        "print(json.dumps([[n for n in names if not hasattr(repro, n)],\n"
        "                  [n for n in repro.__all__ if n not in listed]]))\n"
    ))
    assert missing == [] and unlisted == []


def test_exports_are_their_defining_modules_objects():
    """In a process that has imported every module, each export is the
    object its defining module binds, and a name no module binds is
    the package's submodule of that name."""
    definers = _definers()
    wanted = {
        package: {name: definers.get(name, []) for name in names}
        for package, names in EXPORTS.items()
    }
    wrong = json.loads(run_python(
        "import importlib, json, sys\n"
        f"for module in {MODULES!r}:\n"
        "    importlib.import_module(module)\n"
        f"wanted = {wanted!r}\n"
        "wrong = []\n"
        "for package, names in wanted.items():\n"
        "    pkg = sys.modules[package]\n"
        "    for name, definers in names.items():\n"
        "        value = getattr(pkg, name)\n"
        "        if definers:\n"
        "            ok = any(vars(sys.modules[m]).get(name) is value\n"
        "                     for m in definers)\n"
        "        else:\n"
        "            ok = value is sys.modules.get(f'{package}.{name}')\n"
        "        if not ok:\n"
        "            wrong.append(f'{package}.{name}')\n"
        "print(json.dumps(wrong))\n"
    ))
    assert wrong == []


#: What no ``fig9`` run uses: module names, each with its submodules.
NOT_ON_THE_FIG9_PATH = (
    "networkx", "repro.network", "repro.control", "repro.surrogate",
    "repro.gatesim", "repro.analysis", "repro.thompson.embedding",
)


def test_bare_import_loads_no_numpy():
    assert run_python(
        "import sys, repro\nprint('numpy' in sys.modules)"
    ).strip() == "False"


def test_fig9_run_loads_only_its_path():
    """One fig9 point per fabric at 10+2 slots, exported as the
    benchmark exports it."""
    loaded = json.loads(run_python(
        "import json, sys\n"
        "from repro.campaigns.presets import get_campaign\n"
        "from repro.campaigns.runner import run_campaign\n"
        "fig9 = get_campaign('fig9')\n"
        "campaign = fig9.replace(ports=(4,), loads=(0.3,), base=dict(\n"
        "    fig9.base_dict, arrival_slots=10, warmup_slots=2))\n"
        "record = run_campaign(campaign, workers=1)\n"
        "assert len(record.points) == 4, record.points\n"
        "record.to_csv(), record.to_json()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))
    assert [
        module for module in loaded
        if any(module == name or module.startswith(name + ".")
               for name in NOT_ON_THE_FIG9_PATH)
    ] == []


def test_every_module_imports_on_its_own():
    failed = json.loads(run_python(
        "import importlib, json, sys\n"
        "failed = {}\n"
        f"for module in {MODULES!r}:\n"
        "    for name in [m for m in sys.modules\n"
        "                 if m == 'repro' or m.startswith('repro.')]:\n"
        "        del sys.modules[name]\n"
        "    try:\n"
        "        importlib.import_module(module)\n"
        "    except Exception as exc:\n"
        "        failed[module] = repr(exc)\n"
        "print(json.dumps(failed))\n"
    ))
    assert failed == {}
