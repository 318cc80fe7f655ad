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
order can then hide a cycle from.  What simulates nothing (``--help``,
every ``list``, a grid ``--dry-run``, an in-distribution ``repro
serve`` query) loads neither numpy nor the engines: they load with the
first simulation.
"""

from __future__ import annotations

import ast
import importlib
import json

import pytest
from helpers import SRC, run_python

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
        "Demand", "GENERATORS", "LINK_COLUMNS", "Link",
        "NETWORK_PRESETS", "NODE_COLUMNS", "NetworkPowerModel",
        "NetworkRecord", "NetworkSpec", "NetworkTopology", "PortMap",
        "ROUTING_MODES", "RouterNode", "RoutingResult", "RoutingTables",
        "TrafficMatrix", "build_tables",
        "derive_port_loads", "dumbbell", "edge_nodes", "fat_tree",
        "get_network", "isp", "line", "mesh", "network_names",
        "render_network_report", "route", "run_network", "single", "star",
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


def _within(loaded: list[str], names: tuple[str, ...]) -> list[str]:
    """The modules of ``loaded`` that are one of ``names`` or under one."""
    return [
        module for module in loaded
        if any(module == name or module.startswith(name + ".")
               for name in names)
    ]


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
    assert _within(loaded, NOT_ON_THE_FIG9_PATH) == []


#: The fabric class modules (the vector cores included).
FABRIC_CLASSES = tuple(
    f"repro.fabrics.{name}" for name in (
        "base", "crossbar", "fully_connected", "banyan", "batcher_banyan",
        "vectorized",
    )
)
#: What a path that simulates nothing must not load.
SIMULATOR = (
    "numpy", "repro.sim.engine", "repro.sim.vector_engine",
    "repro.sim.cellstore", "repro.router.traffic", "repro.router.cells",
    "repro.router.packet", "repro.router.router",
) + FABRIC_CLASSES


#: The modules that build, validate, list or serve specs
#: (docs/ARCHITECTURE.md, "What loads when").
SPEC_MODULES = (
    "repro.fabrics.registry", "repro.router.params", "repro.api.scenario",
    "repro.api.records", "repro.api.store", "repro.api.jsonl",
    "repro.api.figstore", "repro.serial", "repro.core.estimator",
    "repro.core.tables", "repro.sim.results", "repro.network.topology",
    "repro.network.traffic_matrix", "repro.network.routing",
    "repro.network.power", "repro.network.presets", "repro.control.demand",
    "repro.control.spec", "repro.control.presets",
    "repro.campaigns.campaign", "repro.campaigns.comparison",
    "repro.campaigns.presets", "repro.campaigns.runner",
    "repro.surrogate.dataset", "repro.surrogate.train",
    "repro.surrogate.predict", "repro.surrogate.serve", "repro.cli",
)


def test_spec_modules_import_no_simulator():
    loaded = json.loads(run_python(
        "import importlib, json, sys\n"
        f"for module in {SPEC_MODULES!r}:\n"
        "    importlib.import_module(module)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))
    assert _within(loaded, SIMULATOR) == []


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["campaign", "list"],
    ["network", "list"],
    ["control", "list"],
    ["campaign", "run", "fig9", "--dry-run"],
    ["campaign", "run", "fat_tree_k4_sweep", "--dry-run"],
    ["control", "run", "dumbbell_sleep_sweep", "--dry-run"],
], ids=" ".join)
def test_a_command_that_simulates_nothing_loads_no_simulator(argv):
    code, loaded = json.loads(run_python(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    ))
    assert code in (0, None)
    assert _within(loaded, SIMULATOR) == []


@pytest.fixture(scope="module")
def surrogate(tmp_path_factory):
    """A surrogate of a small crossbar grid saved as JSON, and an
    in-distribution scenario of it as a ``/predict`` body."""
    from repro.api import PowerModel, Scenario
    from repro.surrogate import dataset_from_records, train_surrogate

    window = dict(arrival_slots=40, warmup_slots=8)
    grid = Scenario.grid(ports=(4, 8), loads=(0.1, 0.2, 0.3, 0.4), **window)
    records = PowerModel().run_batch(grid)
    path = tmp_path_factory.mktemp("surrogate") / "model.json"
    train_surrogate(dataset_from_records(records)).save(path)
    return path, Scenario("crossbar", 8, 0.25, **window).to_dict()


SERVE = """
import asyncio, json, sys
from repro.api.scenario import Scenario
from repro.surrogate import SurrogatePredictor, SurrogateServer
from repro.surrogate.train import SurrogateModel

predictor = SurrogatePredictor(SurrogateModel.load(MODEL))
answer = predictor.predict(Scenario.from_dict(BODY))
assert answer.source == "surrogate", answer.reason
answer.to_json()

async def serve():
    server = SurrogateServer(predictor, port=0)
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    body = json.dumps(BODY).encode()
    writer.write(b"POST /predict HTTP/1.1\\r\\nHost: x\\r\\n"
                 b"Connection: close\\r\\nContent-Length: %d\\r\\n\\r\\n"
                 % len(body) + body)
    reply = await reader.read()
    writer.close()
    await server.stop()
    return reply

assert asyncio.run(serve()).startswith(b"HTTP/1.1 200"), "not served"
served = sorted(sys.modules)
ood = Scenario.from_dict(dict(BODY, load=0.9))
fallback = predictor.predict(ood)
after = sorted(sys.modules)
from repro.api.model import PowerModel
direct = PowerModel().run(ood)
payloads = [fallback.record.to_cache_dict(), direct.to_cache_dict()]
for payload in payloads:
    payload.pop("elapsed_s")
print(json.dumps([served, fallback.source, after,
                  [json.dumps(p, sort_keys=True) for p in payloads]]))
"""


def test_serving_loads_the_engines_on_its_first_fallback(surrogate):
    """Loading a model, parsing, predicting, serialising and serving an
    in-distribution query load no simulator; an out-of-distribution
    query then loads the engines and answers with the record a direct
    run gives (timing set aside)."""
    path, body = surrogate
    served, source, after, (fallback, direct) = json.loads(run_python(
        f"MODEL = {str(path)!r}\nBODY = {body!r}\n" + SERVE
    ))
    assert _within(served, SIMULATOR) == []
    assert source == "fallback"
    assert "repro.sim.vector_engine" in after and "numpy" in after
    assert fallback == direct


def test_estimate_power_loads_no_fabric_class():
    loaded = json.loads(run_python(
        "import json, sys\n"
        "from repro.core.estimator import estimate_power\n"
        "estimate_power('banyan', 32, 0.3)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))
    assert _within(loaded, FABRIC_CLASSES) == []


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
