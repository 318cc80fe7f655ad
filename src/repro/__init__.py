"""repro — bit-energy power analysis of network-router switch fabrics.

A faithful, full-system reproduction of:

    Terry Tao Ye, Luca Benini, Giovanni De Micheli,
    "Analysis of Power Consumption on Switch Fabrics in Network
    Routers", DAC 2002.

Quick start
-----------
The unified experiment API (canonical since the :mod:`repro.api`
redesign):

>>> import repro
>>> session = repro.PowerModel()
>>> record = session.simulate(repro.Scenario("crossbar", 8, 0.3,
...                                          arrival_slots=300,
...                                          warmup_slots=50))
>>> print(record.detail.summary())  # doctest: +SKIP

Analytical fast path (no simulation):

>>> est = session.estimate(repro.Scenario("banyan", 32, 0.3))
>>> est.total_power_w  # doctest: +SKIP

The legacy one-call helpers remain as shims over a shared session:

>>> result = repro.run_simulation("crossbar", ports=8, load=0.3,
...                               arrival_slots=300, warmup_slots=50)
>>> est = repro.estimate_power("banyan", ports=32, throughput=0.3)

Package map
-----------
- :mod:`repro.api` — scenarios, cached sessions, batch execution,
  the unified result schema (the public experiment surface).
- :mod:`repro.campaigns` — declarative paper-reproduction campaigns
  (Fig. 9/10, Tables 1/2) aggregated into comparison records.
- :mod:`repro.network` — network-level data-plane power: topologies,
  traffic matrices, routing, and aggregate router power (per-router
  scenarios derived from routed per-port loads).
- :mod:`repro.control` — energy-aware control plane: demand series
  over time, green (least-loaded-link pruning) routing, link sleep
  states and rate adaptation, power-vs-time and savings-vs-SLA records.
- :mod:`repro.core` — the bit-energy model (the paper's contribution).
- :mod:`repro.tech` — technology nodes and the wire model.
- :mod:`repro.thompson` — Thompson grid wire-length estimation.
- :mod:`repro.gatesim` — gate-level switch characterisation
  (Synopsys Power Compiler substitute, regenerates Table 1 shapes).
- :mod:`repro.memmodel` — SRAM/DRAM buffer energy (Table 2 substitute).
- :mod:`repro.fabrics` — crossbar, fully connected, banyan,
  batcher-banyan dynamic fabric models.
- :mod:`repro.router` — ingress/egress units, arbiter, traffic.
- :mod:`repro.sim` — the slotted bit-accurate simulation platform.
- :mod:`repro.analysis` — queueing theory, report formatting.
"""

from repro.version import PAPER, __version__
from repro.core.estimator import (
    ARCHITECTURES,
    AnalyticalPowerEstimate,
    estimate_all_architectures,
    estimate_power,
)
from repro.core.analytical import worst_case_bit_energy
from repro.sim.runner import build_router, run_simulation
from repro.sim.results import SimulationResult
from repro.fabrics.factory import build_fabric, default_models
from repro.tech import TECH_130NM, TECH_180NM, TECH_250NM, Technology
from repro.wire_modes import WireMode
from repro.api import (
    PowerModel,
    RunRecord,
    Scenario,
    default_session,
    load_scenarios,
    preset,
    preset_scenarios,
    run_batch,
)
from repro.campaigns import (
    Campaign,
    ComparisonRecord,
    DerivedRecordStore,
    get_campaign,
    run_campaign,
)
from repro.network import (
    NetworkPowerModel,
    NetworkRecord,
    NetworkSpec,
    NetworkTopology,
    TrafficMatrix,
    get_network,
    run_network,
)
from repro.control import (
    ControlModel,
    ControlRecord,
    ControlSpec,
    DemandSeries,
    get_control,
    run_control,
)

__all__ = [
    "__version__",
    "PAPER",
    "ARCHITECTURES",
    "AnalyticalPowerEstimate",
    "estimate_power",
    "estimate_all_architectures",
    "worst_case_bit_energy",
    "run_simulation",
    "build_router",
    "build_fabric",
    "default_models",
    "SimulationResult",
    "Technology",
    "TECH_130NM",
    "TECH_180NM",
    "TECH_250NM",
    "WireMode",
    "Scenario",
    "PowerModel",
    "RunRecord",
    "default_session",
    "run_batch",
    "load_scenarios",
    "preset",
    "preset_scenarios",
    "Campaign",
    "ComparisonRecord",
    "DerivedRecordStore",
    "get_campaign",
    "run_campaign",
    "NetworkTopology",
    "TrafficMatrix",
    "NetworkSpec",
    "NetworkPowerModel",
    "NetworkRecord",
    "get_network",
    "run_network",
    "DemandSeries",
    "ControlSpec",
    "ControlModel",
    "ControlRecord",
    "get_control",
    "run_control",
]
