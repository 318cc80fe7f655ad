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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".version": ("__version__", "PAPER"),
    ".core.estimator": (
        "ARCHITECTURES", "AnalyticalPowerEstimate", "estimate_power",
        "estimate_all_architectures",
    ),
    ".core.analytical": ("worst_case_bit_energy",),
    ".sim.runner": ("run_simulation", "build_router"),
    ".sim.results": ("SimulationResult",),
    ".fabrics.factory": ("build_fabric", "default_models"),
    ".tech.technology": ("Technology",),
    ".tech.presets": ("TECH_130NM", "TECH_180NM", "TECH_250NM"),
    ".wire_modes": ("WireMode",),
    ".api.scenario": (
        "Scenario", "load_scenarios", "preset", "preset_scenarios",
    ),
    ".api.model": ("PowerModel", "default_session", "run_batch"),
    ".api.records": ("RunRecord",),
    ".api.figstore": ("DerivedRecordStore",),
    ".campaigns.campaign": ("Campaign",),
    ".campaigns.comparison": ("ComparisonRecord",),
    ".campaigns.presets": ("get_campaign",),
    ".campaigns.runner": ("run_campaign",),
    ".network.topology": ("NetworkTopology",),
    ".network.traffic_matrix": ("TrafficMatrix",),
    ".network.power": (
        "NetworkSpec", "NetworkPowerModel", "NetworkRecord", "run_network",
    ),
    ".network.presets": ("get_network",),
    ".control.demand": ("DemandSeries",),
    ".control.spec": ("ControlSpec",),
    ".control.model": ("ControlModel", "run_control"),
    ".control.record": ("ControlRecord",),
    ".control.presets": ("get_control",),
})
