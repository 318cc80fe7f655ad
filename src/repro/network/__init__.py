"""repro.network — network-level data-plane power.

The paper models one router's switch fabric; this package aggregates
that model over a *network*: a frozen :class:`NetworkTopology` (routers
with ports/architecture/tech, directed links with capacity) under a
frozen :class:`TrafficMatrix` (per src→dst demand in cells/slot) is
routed (:func:`route` — deterministic shortest path or ECMP) into
per-router **per-port load vectors**, each router becomes one
:class:`~repro.api.Scenario`, the scenarios execute through a shared
:meth:`repro.api.PowerModel.run_batch` (inline or a process pool, JSONL
scenario cache), and the results aggregate into one
:class:`NetworkRecord` — per-node, per-link, and total power with
deterministic CSV/JSON/markdown export:

>>> from repro.network import get_network, run_network
>>> record = run_network("dumbbell_switchoff")  # doctest: +SKIP
>>> record.totals["switch_off_delta_w"]         # doctest: +SKIP

* :class:`NetworkTopology` / :class:`RouterNode` / :class:`Link` —
  frozen topology specs plus the generators ``single``, ``line``,
  ``star``, ``mesh``, ``dumbbell``, ``fat_tree`` (arbitrary even k)
  and ``isp`` (seeded Waxman/hierarchical ISP graphs).
* :class:`TrafficMatrix` / :class:`Demand` — demand matrices with
  ``uniform`` / ``gravity`` / ``hotspot`` presets.
* :func:`route` / :class:`RoutingResult` — demand → link loads →
  per-port load vectors, with utilization validation.
* :class:`NetworkSpec` / :class:`NetworkPowerModel` /
  :class:`NetworkRecord` / :func:`run_network` — execution and
  aggregation, including the Giroire-style port switch-off policy.
* :func:`get_network` / :data:`NETWORK_PRESETS` — the built-in specs.

CLI front end: ``repro network run|list|report``; campaign integration:
``Campaign(kind="network")`` in :mod:`repro.campaigns`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".topology": (
        "NetworkTopology", "RouterNode", "Link", "PortMap", "GENERATORS",
        "single", "line", "star", "mesh", "dumbbell", "fat_tree", "isp",
        "edge_nodes",
    ),
    ".traffic_matrix": ("Demand", "TrafficMatrix"),
    ".routing": (
        "ROUTING_MODES", "RoutingResult", "RoutingTables", "build_tables",
        "derive_port_loads", "route",
    ),
    ".power": (
        "NetworkSpec", "NetworkPowerModel", "NetworkRecord", "NODE_COLUMNS",
        "LINK_COLUMNS", "render_network_report", "run_network",
    ),
    ".presets": ("NETWORK_PRESETS", "get_network", "network_names"),
})
