"""repro.campaigns — declarative paper-reproduction campaigns.

A :class:`Campaign` declares one of the paper's cross-cutting
comparisons (a figure or a table) as frozen axis definitions; running
it yields a :class:`ComparisonRecord` that aggregates every constituent
:class:`~repro.api.RunRecord` into one keyed result object with pivots,
analytical-vs-simulated deltas and CSV/JSON/markdown export:

>>> from repro.campaigns import get_campaign, run_campaign
>>> record = run_campaign("fig9", workers=4)  # doctest: +SKIP
>>> record.pivot("load", "architecture", "total_power_w",
...              where={"ports": 32})  # doctest: +SKIP

* :class:`Campaign` — frozen spec with JSON round-trip and a derived
  :meth:`~Campaign.scenarios` grid.
* :class:`ComparisonRecord` — the aggregated, exportable result.
* :func:`run_campaign` — execution through
  :meth:`~repro.api.PowerModel.run_batch` (parallel executors, JSONL
  result cache) or the table models.
* :func:`get_campaign` / :data:`PRESET_CAMPAIGNS` — the built-in
  presets (``fig9``, ``fig10``, ``table1``, ``table2``,
  ``fig9_vs_analytical``, the network kinds ``fat_tree_k4_sweep`` and
  ``dumbbell_switchoff``, the control kinds ``fat_tree_diurnal``
  and ``dumbbell_sleep_sweep``, and the surrogate-scoring kind
  ``fig9_surrogate``).
* :func:`render_report` — paper-style text report of a record.
* ``kind="network"`` campaigns sweep a :class:`repro.network`
  spec over demand scales (per-node rows under (scale, node) axes);
  ``kind="control"`` campaigns run a :mod:`repro.control` series
  (per-epoch rows plus a series total).
* :class:`~repro.api.figstore.DerivedRecordStore` (re-exported here) —
  the derived-figure cache: ``run_campaign(figures=...)`` serves a
  warm campaign without a session.

CLI front end: ``repro campaign run|list|report`` (see
``docs/REPRODUCING.md`` for the figure/table <-> preset <-> command
matrix).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".campaign": ("Campaign", "CAMPAIGN_KINDS", "GRID_AXES"),
    ".runner": (
        "GRID_METRICS", "NETWORK_AXES", "NETWORK_METRICS",
        "NETWORK_TOTAL_NODE", "CONTROL_AXES", "CONTROL_METRICS",
        "CONTROL_TOTAL_EPOCH", "SURROGATE_AXES", "SURROGATE_METRICS",
        "campaign_plan", "run_campaign",
    ),
    ".comparison": ("ComparisonRecord",),
    "repro.api.figstore": ("DerivedRecordStore",),
    ".presets": ("PRESET_CAMPAIGNS", "campaign_names", "get_campaign"),
    ".reporting": ("render_report",),
})
