"""repro.control — the energy-aware control plane over time.

The data-plane layer (:mod:`repro.network`) answers "what does this
network burn under this matrix?".  This package drives that question
through *time* and *policy*: a frozen :class:`DemandSeries` scales one
base matrix through diurnal or step epochs, and per epoch a
:class:`ControlModel` evaluates three candidate configurations —

* **fixed**: the plain data plane (the no-control baseline),
* **states**: per-link power states (discrete rate adaptation plus
  sleep with a wake-energy transition charge) over fixed routing,
* **optimized**: Giroire-style greedy link pruning with re-routing
  inside an SLA utilization headroom, then the same overlay —

and keeps the cheapest, so per-epoch savings against fixed routing are
non-negative by construction.  The result is one :class:`ControlRecord`:
power vs time, link/port up-counts, and a savings-vs-SLA curve across
the configured headroom sweep, with deterministic CSV/JSON/markdown
export:

>>> from repro.control import run_control
>>> record = run_control("dumbbell_sleep_sweep")  # doctest: +SKIP
>>> record.totals["savings_pct"]                  # doctest: +SKIP

* :class:`DemandSeries` — demand over time, with ``flat`` / ``step`` /
  ``diurnal`` presets.
* :class:`ControlSpec` — data plane + series + the control knobs.
* :func:`optimize_routing` / :class:`GreenPlan` — the greedy pruner,
  projecting pruned routings back onto the full port map.
* :class:`ControlModel` / :class:`ControlRecord` / :func:`run_control`
  — execution, candidate choice, aggregation and export.
* :func:`get_control` / :data:`CONTROL_PRESETS` — the built-in specs.

CLI front end: ``repro control run|list|report``; campaign integration:
``Campaign(kind="control")`` in :mod:`repro.campaigns`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".demand": ("DemandSeries",),
    ".spec": ("ControlSpec",),
    ".optimizer": ("GreenPlan", "cable_key", "cables_of", "optimize_routing"),
    ".record": ("ControlRecord", "EPOCH_COLUMNS", "SLA_COLUMNS"),
    ".model": ("ControlModel", "render_control_report", "run_control"),
    ".presets": ("CONTROL_PRESETS", "control_names", "get_control"),
})
