"""repro.api — the unified scenario/session experiment surface.

This is the canonical way to describe and run experiments:

>>> from repro.api import PowerModel, Scenario
>>> session = PowerModel()
>>> fast = session.estimate(Scenario("banyan", 32, 0.3))
>>> slow = session.simulate(Scenario("banyan", 32, 0.3, arrival_slots=400))
>>> batch = session.run_batch(
...     Scenario.grid(architectures=("crossbar", "banyan"),
...                   loads=(0.1, 0.3, 0.5)),
...     workers=4,
... )  # doctest: +SKIP

* :class:`Scenario` — frozen, validated experiment description with
  JSON round-trip, named presets and :meth:`Scenario.grid` expansion.
* :class:`PowerModel` — a session caching wire models, switch LUTs and
  buffer models per technology/fabric; ``estimate``/``simulate``/
  ``run``/``run_batch``.
* :class:`RunRecord` — one result schema for both backends with
  ``to_json``/CSV export.
* :class:`~repro.wire_modes.WireMode` — the single wire-accounting
  vocabulary, translated per backend.
* :class:`RunRecordStore` — the append-only JSONL result cache keyed by
  ``Scenario.content_hash()`` (``run_batch(store=...)``).
* :class:`DerivedRecordStore` — the derived-figure cache of whole
  aggregated records (campaign ``ComparisonRecord`` / network
  ``NetworkRecord`` JSON keyed by content hash), so warm reports need
  no session.

Scenarios default to the vectorized slot-loop engine
(``engine="vectorized"``; the object-based ``"reference"`` oracle is
bit-identical) and resolve architectures through
:mod:`repro.fabrics.registry`, so registered custom fabrics validate
and run like the built-ins.

One level up, :mod:`repro.campaigns` composes scenarios into
declarative multi-configuration campaigns (the paper's figures and
tables) executed through :meth:`PowerModel.run_batch` and aggregated
into one ``ComparisonRecord``.

The legacy entry points (``repro.estimate_power``,
``repro.run_simulation``) remain as compatibility shims over
:func:`default_session`.  The layer map lives in
``docs/ARCHITECTURE.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.wire_modes": ("WireMode",),
    ".scenario": (
        "Scenario", "BACKENDS", "TRAFFIC_KINDS", "PRESET_SCENARIOS", "preset",
        "preset_scenarios", "load_scenarios",
    ),
    ".records": (
        "RunRecord", "CSV_COLUMNS", "records_to_json", "records_to_csv",
        "summary_rows",
    ),
    ".model": (
        "PowerModel", "default_session", "reset_default_session", "run_batch",
    ),
    ".store": ("RunRecordStore",),
    ".figstore": ("DerivedRecordStore",),
})
