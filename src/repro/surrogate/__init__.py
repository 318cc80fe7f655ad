"""Surrogate-serving layer: instant what-if power queries.

Every layer below this one answers "what does this fabric/port-count/
load/tech cost in power?" by *running* something — a gate-level
characterisation, a closed-form estimate, or a cell-accurate
simulation.  That caps throughput far below the ROADMAP north star of
serving millions of what-if queries.  This package closes the gap with
a classic calibration / train / predict / drift split over the
ground-truth :class:`~repro.api.records.RunRecord` JSONL stores the
repo already accumulates:

* :mod:`repro.surrogate.dataset` — stream feature/target tables out of
  ``RunRecordStore`` / ``DerivedRecordStore`` files without
  materializing them (features: the full scenario context plus
  (load, ports); targets: throughput and total/per-component power).
* :mod:`repro.surrogate.train` — deterministic, dependency-free
  surrogates: per-context polynomial ridge on (log load, log2 ports)
  plus a nearest-operating-point interpolator, serialised as a
  JSON-round-trippable :class:`SurrogateModel` whose
  :meth:`~SurrogateModel.content_hash` is tied to the training-store
  hash.
* :mod:`repro.surrogate.predict` — microsecond ``predict(scenario)``
  with a per-prediction uncertainty band and an out-of-distribution
  gate (feature-range + leverage check) that transparently falls back
  to :meth:`repro.api.model.PowerModel.run` — bit-identical to a
  direct run whenever it falls back.
* :mod:`repro.surrogate.drift` — replays the held-out validation slice
  of a store against the model and flags when fresh simulation records
  disagree beyond tolerance, forcing a retrain.
* :mod:`repro.surrogate.serve` — a stdlib-only asyncio HTTP JSON API
  (``repro serve``) with ``/predict``, ``/batch``, ``/health`` and
  ``/stats``, JSONL request journaling, and graceful degradation
  through :mod:`repro.resilience` retry policies when a fallback
  simulation fails.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".dataset": (
        "TARGET_FIELDS", "DatasetRow", "SurrogateDataset", "context_signature",
        "dataset_from_records", "extract_dataset",
    ),
    ".train": ("SurrogateModel", "train_surrogate", "is_holdout_key"),
    ".predict": ("Prediction", "SurrogatePredictor"),
    ".drift": ("DriftReport", "check_drift"),
    ".serve": ("SurrogateServer",),
})
