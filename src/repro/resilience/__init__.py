"""Resilient execution: retries, fault injection, checkpoint/resume.

A multi-hour campaign dies today the way production campaigns die: one
OOM-killed pool worker, one hung slot loop, one corrupted JSONL cache
line.  This package is the supervision layer that keeps the campaign
alive and its results bit-identical:

* :class:`~repro.resilience.policy.RetryPolicy` — max attempts,
  exponential backoff with deterministic jitter, per-unit wall-clock
  timeout, and the failure disposition (raise vs record explicit
  holes).
* :class:`~repro.resilience.supervisor.Supervisor` — wraps every
  execution unit of :meth:`repro.api.PowerModel.run_batch`: retries
  transient errors, degrades vectorized → reference engine and
  process → thread executor on repeated failure, respawns a broken
  process pool and re-submits only unfinished units, and cancels
  cleanly on Ctrl-C.
* :class:`~repro.resilience.journal.CampaignJournal` — a JSONL
  checkpoint of per-unit outcomes keyed by campaign content hash;
  ``repro campaign run --resume`` replays completed units and re-runs
  only failures.
* :class:`~repro.resilience.faults.FaultPlan` — deterministic, seeded
  fault injection (worker crashes, hangs, transient exceptions,
  corrupted store lines) used by ``tests/test_resilience.py`` and the
  chaos CI job to prove every recovery path.
* :class:`~repro.resilience.records.FailureRecord` /
  :class:`~repro.resilience.records.BatchReport` — the failure surface
  campaign and network records carry so partial results export with
  explicit holes instead of crashing.

Because retries re-run the same seeded scenario and every degradation
rung is bit-identical to the planned path, a recovered campaign's
exports are byte-identical to a fault-free run — the headline
guarantee the chaos CI job gates on.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".faults": (
        "FAULT_KINDS", "Fault", "FaultPlan", "SimulatedCrash",
        "TransientFault", "apply_fault", "corrupt_line",
    ),
    ".journal": ("CampaignJournal",),
    ".policy": ("RetryPolicy",),
    ".records": ("BatchReport", "FailureRecord"),
    ".supervisor": ("Supervisor",),
})
