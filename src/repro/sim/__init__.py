"""Bit-accurate slotted simulation platform (paper Section 5.2).

The paper implements its platform in Simulink with C++ S-functions; this
package provides the equivalent in Python/numpy:

* :mod:`~repro.sim.ledger` — a per-component energy ledger (switches,
  wires, buffer accesses, refresh).
* :mod:`~repro.sim.tracer` — per-wire polarity tracking: every bus lane
  remembers its resting level, and transfers count *actual* bit flips of
  the real payload (Section 3.3's "only bits with flipped polarity
  consume energy").
* :mod:`~repro.sim.engine` — the reference slot loop: traffic ->
  ingress queues -> arbiter grants -> fabric transport -> egress
  accounting; also :func:`~repro.sim.engine.create_engine`, the
  engine selector.
* :mod:`~repro.sim.vector_engine` / :mod:`~repro.sim.cellstore` — the
  vectorized slot loop: struct-of-arrays cells, id-based queues, and
  batched per-slot wire-flip counting.  Bit-identical seeded results,
  several times faster.
* :mod:`~repro.sim.results` — measurement containers.
* :mod:`~repro.sim.runner` — ``run_simulation(...)``, the one-call API.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ledger": ("EnergyLedger",),
    ".tracer": ("WireTracer", "count_flips"),
    ".engine": ("ENGINES", "SimulationEngine", "create_engine"),
    ".vector_engine": ("VectorizedEngine",),
    ".results": ("EnergyBreakdown", "SimulationResult"),
    ".runner": ("run_simulation",),
})
