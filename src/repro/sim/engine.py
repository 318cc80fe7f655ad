"""The slot loop: traffic -> ingress -> arbiter -> fabric -> egress.

One engine slot is the line-rate time of one cell.  Per slot:

1. the traffic generator's packets enter their ingress queues;
2. the arbiter grants a destination-distinct set of head-of-line cells,
   respecting fabric admission (banyan backpressure) — FIFO round-robin
   or, for VOQ routers, K-iteration iSLIP matching;
3. the fabric transports cells (paying switch/wire/buffer energy);
4. delivered cells are accounted (and reassembled) at egress.

The run is split into three phases: *warmup* (statistics discarded at
the end), *measurement* (arrivals continue; power and throughput come
from this window), and *drain* (arrivals stop; the fabric and queues
flush so no energy is silently lost).

Two tiers share these semantics and one seeded RNG stream per
scenario: this module's object-based :class:`SimulationEngine` (the
reference oracle) and the struct-of-arrays
:class:`~repro.sim.vector_engine.VectorizedEngine` (the default,
several times faster).  :func:`create_engine` selects between them,
resolving fabric support through :mod:`repro.fabrics.registry`.  The
exact-equality cross-check matrix in
``tests/test_engine_equivalence.py`` keeps both bit-identical.  The
slot data flow is drawn in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.router.router import NetworkRouter
from repro.sim import ledger as categories
from repro.sim.results import (
    EnergyBreakdown,
    SimulationResult,
    check_run_invariants,
)

#: Selectable slot-loop implementations (see :func:`create_engine`).
ENGINES = ("vectorized", "reference")


def create_engine(
    router: NetworkRouter,
    seed: int | None = 12345,
    engine: str = "vectorized",
):
    """Build the requested slot-loop engine over an assembled router.

    ``engine="vectorized"`` (default) returns the array-based
    :class:`~repro.sim.vector_engine.VectorizedEngine`, which produces
    bit-identical seeded results to ``engine="reference"`` (this
    module's :class:`SimulationEngine`, the oracle) for every router
    whose fabric has a vector core in
    :mod:`repro.fabrics.registry` — the four built-ins plus any custom
    fabric registered with ``vector_core=...`` — under FIFO or
    VOQ/iSLIP queueing.  A fabric registered without a vector core (or
    an unregistered custom arbiter/router subclass) raises
    :class:`~repro.errors.ConfigurationError` naming the registered
    cores and the selected engine — pass ``engine="reference"`` there.
    """
    if engine == "reference":
        return SimulationEngine(router, seed=seed)
    if engine == "vectorized":
        from repro.sim.vector_engine import VectorizedEngine

        return VectorizedEngine(router, seed=seed)
    raise ConfigurationError(
        f"unknown engine {engine!r}; expected one of {ENGINES}"
    )


class SimulationEngine:
    """Runs a :class:`~repro.router.router.NetworkRouter` through slots.

    Parameters
    ----------
    router: the assembled router.
    seed: seed for the run's random generator (payloads, arrivals).
    """

    def __init__(self, router: NetworkRouter, seed: int | None = 12345) -> None:
        self.router = router
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._slot = 0
        self._cells_out = 0  # delivered over the whole run

    # ------------------------------------------------------------------

    def step(self, generate_arrivals: bool = True) -> list:
        """Advance one slot; returns the cells delivered in it."""
        router = self.router
        if generate_arrivals:
            packets = router.traffic.arrivals(self._slot, self.rng)
            router.accept_arrivals(packets)
        admitted = router.arbitrate(self._slot)
        delivered = router.fabric.advance_slot(admitted, self._slot)
        router.egress.tick()
        router.egress.deliver(delivered, self._slot)
        self._cells_out += len(delivered)
        self._slot += 1
        return delivered

    def run(
        self,
        arrival_slots: int,
        warmup_slots: int = 0,
        drain: bool = True,
        max_drain_slots: int = 20000,
    ) -> SimulationResult:
        """Execute warmup + measurement + drain; return the result.

        Parameters
        ----------
        arrival_slots:
            Slots (after warmup) during which traffic arrives — the
            measurement window.
        warmup_slots:
            Initial slots whose statistics are discarded.
        drain:
            After arrivals stop, keep advancing until ingress queues and
            the fabric are empty (or ``max_drain_slots`` is hit).  Drain
            energy is included so no dissipation is lost; drain slots
            are reported separately.
        """
        if arrival_slots < 1:
            raise ConfigurationError("arrival_slots must be >= 1")
        if warmup_slots < 0 or max_drain_slots < 0:
            raise ConfigurationError("negative slot counts")
        router = self.router

        for _ in range(warmup_slots):
            self.step(generate_arrivals=True)
        router.reset_measurements()
        router.egress.start_measurement()

        for _ in range(arrival_slots):
            self.step(generate_arrivals=True)
        # Throughput is measured over the arrival window only (egress
        # cells per port-slot while traffic flows, as in the paper);
        # drain energy is still collected below so none is lost.
        router.egress.stop_measurement()

        drain_slots = 0
        if drain:
            while (
                router.ingress_backlog_cells > 0
                or router.fabric.in_flight() > 0
            ) and drain_slots < max_drain_slots:
                self.step(generate_arrivals=False)
                drain_slots += 1

        return self._collect(arrival_slots, warmup_slots, drain_slots)

    # ------------------------------------------------------------------

    def _collect(
        self, arrival_slots: int, warmup_slots: int, drain_slots: int
    ) -> SimulationResult:
        router = self.router
        ledger = router.fabric.ledger
        check_run_invariants(
            ledger,
            sum(unit.stats.cells_in for unit in router.ingress),
            self._cells_out,
            router.ingress_backlog_cells,
            router.fabric.in_flight(),
        )
        energy = EnergyBreakdown(
            switch_j=ledger.category_total_j(categories.SWITCH),
            wire_j=ledger.category_total_j(categories.WIRE),
            buffer_j=ledger.category_total_j(categories.BUFFER),
            refresh_j=ledger.category_total_j(categories.REFRESH),
        )
        stats = router.egress.stats
        offered = getattr(router.traffic, "load", float("nan"))
        return SimulationResult(
            architecture=router.fabric.architecture,
            ports=router.ports,
            offered_load=offered,
            arrival_slots=arrival_slots,
            warmup_slots=warmup_slots,
            drain_slots=drain_slots,
            slot_seconds=router.slot_seconds,
            energy=energy,
            throughput=stats.measured_cells
            / (router.ports * max(stats.measurement_slots, 1)),
            delivered_cells=stats.cells_delivered,
            delivered_payload_bits=stats.payload_bits_delivered,
            packets_completed=stats.packets_completed,
            latency=router.egress.latency_stats(),
            counters=ledger.counters(),
            ingress_backlog_cells=router.ingress_backlog_cells,
            fabric_in_flight_cells=router.fabric.in_flight(),
            seed=self.seed,
        )
