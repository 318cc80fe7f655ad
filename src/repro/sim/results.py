"""Measurement containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.ledger import CATEGORIES
from repro.units import to_mW


def check_run_invariants(
    ledger, cells_in: int, cells_out: int, backlog: int, in_flight: int
) -> None:
    """Raise :class:`SimulationError` unless every admitted cell of the
    run (warmup included) was delivered, is queued or is in flight, and
    every ledger entry is >= 0.  Both engines call this at collection."""
    if cells_in != cells_out + backlog + in_flight:
        raise SimulationError(
            f"cells not conserved: {cells_in} admitted, {cells_out} "
            f"delivered, {backlog} queued, {in_flight} in the fabric"
        )
    tables = [ledger.counters()]
    tables += [ledger.component_dict(category) for category in CATEGORIES]
    bad = {k: v for table in tables for k, v in table.items() if not v >= 0}
    if bad:
        raise SimulationError(f"negative ledger entries: {bad}")


def latency_stats_from_slots(latency_slots: list[int]) -> dict[str, float]:
    """Summary statistics of packet latencies (in slots).

    The single implementation behind both engines' latency reporting —
    the vectorized/reference exact-equality contract depends on them
    sharing it.
    """
    if not latency_slots:
        return {"count": 0, "mean": 0.0, "max": 0.0, "p95": 0.0}
    values = sorted(latency_slots)
    count = len(values)
    p95_index = min(count - 1, int(0.95 * count))
    return {
        "count": count,
        "mean": sum(values) / count,
        "max": float(values[-1]),
        "p95": float(values[p95_index]),
    }


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy by bit-energy component (joules), mirroring Section 3.

    ``buffer_j`` is access energy (``E_access``), ``refresh_j`` the
    DRAM-only ``E_ref`` term; together they are Eq. 1's ``E_B``.
    """

    switch_j: float
    wire_j: float
    buffer_j: float
    refresh_j: float

    @property
    def total_j(self) -> float:
        return self.switch_j + self.wire_j + self.buffer_j + self.refresh_j

    @property
    def buffer_total_j(self) -> float:
        """Eq. 1: access plus refresh energy."""
        return self.buffer_j + self.refresh_j

    def fraction(self, component: str) -> float:
        """Share of total energy for 'switch' / 'wire' / 'buffer'."""
        total = self.total_j
        if total == 0:
            return 0.0
        values = {
            "switch": self.switch_j,
            "wire": self.wire_j,
            "buffer": self.buffer_total_j,
        }
        return values[component] / total

    @property
    def dominant(self) -> str:
        """The component carrying the most energy (Observation 2)."""
        values = {
            "switch": self.switch_j,
            "wire": self.wire_j,
            "buffer": self.buffer_total_j,
        }
        return max(values, key=values.get)


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured by one simulation run.

    Power figures divide measured energy by the measurement window
    (excluding warmup); throughput is egress cells per port-slot over
    the same window, exactly as the paper measures it.
    """

    architecture: str
    ports: int
    offered_load: float
    arrival_slots: int
    warmup_slots: int
    drain_slots: int
    slot_seconds: float
    energy: EnergyBreakdown
    throughput: float
    delivered_cells: int
    delivered_payload_bits: int
    packets_completed: int
    latency: dict[str, float]
    counters: dict[str, int]
    ingress_backlog_cells: int
    fabric_in_flight_cells: int
    seed: int | None = None

    # ------------------------------------------------------------------

    @property
    def measurement_slots(self) -> int:
        """Slots in the power/throughput measurement window."""
        return self.arrival_slots + self.drain_slots

    @property
    def measurement_seconds(self) -> float:
        return self.measurement_slots * self.slot_seconds

    @property
    def total_power_w(self) -> float:
        if self.measurement_seconds == 0:
            return 0.0
        return self.energy.total_j / self.measurement_seconds

    @property
    def switch_power_w(self) -> float:
        return self._power(self.energy.switch_j)

    @property
    def wire_power_w(self) -> float:
        return self._power(self.energy.wire_j)

    @property
    def buffer_power_w(self) -> float:
        return self._power(self.energy.buffer_total_j)

    def _power(self, energy_j: float) -> float:
        seconds = self.measurement_seconds
        return energy_j / seconds if seconds else 0.0

    @property
    def energy_per_delivered_bit_j(self) -> float:
        """Measured ``E_bit``: joules per delivered payload bit."""
        if self.delivered_payload_bits == 0:
            return 0.0
        return self.energy.total_j / self.delivered_payload_bits

    def summary(self) -> str:
        """One human-readable block with the headline numbers."""
        lines = [
            f"{self.architecture} {self.ports}x{self.ports} "
            f"@ offered {self.offered_load:.2f}",
            f"  throughput (egress): {self.throughput:.3f}",
            f"  power: {to_mW(self.total_power_w):.3f} mW "
            f"(switch {to_mW(self.switch_power_w):.3f}, "
            f"wire {to_mW(self.wire_power_w):.3f}, "
            f"buffer {to_mW(self.buffer_power_w):.3f})",
            f"  E_bit: {self.energy_per_delivered_bit_j * 1e12:.2f} pJ/bit, "
            f"dominant: {self.energy.dominant}",
            f"  cells delivered: {self.delivered_cells}, "
            f"packets completed: {self.packets_completed}",
        ]
        return "\n".join(lines)
