"""Unified result schema for analytical and simulated runs.

The legacy entry points return two unrelated types —
:class:`~repro.core.estimator.AnalyticalPowerEstimate` and
:class:`~repro.sim.results.SimulationResult` — with different field
names for the same quantities.  :class:`RunRecord` wraps either in one
field set so batch reports, CSV/JSON export, and cross-backend
comparisons never need to know which backend produced a row.  The
backend-specific object stays reachable via :attr:`RunRecord.detail`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.core.estimator import AnalyticalPowerEstimate
from repro.errors import ConfigurationError
from repro.serial import dumps_indented
from repro.sim.results import EnergyBreakdown, SimulationResult

from repro.api.scenario import Scenario

#: Column order of the CSV export (and of ``to_dict``'s flat fields).
CSV_COLUMNS = (
    "name",
    "backend",
    "architecture",
    "ports",
    "load",
    "throughput",
    "total_power_w",
    "switch_power_w",
    "wire_power_w",
    "buffer_power_w",
    "energy_per_bit_j",
    "tech",
    "wire_mode",
    "engine",
    "queueing",
    "seed",
    "rng_stream",
    "elapsed_s",
)


@dataclass(frozen=True)
class RunRecord:
    """One executed scenario with backend-independent headline numbers.

    Attributes
    ----------
    scenario:
        The scenario that was run (after validation/canonicalisation).
    backend:
        ``"estimate"`` or ``"simulate"`` — which engine produced it.
    throughput:
        Achieved egress throughput.  Equals the scenario load for the
        analytical backend; measured for the simulated one.
    total_power_w / switch_power_w / wire_power_w / buffer_power_w:
        Power and its component breakdown.
    energy_per_bit_j:
        Energy per delivered payload bit.
    elapsed_s:
        Wall-clock execution time of this run.
    detail:
        The backend-native result object
        (:class:`AnalyticalPowerEstimate` or :class:`SimulationResult`).
    """

    scenario: Scenario
    backend: str
    throughput: float
    total_power_w: float
    switch_power_w: float
    wire_power_w: float
    buffer_power_w: float
    energy_per_bit_j: float
    elapsed_s: float
    detail: AnalyticalPowerEstimate | SimulationResult

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_estimate(
        cls,
        scenario: Scenario,
        estimate: AnalyticalPowerEstimate,
        elapsed_s: float = 0.0,
    ) -> "RunRecord":
        return cls(
            scenario=scenario,
            backend="estimate",
            throughput=estimate.throughput,
            total_power_w=estimate.total_power_w,
            switch_power_w=estimate.switch_power_w,
            wire_power_w=estimate.wire_power_w,
            buffer_power_w=estimate.buffer_power_w,
            energy_per_bit_j=estimate.bit_energy_j,
            elapsed_s=elapsed_s,
            detail=estimate,
        )

    @classmethod
    def from_simulation(
        cls,
        scenario: Scenario,
        result: SimulationResult,
        elapsed_s: float = 0.0,
    ) -> "RunRecord":
        return cls(
            scenario=scenario,
            backend="simulate",
            throughput=result.throughput,
            total_power_w=result.total_power_w,
            switch_power_w=result.switch_power_w,
            wire_power_w=result.wire_power_w,
            buffer_power_w=result.buffer_power_w,
            energy_per_bit_j=result.energy_per_delivered_bit_j,
            elapsed_s=elapsed_s,
            detail=result,
        )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def architecture(self) -> str:
        return self.scenario.architecture

    @property
    def ports(self) -> int:
        return self.scenario.ports

    @property
    def load(self) -> float:
        return self.scenario.load

    @property
    def name(self) -> str:
        return self.scenario.label

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-safe dict: headline numbers plus the scenario.

        ``load`` is always the scalar (mean) load so the column stays
        numeric; a per-port vector additionally appears as
        ``load_per_port`` (and, exactly, inside the nested scenario).
        """
        tech = self.scenario.tech
        vector = self.scenario.load if isinstance(
            self.scenario.load, tuple
        ) else None
        return {
            "name": self.name,
            "backend": self.backend,
            "architecture": self.architecture,
            "ports": self.ports,
            "load": self.scenario.mean_load,
            "load_per_port": list(vector) if vector is not None else None,
            "throughput": self.throughput,
            "total_power_w": self.total_power_w,
            "switch_power_w": self.switch_power_w,
            "wire_power_w": self.wire_power_w,
            "buffer_power_w": self.buffer_power_w,
            "energy_per_bit_j": self.energy_per_bit_j,
            "tech": tech if isinstance(tech, str) else tech.name,
            "wire_mode": self.scenario.wire_mode.value,
            "seed": self.scenario.seed,
            "rng_stream": self.scenario.rng_stream,
            "engine": self.scenario.engine,
            "queueing": self.scenario.queueing,
            "elapsed_s": self.elapsed_s,
            "scenario": self.scenario.to_dict(),
        }

    def csv_row(self) -> list[Any]:
        flat = self.to_dict()
        return [flat[col] for col in CSV_COLUMNS]

    # ------------------------------------------------------------------
    # Lossless round-trip (the on-disk result cache)
    # ------------------------------------------------------------------

    def to_cache_dict(self) -> dict[str, Any]:
        """A JSON-safe dict :meth:`from_cache_dict` rebuilds exactly —
        including the backend-native ``detail`` object."""
        return {
            "backend": self.backend,
            "throughput": self.throughput,
            "total_power_w": self.total_power_w,
            "switch_power_w": self.switch_power_w,
            "wire_power_w": self.wire_power_w,
            "buffer_power_w": self.buffer_power_w,
            "energy_per_bit_j": self.energy_per_bit_j,
            "elapsed_s": self.elapsed_s,
            "scenario": self.scenario.to_dict(),
            "detail": dataclasses.asdict(self.detail),
        }

    @classmethod
    def from_cache_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record written by :meth:`to_cache_dict`."""
        scenario = Scenario.from_dict(data["scenario"])
        detail_data = dict(data["detail"])
        backend = data["backend"]
        if backend == "simulate":
            detail_data["energy"] = EnergyBreakdown(**detail_data["energy"])
            detail: Any = SimulationResult(**detail_data)
        elif backend == "estimate":
            detail = AnalyticalPowerEstimate(**detail_data)
        else:
            raise ConfigurationError(
                f"cached record has unknown backend {backend!r}"
            )
        return cls(
            scenario=scenario,
            backend=backend,
            throughput=data["throughput"],
            total_power_w=data["total_power_w"],
            switch_power_w=data["switch_power_w"],
            wire_power_w=data["wire_power_w"],
            buffer_power_w=data["buffer_power_w"],
            energy_per_bit_j=data["energy_per_bit_j"],
            elapsed_s=data["elapsed_s"],
            detail=detail,
        )


def records_to_json(records: Iterable[RunRecord]) -> str:
    """A JSON report: array of :meth:`RunRecord.to_dict` objects."""
    return dumps_indented([r.to_dict() for r in records])


def records_to_csv(records: Iterable[RunRecord]) -> str:
    """A CSV report with the :data:`CSV_COLUMNS` header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.csv_row())
    return buffer.getvalue()


def summary_rows(records: Sequence[RunRecord]) -> list[list[str]]:
    """Rows for :func:`repro.analysis.report.format_table` summaries."""
    rows = []
    for r in records:
        rows.append(
            [
                r.name,
                r.backend,
                f"{r.throughput:.3f}",
                f"{r.total_power_w * 1e3:.4f}",
                f"{r.energy_per_bit_j * 1e12:.2f}",
                f"{r.elapsed_s:.2f}",
            ]
        )
    return rows
