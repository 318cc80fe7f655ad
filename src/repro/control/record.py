"""ControlRecord: power vs time plus the savings-vs-SLA curve.

One executed :class:`~repro.control.spec.ControlSpec` produces one
record: a per-epoch table (chosen configuration, link/port up-counts,
power split into fabric / ports / propagation / transitions, savings
against the fixed-routing baseline) evaluated at the primary
``max_utilization`` headroom, plus one summary row per headroom in the
SLA sweep.  Export follows the house conventions: deterministic CSV
(floats at full repr precision, ``\\n`` line terminator), GitHub
markdown, and a JSON round trip that drops only the runtime ``detail``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.serial import check_fields, csv_table, markdown_table, parse_json

from repro.control.spec import ControlSpec

#: Per-epoch CSV columns of :meth:`ControlRecord.to_csv` (axis columns
#: first, then metrics — the ComparisonRecord convention).
EPOCH_COLUMNS = (
    "epoch",
    "start_s",
    "scale",
    "total_demand",
    "config",
    "links_up",
    "links_asleep",
    "powered_ports",
    "max_link_utilization",
    "fabric_power_w",
    "port_power_w",
    "propagation_power_w",
    "transition_power_w",
    "power_w",
    "fixed_power_w",
    "savings_w",
)

#: Per-headroom CSV columns of :meth:`ControlRecord.sla_to_csv` — the
#: savings-vs-SLA curve.
SLA_COLUMNS = (
    "max_utilization",
    "energy_j",
    "fixed_energy_j",
    "savings_j",
    "savings_pct",
    "mean_power_w",
    "peak_power_w",
    "mean_links_up",
    "min_links_up",
)


@dataclass
class ControlRecord:
    """Aggregate result of one executed control spec.

    Attributes
    ----------
    spec:
        The control spec that produced the record.
    epochs:
        One dict per epoch at the primary headroom (see
        :data:`EPOCH_COLUMNS`).
    sla:
        One dict per evaluated headroom (see :data:`SLA_COLUMNS`),
        sorted by headroom — the savings-vs-SLA curve.
    totals:
        Series-wide aggregates: ``energy_j`` / ``fixed_energy_j`` /
        ``savings_j`` / ``savings_pct``, mean and peak power, mean
        fixed power and savings, link up-count stats, epoch count and
        durations.
    detail:
        Runtime-only payload (not serialised): ``{"epoch_records":
        [NetworkRecord, ...], "baselines": {scale: NetworkRecord}}``;
        ``None`` after a JSON round trip.
    """

    spec: ControlSpec
    epochs: list[dict[str, Any]] = field(default_factory=list)
    sla: list[dict[str, Any]] = field(default_factory=list)
    totals: dict[str, Any] = field(default_factory=dict)
    detail: Any = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def epoch(self, index: int) -> dict[str, Any]:
        for row in self.epochs:
            if row["epoch"] == index:
                return row
        raise ConfigurationError(f"no epoch {index!r} in the record")

    @property
    def savings_j(self) -> float:
        return self.totals["savings_j"]

    # ------------------------------------------------------------------
    # Export (deterministic: floats at full repr precision)
    # ------------------------------------------------------------------

    def to_csv(self) -> str:
        """Per-epoch CSV (axis column ``epoch`` first, then metrics)."""
        return csv_table(EPOCH_COLUMNS, self.epochs)

    def sla_to_csv(self) -> str:
        """Savings-vs-SLA curve CSV (one row per headroom)."""
        return csv_table(SLA_COLUMNS, self.sla)

    def to_markdown(self, float_format: str = "{:.6g}") -> str:
        """A GitHub-flavoured pipe table of the epoch rows plus totals."""
        return (
            markdown_table(EPOCH_COLUMNS, self.epochs, float_format)
            + "\n\n"
            f"**Total**: {float_format.format(self.totals['energy_j'])} J "
            f"over {self.totals['epochs']} epochs "
            f"(fixed {float_format.format(self.totals['fixed_energy_j'])} J; "
            f"saved {float_format.format(self.totals['savings_j'])} J = "
            f"{float_format.format(self.totals['savings_pct'])}%)"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it (minus
        :attr:`detail`)."""
        return {
            "spec": self.spec.to_dict(),
            "epochs": [dict(row) for row in self.epochs],
            "sla": [dict(row) for row in self.sla],
            "totals": dict(self.totals),
        }

    def to_json(self, indent: int = 2, **dumps_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), indent=indent, **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Any) -> "ControlRecord":
        data = check_fields(data, "control-record",
                            ("spec", "epochs", "sla", "totals"))
        return cls(
            spec=ControlSpec.from_dict(data["spec"]),
            epochs=[dict(row) for row in data["epochs"]],
            sla=[dict(row) for row in data["sla"]],
            totals=dict(data["totals"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "ControlRecord":
        return cls.from_dict(parse_json(text, "control-record"))
