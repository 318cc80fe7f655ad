"""Aggregated campaign results: one keyed record per comparison.

A :class:`ComparisonRecord` is to a campaign what
:class:`~repro.api.records.RunRecord` is to a scenario: every executed
point of the grid (or every regenerated table row) lives in one object,
keyed by the campaign's axes, with

* per-axis pivots (:meth:`ComparisonRecord.pivot` — e.g. load rows x
  architecture columns of total power, which *is* Fig. 9),
* analytical-vs-simulated deltas for campaigns that run both backends
  (:meth:`ComparisonRecord.backend_deltas`),
* Fig. 10-style read-off at a target egress throughput
  (:meth:`ComparisonRecord.interpolated_power`), and
* deterministic CSV / JSON / markdown export — floats are written with
  full ``repr`` precision, so a re-run of a seeded campaign is
  byte-identical.

The record itself JSON round-trips (:meth:`to_dict` /
:meth:`from_dict`); only :attr:`detail` — the runtime payload (the
constituent ``RunRecord`` list for grid campaigns, the raw
characterisation dict for Table 1) — is dropped on serialisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.api.scenario import _thaw_value
from repro.errors import ConfigurationError
from repro.serial import (
    check_fields, csv_table, dumps_indented, markdown_table, parse_json,
)

from repro.campaigns.campaign import Campaign
from repro.resilience.records import FailureRecord


def _match(point: Mapping[str, Any], where: Mapping[str, Any]) -> bool:
    return all(point.get(k) == v for k, v in where.items())


def _hashable(value: Any) -> Any:
    """A dict-key-safe spelling of an axis value (per-port load vectors
    are stored as lists in points; group/pivot keys need tuples)."""
    if isinstance(value, list):
        return tuple(value)
    return value


@dataclass
class ComparisonRecord:
    """Keyed result object of one executed campaign.

    Attributes
    ----------
    campaign:
        The campaign that produced the record.
    axes:
        Key column names; each point carries one value per axis.
    metrics:
        Value column names; each point carries one value per metric.
    points:
        One dict per executed point (axis + metric keys), in the
        campaign's deterministic nesting order.
    detail:
        Runtime-only payload (not serialised): the ``RunRecord`` list
        for grid campaigns, the full characterisation dict for Table 1,
        ``None`` after a JSON round-trip.
    failures:
        :class:`~repro.resilience.records.FailureRecord` list for
        points the supervisor gave up on (``on_failure="record"``) —
        the campaign's explicit holes.  Empty on a clean run, and
        omitted from the JSON form entirely, so clean exports are
        byte-identical to pre-resilience ones.
    """

    campaign: Campaign
    axes: tuple[str, ...]
    metrics: tuple[str, ...]
    points: list[dict[str, Any]] = field(default_factory=list)
    detail: Any = None
    failures: list[FailureRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Lookup and pivots
    # ------------------------------------------------------------------

    def select(self, **where: Any) -> list[dict[str, Any]]:
        """Points whose axis/metric values equal every ``where`` item."""
        return [p for p in self.points if _match(p, where)]

    def point(self, **where: Any) -> dict[str, Any]:
        """The single point matching ``where`` (raises on 0 or >1)."""
        found = self.select(**where)
        if len(found) != 1:
            raise ConfigurationError(
                f"expected exactly one point for {where}, found {len(found)}"
            )
        return found[0]

    def axis_values(self, axis: str) -> list[Any]:
        """Distinct values of one axis, in first-seen (grid) order."""
        if axis not in self.axes:
            raise ConfigurationError(
                f"unknown axis {axis!r}; axes: {self.axes}"
            )
        seen: list[Any] = []
        for p in self.points:
            if p[axis] not in seen:
                seen.append(p[axis])
        return seen

    def pivot(
        self,
        rows: str,
        cols: str,
        metric: str,
        where: Mapping[str, Any] | None = None,
    ) -> dict[Any, dict[Any, Any]]:
        """A two-axis pivot: ``{row_value: {col_value: metric}}``.

        ``where`` pins the remaining axes; the pivot raises if two
        points collapse onto one cell (an under-constrained pivot would
        silently report an arbitrary run).  Per-port load vectors
        appear as tuple keys.
        """
        if metric not in self.metrics and metric not in self.axes:
            raise ConfigurationError(
                f"unknown metric {metric!r}; metrics: {self.metrics}"
            )
        table: dict[Any, dict[Any, Any]] = {}
        for p in self.points:
            if where and not _match(p, where):
                continue
            row, col = _hashable(p[rows]), _hashable(p[cols])
            cell = table.setdefault(row, {})
            if col in cell:
                raise ConfigurationError(
                    f"pivot cell ({row!r}, {col!r}) is ambiguous: "
                    "pin the remaining axes with where={...}"
                )
            cell[col] = p[metric]
        return table

    # ------------------------------------------------------------------
    # Cross-backend and cross-load views
    # ------------------------------------------------------------------

    def backend_deltas(
        self, metric: str = "total_power_w"
    ) -> list[dict[str, Any]]:
        """Analytical-vs-simulated deltas per shared operating point.

        Pairs points that agree on every axis except ``backend`` and
        reports ``simulated``, ``estimated``, ``delta`` (simulated -
        estimated) and ``rel_delta`` (delta / estimated) per pair.
        Empty when the campaign ran a single backend.
        """
        key_axes = [a for a in self.axes if a != "backend"]
        by_key: dict[tuple, dict[str, dict[str, Any]]] = {}
        for p in self.points:
            key = tuple(_hashable(p[a]) for a in key_axes)
            by_key.setdefault(key, {})[p.get("backend", "simulate")] = p
        deltas = []
        for key, pair in by_key.items():
            if "simulate" not in pair or "estimate" not in pair:
                continue
            sim = pair["simulate"][metric]
            est = pair["estimate"][metric]
            row = dict(zip(key_axes, key))
            row.update(
                simulated=sim,
                estimated=est,
                delta=sim - est,
                rel_delta=(sim - est) / est if est else float("nan"),
            )
            deltas.append(row)
        return deltas

    def interpolated_power(
        self, target_throughput: float | None = None
    ) -> list[dict[str, Any]]:
        """Fig. 10-style read-off: power at a target egress throughput.

        For every group of points sharing all axes but ``load``, total
        power is linearly interpolated at ``target_throughput`` over
        the measured (throughput, power) series; a group that saturates
        below the target reports its power at saturation with
        ``saturated=True``, the closest point a measured curve reaches.

        ``target_throughput`` defaults to the campaign's
        ``params["target_throughput"]``.
        """
        if target_throughput is None:
            target_throughput = self.campaign.params_dict.get(
                "target_throughput"
            )
        if target_throughput is None:
            raise ConfigurationError(
                "no target_throughput given and the campaign params "
                "define none"
            )
        group_axes = [a for a in self.axes if a != "load"]
        groups: dict[tuple, list[dict[str, Any]]] = {}
        for p in self.points:
            groups.setdefault(
                tuple(_hashable(p[a]) for a in group_axes), []
            ).append(p)
        out = []
        for key, pts in groups.items():
            series = sorted(pts, key=lambda p: p["throughput"])
            xs = [p["throughput"] for p in series]
            ys = [p["total_power_w"] for p in series]
            saturated = xs[-1] < target_throughput
            power = ys[-1] if saturated else float(
                np.interp(target_throughput, xs, ys)
            )
            row = dict(zip(group_axes, key))
            row.update(
                target_throughput=target_throughput,
                power_w=power,
                saturated=saturated,
            )
            out.append(row)
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.axes) + tuple(self.metrics)

    def to_csv(self) -> str:
        """Deterministic CSV: axis columns then metric columns, one row
        per point, floats at full ``repr`` precision."""
        return csv_table(self.columns, self.points)

    def to_markdown(self, float_format: str = "{:.6g}") -> str:
        """A GitHub-flavoured pipe table of every point."""
        return markdown_table(self.columns, self.points, float_format)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it (minus
        :attr:`detail`).  ``failures`` appears only when nonempty, so
        a clean run's JSON is byte-identical to pre-resilience output
        (and old cached records still load)."""
        out = {
            "campaign": self.campaign.to_dict(),
            "axes": list(self.axes),
            "metrics": list(self.metrics),
            "points": [
                {k: _thaw_value(v) for k, v in p.items()}
                for p in self.points
            ],
        }
        if self.failures:
            out["failures"] = [f.to_dict() for f in self.failures]
        return out

    def to_json(self) -> str:
        return dumps_indented(self.to_dict())

    @classmethod
    def from_dict(cls, data: Any) -> "ComparisonRecord":
        data = check_fields(data, "comparison-record",
                            ("campaign", "axes", "metrics", "points"),
                            ("failures",))
        return cls(
            campaign=Campaign.from_dict(data["campaign"]),
            axes=tuple(data["axes"]),
            metrics=tuple(data["metrics"]),
            points=[dict(p) for p in data["points"]],
            failures=[
                FailureRecord.from_dict(f) for f in data.get("failures", ())
            ],
        )

    @classmethod
    def from_json(cls, text: str) -> "ComparisonRecord":
        return cls.from_dict(parse_json(text, "comparison-record"))
