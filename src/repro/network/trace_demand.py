"""Trace-driven demand: sampled traffic-matrix scales from a file.

:class:`TraceDemand` is the network-level sibling of
:class:`repro.router.traffic.TraceTraffic`: where a router trace
replays exact per-slot cell arrivals, a demand trace replays measured
*network load* — a time series of ``(t_seconds, scale)`` samples that
multiply one base :class:`~repro.network.traffic_matrix.TrafficMatrix`
(the shape of an SNMP byte-counter export or a Topology-Zoo demand
log).  Like every spec in this codebase it is frozen, JSON
round-trippable, and content-hashable, so traces participate in cache
keys exactly like synthetic workloads.

The bridge into the control plane is :meth:`TraceDemand.series`: the
samples are resampled onto a fixed epoch grid (per-epoch means, gaps
carrying the last seen level forward) and become a
:class:`~repro.control.demand.DemandSeries`, after which every
energy-aware knob — green routing, sleep states, switch-off sweeps —
runs unchanged on measured demand.

File formats accepted by :meth:`TraceDemand.from_file`:

* JSON: ``{"samples": [[t_seconds, scale], ...]}`` (optionally with
  ``"name"``).
* CSV/text: one ``t_seconds,scale`` pair per line; blank lines, ``#``
  comments, and a non-numeric header line are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.serial import Spec, build, parse_json

from repro.network.traffic_matrix import TrafficMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.demand import DemandSeries


@dataclass(frozen=True)
class TraceSample:
    """One measured point: at ``t_seconds`` the load was ``scale`` x
    the base matrix."""

    t_seconds: float
    scale: float

    def __post_init__(self) -> None:
        if self.t_seconds < 0.0:
            raise ConfigurationError(
                f"trace sample time must be >= 0, got {self.t_seconds!r}"
            )
        if self.scale < 0.0:
            raise ConfigurationError(
                f"trace sample scale must be >= 0, got {self.scale!r}"
            )

    def to_dict(self) -> list[float]:
        return [self.t_seconds, self.scale]


def _coerce_sample(value: Any) -> TraceSample:
    if isinstance(value, TraceSample):
        return value
    if isinstance(value, Mapping):
        return build(TraceSample, value, "trace-sample")
    if isinstance(value, Sequence) and len(value) == 2:
        return TraceSample(float(value[0]), float(value[1]))
    raise ConfigurationError(
        f"expected a TraceSample, mapping, or [t, scale] pair, got "
        f"{value!r}"
    )


@dataclass(frozen=True)
class TraceDemand(Spec):
    """A frozen demand trace: ``base`` matrix x sampled scale series.

    >>> base = TrafficMatrix.uniform(("a", "b"), 0.4)
    >>> trace = TraceDemand("day", base, ((0.0, 0.5), (3600.0, 1.0)))
    >>> trace.samples[0].scale
    0.5

    Samples are canonically sorted by time; duplicate timestamps are
    rejected (two measurements at one instant are a corrupt trace, not
    an averaging opportunity).
    """

    name: str
    base: TrafficMatrix
    samples: tuple[TraceSample, ...]

    noun = "trace-demand"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a trace demand needs a name")
        object.__setattr__(
            self, "base", TrafficMatrix.coerce(self.base, "base")
        )
        samples = tuple(
            sorted(
                (_coerce_sample(s) for s in self.samples),
                key=lambda s: s.t_seconds,
            )
        )
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise ConfigurationError("a trace demand needs >= 1 sample")
        for a, b in zip(samples, samples[1:]):
            if a.t_seconds == b.t_seconds:
                raise ConfigurationError(
                    f"duplicate trace sample at t={a.t_seconds!r}"
                )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Time of the last sample (the trace starts at t=0)."""
        return self.samples[-1].t_seconds

    def scale_at(self, t_seconds: float) -> float:
        """The level in force at ``t_seconds``: the last sample at or
        before it (step/sample-and-hold semantics; before the first
        sample the first level holds)."""
        level = self.samples[0].scale
        for sample in self.samples:
            if sample.t_seconds > t_seconds:
                break
            level = sample.scale
        return level

    def matrix_at(self, t_seconds: float) -> TrafficMatrix:
        """The traffic matrix in force at ``t_seconds``."""
        return self.base.scaled(self.scale_at(t_seconds))

    # ------------------------------------------------------------------
    # Resampling into the control plane
    # ------------------------------------------------------------------

    def series(
        self,
        epochs: int | None = None,
        epoch_seconds: float = 3600.0,
        name: str | None = None,
    ) -> "DemandSeries":
        """Resample the trace onto a fixed epoch grid.

        Epoch ``i`` covers ``[i * epoch_seconds, (i+1) * epoch_seconds)``
        and gets the *mean* of the samples falling inside it; an empty
        epoch carries the last seen level forward (the first epoch falls
        back to the first sample).  ``epochs`` defaults to the smallest
        grid covering every sample.  The result is a frozen
        :class:`~repro.control.demand.DemandSeries`, so measured traces
        drive the energy-aware control plane exactly like synthetic
        presets.
        """
        from repro.control.demand import DemandSeries

        if epoch_seconds <= 0.0:
            raise ConfigurationError("epoch_seconds must be > 0")
        if epochs is None:
            epochs = max(1, int(self.duration_s // epoch_seconds) + 1)
        if epochs < 1:
            raise ConfigurationError("a trace series needs >= 1 epoch")
        buckets: list[list[float]] = [[] for _ in range(epochs)]
        for sample in self.samples:
            index = int(sample.t_seconds // epoch_seconds)
            if index < epochs:
                buckets[index].append(sample.scale)
        scales = []
        level = self.samples[0].scale
        for bucket in buckets:
            if bucket:
                level = sum(bucket) / len(bucket)
            scales.append(level)
        return DemandSeries(
            name or self.name,
            self.base,
            tuple(scales),
            epoch_seconds,
        )

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    @classmethod
    def from_file(
        cls,
        path: "str | Path",
        base: TrafficMatrix,
        name: str | None = None,
    ) -> "TraceDemand":
        """Load a trace from a JSON or CSV/text file (see module
        docstring for the accepted formats)."""
        path = Path(path)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read trace file {str(path)!r}: {exc}"
            ) from exc
        if path.suffix.lower() == ".json":
            data = parse_json(text, f"trace file {path.name!r}")
            if not isinstance(data, Mapping) or "samples" not in data:
                raise ConfigurationError(
                    f"trace file {path.name!r} needs a top-level "
                    "'samples' list"
                )
            return cls.from_dict({
                "name": name or data.get("name") or path.stem,
                "base": base,
                "samples": data["samples"],
            })
        samples = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = [p.strip() for p in body.replace("\t", ",").split(",")]
            if len(parts) != 2:
                raise ConfigurationError(
                    f"trace file {path.name!r} line {lineno}: expected "
                    f"'t_seconds,scale', got {line!r}"
                )
            try:
                samples.append((float(parts[0]), float(parts[1])))
            except ValueError:
                if lineno == 1 and not samples:
                    continue  # a textual header line
                raise ConfigurationError(
                    f"trace file {path.name!r} line {lineno}: "
                    f"non-numeric sample {line!r}"
                ) from None
        return cls(name or path.stem, base, tuple(samples))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it exactly."""
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "samples": [s.to_dict() for s in self.samples],
        }
