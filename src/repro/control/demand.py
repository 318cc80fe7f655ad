"""Time-varying demand: a frozen series of scaled traffic matrices.

Kharitonov's time-domain argument (PAPERS.md) is that network energy
efficiency is only meaningful against load that *changes*: a router
provisioned for the evening peak idles through the night.  A
:class:`DemandSeries` captures that as the simplest faithful object —
one base :class:`~repro.network.traffic_matrix.TrafficMatrix` plus a
per-epoch scale factor, each epoch lasting ``epoch_seconds``.  Epoch
``i``'s workload is ``base.scaled(scales[i])``, so a scale of exactly
``1.0`` reproduces the base matrix bit-for-bit (the flat single-epoch
identity the control-plane acceptance tests pin).

Presets generate the classic shapes: :meth:`DemandSeries.flat`,
:meth:`~DemandSeries.step` and :meth:`~DemandSeries.diurnal` (a 24-hour
cosine between a night trough and an afternoon peak).  Like every spec
in this codebase the series is frozen, JSON round-trippable, and
content-hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.serial import Spec

from repro.network.traffic_matrix import TrafficMatrix


@dataclass(frozen=True)
class DemandSeries(Spec):
    """A frozen sequence of demand epochs: ``base`` x ``scales[i]``.

    >>> from repro.network import TrafficMatrix
    >>> base = TrafficMatrix.uniform(("a", "b"), 0.4)
    >>> series = DemandSeries("day", base, scales=(0.5, 1.0))
    >>> series.matrix(0).total()
    0.4

    Attributes
    ----------
    name:
        Identifier used by presets and exports.
    base:
        The reference traffic matrix (scale 1.0).
    scales:
        One non-negative multiplier per epoch, applied to every demand.
    epoch_seconds:
        Wall-clock duration of each epoch (energy = power x duration).
    """

    name: str
    base: TrafficMatrix
    scales: tuple[float, ...]
    epoch_seconds: float = 3600.0

    noun = "demand-series"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a demand series needs a name")
        object.__setattr__(
            self, "base", TrafficMatrix.coerce(self.base, "base")
        )
        scales = tuple(float(s) for s in self.scales)
        object.__setattr__(self, "scales", scales)
        if not scales:
            raise ConfigurationError("a demand series needs >= 1 epoch")
        for i, scale in enumerate(scales):
            if scale < 0.0:
                raise ConfigurationError(
                    f"epoch {i}: scale must be >= 0, got {scale!r}"
                )
        if self.epoch_seconds <= 0.0:
            raise ConfigurationError("epoch_seconds must be > 0")

    # ------------------------------------------------------------------
    # Epoch access
    # ------------------------------------------------------------------

    @property
    def epochs(self) -> int:
        return len(self.scales)

    @property
    def duration_s(self) -> float:
        return self.epochs * self.epoch_seconds

    def scale(self, epoch: int) -> float:
        self._check_epoch(epoch)
        return self.scales[epoch]

    def matrix(self, epoch: int) -> TrafficMatrix:
        """The traffic matrix of one epoch (``base`` x its scale)."""
        self._check_epoch(epoch)
        return self.base.scaled(self.scales[epoch])

    def _check_epoch(self, epoch: int) -> None:
        if not 0 <= epoch < len(self.scales):
            raise ConfigurationError(
                f"epoch {epoch} out of range (series has "
                f"{len(self.scales)} epochs)"
            )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @classmethod
    def flat(
        cls,
        base: TrafficMatrix,
        epochs: int = 1,
        level: float = 1.0,
        epoch_seconds: float = 3600.0,
        name: str = "flat",
    ) -> "DemandSeries":
        """A constant series; ``level=1.0`` repeats the base matrix
        exactly (the single-epoch identity anchor)."""
        if epochs < 1:
            raise ConfigurationError("flat series needs >= 1 epoch")
        return cls(name, base, (level,) * epochs, epoch_seconds)

    @classmethod
    def step(
        cls,
        base: TrafficMatrix,
        levels: Sequence[float],
        repeats: int = 1,
        epoch_seconds: float = 3600.0,
        name: str = "step",
    ) -> "DemandSeries":
        """Piecewise-constant: each level held for ``repeats`` epochs."""
        if repeats < 1:
            raise ConfigurationError("step repeats must be >= 1")
        scales = tuple(
            float(level) for level in levels for _ in range(repeats)
        )
        return cls(name, base, scales, epoch_seconds)

    @classmethod
    def diurnal(
        cls,
        base: TrafficMatrix,
        epochs: int = 24,
        low: float = 0.25,
        peak: float = 1.0,
        trough_hour: float = 4.0,
        name: str = "diurnal",
    ) -> "DemandSeries":
        """A 24-hour day: cosine between the ``trough_hour`` low and the
        opposite peak 12 hours later; epoch ``i`` starts at hour
        ``24 * i / epochs`` and ``epoch_seconds`` is ``86400 / epochs``.
        """
        if epochs < 2:
            raise ConfigurationError("diurnal series needs >= 2 epochs")
        scales = tuple(
            low
            + (peak - low)
            * (
                1.0
                - math.cos(
                    2.0 * math.pi * (24.0 * i / epochs - trough_hour) / 24.0
                )
            )
            / 2.0
            for i in range(epochs)
        )
        return cls(name, base, scales, 86400.0 / epochs)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it exactly."""
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "scales": list(self.scales),
            "epoch_seconds": self.epoch_seconds,
        }
