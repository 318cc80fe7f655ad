"""ControlSpec: a frozen energy-aware control-plane experiment.

Binds a data plane (:class:`~repro.network.NetworkSpec`) to a workload
over time (:class:`~repro.control.demand.DemandSeries`) plus the three
control knobs the literature separates:

* **green routing** (``optimize`` + ``max_utilization``) — Giroire-style
  link pruning with re-routing, constrained to a utilization headroom;
* **rate adaptation** (``link_rates``) — each cable's interface pair
  runs at the smallest configured rate that covers its utilization,
  scaling the per-port overhead proportionally;
* **sleep states** (``sleep`` / ``sleep_power_fraction`` /
  ``wake_energy_j``) — idle cables drop to a deep-sleep fraction of
  port power, paying a wake-up energy penalty when they transition.

``sla_sweep`` lists extra utilization headrooms to evaluate alongside
``max_utilization``, producing the savings-vs-SLA curve of the record.
The spec is frozen, JSON round-trippable and content-hashable like
every other spec in the codebase; its hash keys the whole-record
derived-figure cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.serial import Spec

from repro.network.power import NetworkSpec

from repro.control.demand import DemandSeries


@dataclass(frozen=True)
class ControlSpec(Spec):
    """A frozen, JSON round-trippable control-plane experiment.

    Attributes
    ----------
    name:
        Identifier used by presets, the CLI, and exports.
    network:
        The data plane: topology, routing mode, switch-off policy,
        port/propagation power.  Its own matrix is the scale-1.0
        reference; each epoch replaces it with ``series.matrix(i)``.
    series:
        The demand over time (one scale per epoch).
    optimize:
        Enable greedy link pruning with re-routing per epoch.
    max_utilization:
        Primary SLA headroom in (0, 1]: pruning must keep every link's
        utilization at or below this bound.
    sla_sweep:
        Extra headrooms to evaluate for the savings-vs-SLA curve
        (each in (0, 1]; deduplicated with ``max_utilization``).
    link_rates:
        Available relative interface rates, each in (0, 1]; stored
        sorted ascending and must include 1.0.  ``(1.0,)`` disables
        rate adaptation.
    sleep:
        Put idle cables (zero routed load in both directions) into a
        sleep state instead of full-rate idle.
    sleep_power_fraction:
        Port power of a sleeping interface relative to full rate,
        in [0, 1].
    wake_energy_j:
        Energy cost of one interface pair entering (pre-paying the
        later wake-up of) a sleep state, charged once per transition
        and spread over the epoch.
    grid_intensity_gco2_per_kwh:
        Carbon intensity of the electricity feeding the network, in
        grams of CO2 per kWh.  When non-zero each epoch row and the
        series totals gain derived ``carbon_gco2`` masses (energy x
        intensity); the default 0.0 is omitted from :meth:`to_dict`,
        so existing spec hashes and cached records are unchanged.
    """

    name: str
    network: NetworkSpec
    series: DemandSeries
    optimize: bool = True
    max_utilization: float = 1.0
    sla_sweep: tuple[float, ...] = ()
    link_rates: tuple[float, ...] = (1.0,)
    sleep: bool = False
    sleep_power_fraction: float = 0.0
    wake_energy_j: float = 0.0
    grid_intensity_gco2_per_kwh: float = 0.0

    noun = "control-spec"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a control spec needs a name")
        object.__setattr__(
            self, "network", NetworkSpec.coerce(self.network, "network")
        )
        object.__setattr__(
            self, "series", DemandSeries.coerce(self.series, "series")
        )
        object.__setattr__(self, "optimize", bool(self.optimize))
        object.__setattr__(self, "sleep", bool(self.sleep))
        if not 0.0 < self.max_utilization <= 1.0:
            raise ConfigurationError(
                f"max_utilization must be in (0, 1], got "
                f"{self.max_utilization!r}"
            )
        sweep = tuple(float(h) for h in self.sla_sweep)
        object.__setattr__(self, "sla_sweep", sweep)
        for headroom in sweep:
            if not 0.0 < headroom <= 1.0:
                raise ConfigurationError(
                    f"sla_sweep entries must be in (0, 1], got {headroom!r}"
                )
        rates = tuple(sorted({float(r) for r in self.link_rates}))
        object.__setattr__(self, "link_rates", rates)
        if not rates:
            raise ConfigurationError("link_rates needs at least one rate")
        for rate in rates:
            if not 0.0 < rate <= 1.0:
                raise ConfigurationError(
                    f"link_rates entries must be in (0, 1], got {rate!r}"
                )
        if rates[-1] != 1.0:
            raise ConfigurationError(
                "link_rates must include the full rate 1.0 (a link at "
                "capacity has to be servable)"
            )
        if not 0.0 <= self.sleep_power_fraction <= 1.0:
            raise ConfigurationError(
                f"sleep_power_fraction must be in [0, 1], got "
                f"{self.sleep_power_fraction!r}"
            )
        if self.wake_energy_j < 0.0:
            raise ConfigurationError("wake_energy_j must be >= 0")
        if self.grid_intensity_gco2_per_kwh < 0.0:
            raise ConfigurationError(
                "grid_intensity_gco2_per_kwh must be >= 0"
            )
        known = set(self.network.topology.node_names)
        unknown = [n for n in self.series.base.nodes() if n not in known]
        if unknown:
            raise ConfigurationError(
                f"demand series names unknown nodes: {unknown}"
            )

    @property
    def states_active(self) -> bool:
        """Whether any per-link power state differs from full rate."""
        return self.sleep or self.link_rates != (1.0,)

    def headrooms(self) -> tuple[float, ...]:
        """All utilization headrooms to evaluate, sorted ascending."""
        return tuple(sorted(set(self.sla_sweep) | {self.max_utilization}))

    def epoch_network(self, epoch: int) -> NetworkSpec:
        """The network spec of one epoch (series matrix swapped in).

        At scale exactly 1.0 the matrix round-trips float-identically,
        so a flat single-epoch series reproduces ``self.network``
        bit-for-bit — content hash included.
        """
        return self.network.replace(matrix=self.series.matrix(epoch))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it exactly."""
        out = {
            "name": self.name,
            "network": self.network.to_dict(),
            "series": self.series.to_dict(),
            "optimize": self.optimize,
            "max_utilization": self.max_utilization,
            "sla_sweep": list(self.sla_sweep),
            "link_rates": list(self.link_rates),
            "sleep": self.sleep,
            "sleep_power_fraction": self.sleep_power_fraction,
            "wake_energy_j": self.wake_energy_j,
        }
        if self.grid_intensity_gco2_per_kwh:
            out["grid_intensity_gco2_per_kwh"] = (
                self.grid_intensity_gco2_per_kwh
            )
        return out
