"""Frozen description of one CMOS process node.

The paper's experiments (Section 5) are a case study on a 0.18 um process
with a 3.3 V rail for wires and SRAM.  All downstream models take a
:class:`Technology` instance instead of hard-coding constants, so the same
analysis can be replayed on other nodes (see
:mod:`repro.tech.presets` and the technology-scaling ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.serial import check_scalars


@dataclass(frozen=True)
class Technology:
    """Parameters of a CMOS process node used for power estimation.

    Attributes
    ----------
    name:
        Human-readable node name, e.g. ``"0.18um"``.
    feature_size_m:
        Drawn feature size in meters (0.18 um -> ``180e-9``).
    voltage_v:
        Rail-to-rail swing used for wire and memory energy (the paper
        uses the 3.3 V I/O rail for both).
    wire_cap_per_m:
        Capacitance of a minimum-pitch global wire, farads per meter
        (paper: 0.50 fF/um from Ho/Mai/Horowitz).
    wire_pitch_m:
        Pitch of one global bus wire in meters (paper: ~1 um at
        0.18 um).
    bus_width_bits:
        Width of the internal datapath bus; one Thompson grid is
        ``bus_width_bits * wire_pitch_m`` on a side (paper: 32 bits).
    clock_hz:
        Fabric/SRAM operating frequency (paper: 133 MHz).
    line_rate_bps:
        Serial line rate of each router port (paper: 100BaseT).
    gate_cap_f:
        Input capacitance of a unit-size (1x) logic gate input, used by
        the gate-level characterisation engine.
    cell_energy_scale:
        Dimensionless calibration multiplier applied to gate-level
        energies (absorbs short-circuit/internal power that a pure
        capacitive model misses).
    """

    name: str
    feature_size_m: float
    voltage_v: float
    wire_cap_per_m: float
    wire_pitch_m: float
    bus_width_bits: int = 32
    clock_hz: float = 133e6
    line_rate_bps: float = 100e6
    gate_cap_f: float = 2e-15
    cell_energy_scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigurationError(
                f"technology name must be a string, got {self.name!r}"
            )
        check_scalars(self)
        if self.feature_size_m <= 0:
            raise ConfigurationError("feature_size_m must be positive")
        if self.voltage_v <= 0:
            raise ConfigurationError("voltage_v must be positive")
        if self.wire_cap_per_m <= 0:
            raise ConfigurationError("wire_cap_per_m must be positive")
        if self.wire_pitch_m <= 0:
            raise ConfigurationError("wire_pitch_m must be positive")
        if self.bus_width_bits <= 0:
            raise ConfigurationError("bus_width_bits must be positive")
        if self.clock_hz <= 0 or self.line_rate_bps <= 0:
            raise ConfigurationError("clock_hz/line_rate_bps must be positive")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def thompson_grid_m(self) -> float:
        """Side length of one Thompson grid square in meters.

        In the Thompson model each interconnect is a full signal bus and
        occupies one grid square, so the grid side is the bus width times
        the per-wire pitch (paper Section 5.1: 32 x 1 um = 32 um).
        """
        return self.bus_width_bits * self.wire_pitch_m

    @property
    def grid_wire_capacitance_f(self) -> float:
        """Capacitance of one bus wire spanning one Thompson grid (F)."""
        return self.wire_cap_per_m * self.thompson_grid_m

    @property
    def grid_bit_energy_j(self) -> float:
        """``E_T``: energy of one polarity flip on a one-grid wire (J).

        Paper Section 5.1: for 0.18 um / 3.3 V / 32-bit bus this is
        87e-15 J.
        """
        c = self.grid_wire_capacitance_f
        return 0.5 * c * self.voltage_v * self.voltage_v

    @property
    def cycle_time_s(self) -> float:
        """Fabric clock period in seconds."""
        return 1.0 / self.clock_hz

    def scaled(self, **overrides: float) -> "Technology":
        """Return a copy of this node with some fields replaced.

        Convenience for ablations, e.g.
        ``TECH_180NM.scaled(voltage_v=1.8)``.
        """
        return replace(self, **overrides)
