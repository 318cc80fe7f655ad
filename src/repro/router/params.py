"""Router parameters in plain Python: cell geometry, limits, RNG contract.

Specs (:class:`~repro.api.Scenario`, the network topology) check these
without importing numpy, which loads with the first simulation;
:mod:`repro.router.packet`, :mod:`~repro.router.cells` and
:mod:`~repro.router.traffic` import them back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import bus_mask as _units_bus_mask

#: The RNG-consumption contract's version: slot-at-a-time draws (the
#: original engines' contract, and the only one).
RNG_STREAM_V1 = 1
#: Largest port count of a scenario or a router node (the presets use
#: at most 128), checked before any per-port array is allocated.
MAX_PORTS = 4096


def bus_mask(bus_width: int) -> int:
    """Bit mask selecting the low ``bus_width`` bits of a word.

    Thin wrapper over :func:`repro.units.bus_mask` raising the library's
    :class:`~repro.errors.ConfigurationError`.
    """
    try:
        return _units_bus_mask(bus_width)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


def scalar_load(load) -> float:
    """A scalar load as a float, once it is in [0, 1]."""
    value = float(load)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"load must be in [0, 1], got {load}")
    return value


@dataclass(frozen=True)
class CellFormat:
    """Geometry of a cell on the fabric bus.

    Attributes
    ----------
    bus_width: parallel bus width in bits (paper: 32).
    words: total words per cell including the header word
        (default 16 -> a 512-bit cell, i.e. 480 payload bits).
    """

    bus_width: int = 32
    words: int = 16

    def __post_init__(self) -> None:
        # Validates the width; cached for the per-cell header encoder.
        object.__setattr__(self, "_mask", bus_mask(self.bus_width))
        if self.words < 2:
            raise ConfigurationError("a cell needs >= 2 words (header + payload)")

    @property
    def cell_bits(self) -> int:
        """Total bits moved across a link per cell."""
        return self.bus_width * self.words

    @property
    def payload_words(self) -> int:
        return self.words - 1

    @property
    def payload_bits_per_cell(self) -> int:
        return self.payload_words * self.bus_width

    def slot_seconds(self, line_rate_bps: float) -> float:
        """Duration of one slot: the line-rate time of one cell."""
        if line_rate_bps <= 0:
            raise ConfigurationError("line_rate_bps must be positive")
        return self.cell_bits / line_rate_bps

    def header_word(self, dest_port: int, cell_index: int, packet_id: int) -> int:
        """Deterministic header: dest in bits 0-7, index 8-15, id above.

        The one definition of the header layout, called once per cell,
        or once per batch with uint64 arrays of destinations and ids.
        """
        word = (dest_port & 0xFF) | ((cell_index & 0xFF) << 8)
        word |= (packet_id << 16)
        return word & self._mask
