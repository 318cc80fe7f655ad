"""Analytical SRAM access-energy model calibrated to paper Table 2.

Model shape
-----------
The shared buffer memory is organised as ``B`` banks of a fixed bank
size (16 Kbit, the smallest Table 2 configuration).  A read or write
then costs, per bit:

* ``e_bank`` — the intra-bank energy (row decode, wordline, bitline
  swing, sense amps, column mux).  For a fixed bank geometry this is
  constant.
* ``e_route * B**2`` — global routing: with banks arranged in a row,
  both the average wire length to reach a bank *and* the loading on the
  shared data bus grow linearly with ``B``, giving a quadratic energy
  term.  This reproduces Table 2's near-flat start (16K -> 48K) and
  steep tail (320 Kbit is 59% more expensive per bit than 16 Kbit).

Constants are least-squares fitted to the four Table 2 points with
:func:`fit_bank_model`; the default :class:`SramMacro` uses that fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import tables
from repro.errors import ConfigurationError
from repro.units import pJ

#: Bank capacity used by the Table 2 fit (bits).
DEFAULT_BANK_BITS = 16 * 1024


def fit_bank_model(
    points: dict[int, float] | None = None,
    bank_bits: int = DEFAULT_BANK_BITS,
) -> tuple[float, float]:
    """Fit ``(e_bank, e_route)`` to size->energy points by least squares.

    Parameters
    ----------
    points:
        Mapping from total memory bits to joules per bit per access;
        defaults to the paper's Table 2.
    bank_bits:
        Capacity of one bank.

    Returns
    -------
    (e_bank_j, e_route_j):
        Joules per bit for the constant and quadratic terms of
        ``E(B) = e_bank + e_route * B**2``.
    """
    if points is None:
        points = {
            size: energy
            for _, (_, size, energy) in sorted(tables.BANYAN_BUFFER_TABLE.items())
        }
    if len(points) < 2:
        raise ConfigurationError("need at least two calibration points")
    banks = np.array(
        [math.ceil(size / bank_bits) for size in sorted(points)], dtype=float
    )
    energies = np.array([points[size] for size in sorted(points)], dtype=float)
    design = np.stack([np.ones_like(banks), banks**2], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, energies, rcond=None)
    e_bank, e_route = float(coeffs[0]), float(coeffs[1])
    if e_bank <= 0:
        raise ConfigurationError(
            f"fit produced non-physical bank energy {e_bank!r}"
        )
    return e_bank, max(e_route, 0.0)


# Default constants: the Table 2 fit, precomputed at import time so the
# default model needs no runtime fitting.
_DEFAULT_E_BANK_J, _DEFAULT_E_ROUTE_J = fit_bank_model()


@dataclass(frozen=True)
class SramMacro:
    """An SRAM buffer memory with analytical per-bit access energy.

    Attributes
    ----------
    size_bits:
        Total capacity of the shared memory.
    bank_bits:
        Capacity of one bank (default 16 Kbit, the Table 2 baseline).
    e_bank_j / e_route_j:
        Model constants (see module docstring); default to the Table 2
        fit.
    word_bits:
        Access word width; accesses are word-based, and per-bit figures
        are averages over a word (paper Section 3.2).
    """

    size_bits: int
    bank_bits: int = DEFAULT_BANK_BITS
    e_bank_j: float = _DEFAULT_E_BANK_J
    e_route_j: float = _DEFAULT_E_ROUTE_J
    word_bits: int = 32

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ConfigurationError("size_bits must be positive")
        if self.bank_bits <= 0:
            raise ConfigurationError("bank_bits must be positive")
        if self.word_bits <= 0:
            raise ConfigurationError("word_bits must be positive")
        if self.e_bank_j < 0 or self.e_route_j < 0:
            raise ConfigurationError("energies must be >= 0")

    @property
    def banks(self) -> int:
        """Number of banks: ``ceil(size / bank_bits)``."""
        return math.ceil(self.size_bits / self.bank_bits)

    @property
    def access_energy_per_bit_j(self) -> float:
        """Joules per bit per READ or WRITE access (``E_access``)."""
        b = self.banks
        return self.e_bank_j + self.e_route_j * b * b

    @property
    def access_energy_per_word_j(self) -> float:
        """Joules per word access."""
        return self.access_energy_per_bit_j * self.word_bits

    @property
    def refresh_energy_per_bit_j(self) -> float:
        """SRAM cells are static: no refresh energy (``E_ref = 0``)."""
        return 0.0

    @classmethod
    def for_banyan(cls, ports: int, buffer_bits_per_switch: int | None = None,
                   **kwargs) -> "SramMacro":
        """Shared SRAM sized for an N-port Banyan (Table 2 rule).

        ``size = switch_count * 4 Kbit`` by default.
        """
        per_switch = (
            tables.BANYAN_BUFFER_BITS_PER_SWITCH
            if buffer_bits_per_switch is None
            else buffer_bits_per_switch
        )
        if per_switch <= 0:
            raise ConfigurationError("buffer_bits_per_switch must be positive")
        size = tables.banyan_switch_count(ports) * per_switch
        return cls(size_bits=size, **kwargs)

    def table2_row(self) -> tuple[int, float]:
        """(size_bits, pJ-per-bit) — convenient for printing Table 2."""
        return (self.size_bits, self.access_energy_per_bit_j / pJ(1.0))
