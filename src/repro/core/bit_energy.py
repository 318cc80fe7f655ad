"""Runtime bit-energy models (paper Section 3).

Three component models make up the framework:

* :class:`SwitchEnergyLUT` — input-vector indexed node-switch energy
  (``E_S_bit``, Section 3.1).  The lookup value is the energy consumed by
  the *whole switch* during one bit-slot (one bus lane for one clock
  cycle) under a given input-occupancy vector.  This is the only reading
  consistent with the paper's observation that serving two packets costs
  more than one but less than twice one (Table 1: 1821 < 2x1080 fJ)
  while a lone packet costs exactly ``E_S`` per transported bit as used
  by Eq. 3-6.
* :class:`BufferEnergyModel` — per-bit buffer access energy
  (``E_B_bit = E_access + E_ref``, Section 3.2, Eq. 1).
* wire energy — provided by :class:`repro.tech.wires.WireModel`
  (``E_W_bit = 1/2 C_W V^2`` on polarity flips, Section 3.3, Eq. 2).

:class:`EnergyModelSet` bundles one of each per fabric so that fabrics
and the analytical estimator consume a single object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import tables
from repro.errors import ConfigurationError
from repro.tech.wires import WireModel

Vector = tuple[int, ...]


def _normalize_vector(vector: tuple[int, ...] | list[int]) -> Vector:
    """Canonicalise an input-occupancy vector to a tuple of 0/1 ints."""
    canon = tuple(1 if bool(v) else 0 for v in vector)
    return canon


class SwitchEnergyLUT:
    """Input-vector indexed node-switch energy table (``E_S_bit``).

    Parameters
    ----------
    n_inputs:
        Number of switch input ports (the vector length).
    table:
        Mapping from occupancy vector to joules per bit-slot.  Missing
        vectors fall back to :meth:`_default_entry` (see below), so a
        sparse table — e.g. characterised only for canonical vectors —
        still answers every query.
    name:
        Used in reports and error messages.

    Notes
    -----
    For vectors absent from the table the fallback is *linear occupancy
    scaling with saturation*: the energy of the nearest lower occupancy
    count that is present, scaled by occupancy ratio.  All four paper
    switch types are fully populated, so the fallback only matters for
    user-defined switches.
    """

    def __init__(
        self,
        n_inputs: int,
        table: dict[Vector, float],
        name: str = "switch",
    ) -> None:
        if n_inputs < 1:
            raise ConfigurationError("switch must have at least one input")
        self.n_inputs = n_inputs
        self.name = name
        self._table: dict[Vector, float] = {}
        for vector, energy in table.items():
            canon = _normalize_vector(vector)
            if len(canon) != n_inputs:
                raise ConfigurationError(
                    f"{name}: vector {vector} has wrong arity "
                    f"(expected {n_inputs})"
                )
            if energy < 0:
                raise ConfigurationError(f"{name}: negative energy for {vector}")
            self._table[canon] = float(energy)
        if not self._table:
            raise ConfigurationError(f"{name}: empty energy table")
        # Cache energy-by-occupancy-count for the fallback path.
        self._by_count: dict[int, float] = {}
        for vector, energy in self._table.items():
            count = sum(vector)
            best = self._by_count.get(count)
            if best is None or energy > best:
                self._by_count[count] = energy

    # ------------------------------------------------------------------

    def lookup(self, vector: tuple[int, ...] | list[int]) -> float:
        """Energy (J) of the whole switch for one bit-slot under ``vector``."""
        canon = _normalize_vector(vector)
        if len(canon) != self.n_inputs:
            raise ConfigurationError(
                f"{self.name}: vector arity {len(canon)} != {self.n_inputs}"
            )
        hit = self._table.get(canon)
        if hit is not None:
            return hit
        return self._default_entry(sum(canon))

    def _default_entry(self, occupancy: int) -> float:
        """Fallback energy for an uncharacterised vector (see class doc)."""
        if occupancy == 0:
            return 0.0
        known = sorted(self._by_count)
        lower = max((c for c in known if 0 < c <= occupancy), default=None)
        if lower is not None:
            return self._by_count[lower] * (occupancy / lower)
        upper = min(c for c in known if c > 0)
        return self._by_count[upper] * (occupancy / upper)

    def energy_per_bit(self, occupancy: int = 1) -> float:
        """Average energy per *transported* bit at a given occupancy.

        With ``k`` active inputs the switch moves ``k`` bits per
        bit-slot, so the per-bit cost is the vector energy divided by
        ``k``.  Uses the worst vector of that occupancy count.
        """
        if occupancy < 1 or occupancy > self.n_inputs:
            raise ConfigurationError(
                f"occupancy must be in [1, {self.n_inputs}], got {occupancy}"
            )
        vec_energy = self._by_count.get(occupancy)
        if vec_energy is None:
            vec_energy = self._default_entry(occupancy)
        return vec_energy / occupancy

    def items(self) -> list[tuple[Vector, float]]:
        """All explicitly characterised (vector, energy) pairs, sorted."""
        return sorted(self._table.items())

    # ------------------------------------------------------------------
    # Constructors for the paper's switch types
    # ------------------------------------------------------------------

    @classmethod
    def crossbar_crosspoint(cls) -> "SwitchEnergyLUT":
        """Table 1 crossbar crosspoint (pass gate / tri-state buffer)."""
        return cls(1, tables.CROSSBAR_SWITCH_ENERGY, name="crossbar-crosspoint")

    @classmethod
    def banyan_binary(cls) -> "SwitchEnergyLUT":
        """Table 1 Banyan 2x2 self-routing binary switch."""
        return cls(2, tables.BANYAN_SWITCH_ENERGY, name="banyan-2x2")

    @classmethod
    def batcher_sorting(cls) -> "SwitchEnergyLUT":
        """Table 1 Batcher 2x2 compare-exchange sorting switch."""
        return cls(2, tables.BATCHER_SWITCH_ENERGY, name="batcher-2x2")


class MuxEnergyLUT(SwitchEnergyLUT):
    """Energy model of the fully-connected fabric's N-input MUX.

    The paper reports MUX bit energy "very close among different input
    vectors" but growing with the number of inputs N (Table 1 bottom).
    The model therefore charges a single N-dependent figure per bit-slot
    whenever the MUX forwards data, and interpolates geometrically for
    port counts between the characterised sizes.
    """

    def __init__(self, n_inputs: int, energy_j: float | None = None) -> None:
        if energy_j is None:
            energy_j = self.interpolate_energy(n_inputs)
        table = {
            _normalize_vector([0] * n_inputs): 0.0,
        }
        self._mux_energy = float(energy_j)
        super().__init__(n_inputs, table, name=f"mux-{n_inputs}")

    def lookup(self, vector: tuple[int, ...] | list[int]) -> float:
        canon = _normalize_vector(vector)
        if len(canon) != self.n_inputs:
            raise ConfigurationError(
                f"{self.name}: vector arity {len(canon)} != {self.n_inputs}"
            )
        return self._mux_energy if any(canon) else 0.0

    def energy_per_bit(self, occupancy: int = 1) -> float:
        """A MUX forwards exactly one stream; per-bit == vector energy."""
        if occupancy < 1:
            raise ConfigurationError("occupancy must be >= 1")
        return self._mux_energy

    @staticmethod
    def interpolate_energy(n_inputs: int) -> float:
        """Table-1 MUX energy, geometrically interpolated in log2(N).

        For N in the table the exact figure is returned; outside, the
        nearest two points are extrapolated on a log-log line (the table
        is very close to ``E ~ N**0.85``).
        """
        if n_inputs < 2:
            raise ConfigurationError("a MUX needs at least 2 inputs")
        known = sorted(tables.MUX_ENERGY_BY_PORTS)
        if n_inputs in tables.MUX_ENERGY_BY_PORTS:
            return tables.MUX_ENERGY_BY_PORTS[n_inputs]
        lo = max((k for k in known if k < n_inputs), default=None)
        hi = min((k for k in known if k > n_inputs), default=None)
        if lo is None:
            lo, hi = known[0], known[1]
        elif hi is None:
            lo, hi = known[-2], known[-1]
        e_lo = tables.MUX_ENERGY_BY_PORTS[lo]
        e_hi = tables.MUX_ENERGY_BY_PORTS[hi]
        slope = math.log(e_hi / e_lo) / math.log(hi / lo)
        return e_lo * (n_inputs / lo) ** slope


@dataclass(frozen=True)
class BufferEnergyModel:
    """Internal-buffer energy (``E_B``, paper Eq. 1).

    Attributes
    ----------
    access_energy_j:
        The Table 2 figure: ``E_access`` for one access.
    refresh_energy_j:
        ``E_ref`` per refresh operation (zero for SRAM, positive for
        DRAM).
    refresh_period_s:
        Interval between refresh operations; only meaningful when
        ``refresh_energy_j > 0``.
    charge_read_and_write:
        When True (default) a buffered cell pays ``E_access`` once on
        write and once on read-out; when False a single combined charge
        is applied, matching the most literal reading of Eq. 1.
    charge_granularity:
        How the Table 2 figure maps onto a buffered cell:

        * ``"word"`` (default) — ``access_energy_j`` is the energy of
          one word-based memory access (Section 3.2: "memory is
          accessed on word or byte basis"); a buffered cell pays it
          once per word.  This is the only reading under which the
          paper's Fig. 9/10 shapes (Banyan cheapest below ~35%
          throughput at 32x32) are reproducible — charging 140-222 pJ
          for *every bit* makes a single buffering event ~50x a cell's
          entire transport energy and moves the crossover to ~3%.
        * ``"bit"`` — the literal Eq. 5 reading: every buffered bit
          pays ``access_energy_j``.  Available for the buffer-accounting
          ablation bench; see EXPERIMENTS.md for the discrepancy
          discussion.
    word_bits:
        Access word width for ``"word"`` granularity (paper: 32).
    """

    access_energy_j: float
    refresh_energy_j: float = 0.0
    refresh_period_s: float = 64e-3
    charge_read_and_write: bool = True
    charge_granularity: str = "word"
    word_bits: int = 32

    def __post_init__(self) -> None:
        if self.access_energy_j < 0 or self.refresh_energy_j < 0:
            raise ConfigurationError("buffer energies must be >= 0")
        if self.refresh_period_s <= 0:
            raise ConfigurationError("refresh_period_s must be positive")
        if self.charge_granularity not in ("bit", "word"):
            raise ConfigurationError(
                "charge_granularity must be 'bit' or 'word', got "
                f"{self.charge_granularity!r}"
            )
        if self.word_bits < 1:
            raise ConfigurationError("word_bits must be >= 1")

    @property
    def accesses_per_buffering(self) -> int:
        """Number of charged accesses for one store-and-forward event."""
        return 2 if self.charge_read_and_write else 1

    @property
    def effective_bit_energy_j(self) -> float:
        """Energy per buffered *bit* per access under the granularity."""
        if self.charge_granularity == "bit":
            return self.access_energy_j
        return self.access_energy_j / self.word_bits

    def _access_units(self, bits: int) -> float:
        if bits < 0:
            raise ConfigurationError("bits must be >= 0")
        if self.charge_granularity == "bit":
            return float(bits)
        return float(-(-bits // self.word_bits))  # ceil division

    def buffering_energy_j(self, bits: int) -> float:
        """Access energy to buffer (and later release) ``bits`` bits."""
        return (
            self.access_energy_j
            * self._access_units(bits)
            * self.accesses_per_buffering
        )

    def write_energy_j(self, bits: int) -> float:
        """Access energy charged at the moment ``bits`` bits are stored."""
        return self.access_energy_j * self._access_units(bits)

    def read_energy_j(self, bits: int) -> float:
        """Access energy charged when ``bits`` bits leave the buffer."""
        if not self.charge_read_and_write:
            return 0.0
        return self.access_energy_j * self._access_units(bits)

    def refresh_energy_for(self, bits_stored: int, duration_s: float) -> float:
        """Refresh energy for ``bits_stored`` resident for ``duration_s``.

        Zero for SRAM.  For DRAM every stored unit (bit or word, per
        the charge granularity) is refreshed once per
        ``refresh_period_s``.
        """
        if self.refresh_energy_j == 0.0 or bits_stored == 0:
            return 0.0
        refreshes = duration_s / self.refresh_period_s
        return self.refresh_energy_j * self._access_units(bits_stored) * refreshes

    @classmethod
    def from_table2(cls, ports: int, **overrides) -> "BufferEnergyModel":
        """Paper Table 2 SRAM figure for an N x N Banyan fabric.

        ``overrides`` forward to the constructor (e.g.
        ``charge_granularity="bit"``).
        """
        try:
            energy = tables.BANYAN_BUFFER_ENERGY_BY_PORTS[ports]
        except KeyError:
            known = sorted(tables.BANYAN_BUFFER_ENERGY_BY_PORTS)
            raise ConfigurationError(
                f"Table 2 has no entry for {ports} ports; known: {known}"
            ) from None
        return cls(access_energy_j=energy, **overrides)


@dataclass
class EnergyModelSet:
    """Everything a fabric needs to convert activity into joules.

    Attributes
    ----------
    switch:
        Node-switch LUT for the fabric's primary switch type.
    wire:
        Wire flip-energy model (supplies ``E_T``).
    buffer:
        Buffer model, or None for bufferless fabrics (crossbar, fully
        connected, Batcher-Banyan).
    sorting_switch:
        Second LUT used only by Batcher-Banyan for its sorting stages.
    """

    switch: SwitchEnergyLUT
    wire: WireModel
    buffer: BufferEnergyModel | None = None
    sorting_switch: SwitchEnergyLUT | None = None

    @property
    def grid_energy_j(self) -> float:
        """``E_T`` — per-flip energy of a one-Thompson-grid wire."""
        return self.wire.grid_flip_energy_j
