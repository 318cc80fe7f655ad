"""Fully connected (MUX-based) switch fabric (paper Section 4.2).

Every egress port owns an N-input MUX; every ingress port's bus fans
out to all N MUXes.  Like the crossbar it is interconnect-contention
free with no internal buffers, but each bit pays only *one* MUX
traversal (versus N crosspoints) at the price of a bus roughly
``N^2 / 2`` Thompson grids long (Eq. 4).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.bit_energy import EnergyModelSet
from repro.fabrics.base import SwitchFabric
from repro.router.cells import Cell, CellFormat
from repro.thompson.layouts import FullyConnectedLayout


class FullyConnectedFabric(SwitchFabric):
    """Dynamic fully-connected model with bit-accurate accounting."""

    architecture = "fully_connected"

    def __init__(
        self,
        ports: int,
        models: EnergyModelSet,
        cell_format: CellFormat | None = None,
        wire_mode: str = "worst_case",
    ) -> None:
        super().__init__(ports, models, cell_format, wire_mode)
        self.layout = FullyConnectedLayout(ports)
        self._mux_lut = models.switch

    @classmethod
    def with_default_models(cls, ports: int, **kwargs) -> "FullyConnectedFabric":
        """Construct with the Table 1 N-input MUX LUT."""
        from repro.fabrics.factory import default_models

        return cls(ports, default_models("fully_connected", ports), **kwargs)

    # ------------------------------------------------------------------

    def advance_slot(self, admitted: Mapping[int, Cell], slot: int) -> list[Cell]:
        """Transport all granted cells in one slot (pass-through).

        Each cell streams from its input bus into the destination MUX.
        The physical bus is one wire per input (its electrical resting
        state is shared across destinations), while the charged length
        may depend on the destination in ``per_link`` mode.
        """
        self._validate_admitted(admitted)
        delivered: list[Cell] = []
        for port in sorted(admitted):
            cell = admitted[port]
            # One MUX forwards the stream (Table 1: energy is nearly
            # input-vector independent, so a single figure per N).
            vector = tuple(
                1 if i == port else 0 for i in range(self._mux_lut.n_inputs)
            )
            self._charge_switch(
                f"fc.mux{cell.dest_port}",
                self._mux_lut,
                vector,
                cell.word_count,
            )
            grids = self.layout.connection_grids(
                port, cell.dest_port, mode=self.wire_mode
            )
            self._charge_wire(
                ("bus", port), cell.words, grids, f"fc.bus{port}"
            )
            delivered.append(cell)
            self.ledger.count("cells_delivered", 1)
        return delivered
