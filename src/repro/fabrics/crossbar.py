"""Crossbar switch fabric (paper Section 4.1).

An N x N crosspoint matrix: every input owns a row bus, every output a
column bus, and the crosspoint (i, j) connects them.  Space-division
multiplexing gives every connection a dedicated path, so the fabric is
interconnect-contention free and needs no internal buffers (destination
contention is the arbiter's job).

Energy per transported cell (the dynamic counterpart of Eq. 3):

* **Switches** — the bit toggles the input gates of all ``N``
  crosspoints hanging on its row: ``N * E_S[1]`` per bit.
* **Wires** — the full row bus (``4N`` grids) and the full column bus
  (``4N`` grids) swing on every polarity flip of the payload.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.bit_energy import EnergyModelSet
from repro.fabrics.base import SwitchFabric
from repro.router.cells import Cell, CellFormat
from repro.thompson.layouts import CrossbarLayout


class CrossbarFabric(SwitchFabric):
    """Dynamic crossbar model with bit-accurate energy accounting."""

    architecture = "crossbar"

    def __init__(
        self,
        ports: int,
        models: EnergyModelSet,
        cell_format: CellFormat | None = None,
        wire_mode: str = "worst_case",
    ) -> None:
        super().__init__(ports, models, cell_format, wire_mode)
        self.layout = CrossbarLayout(ports)
        self._crosspoint_lut = models.switch

    @classmethod
    def with_default_models(cls, ports: int, **kwargs) -> "CrossbarFabric":
        """Construct with the paper's Table 1 crosspoint LUT."""
        from repro.fabrics.factory import default_models

        return cls(ports, default_models("crossbar", ports), **kwargs)

    # ------------------------------------------------------------------

    def advance_slot(self, admitted: Mapping[int, Cell], slot: int) -> list[Cell]:
        """Transport all granted cells in one slot (pass-through).

        The crossbar has no internal state: every granted cell streams
        from its row to its column within the slot.
        """
        self._validate_admitted(admitted)
        delivered: list[Cell] = []
        for port in sorted(admitted):
            cell = admitted[port]
            words = cell.words
            # The row bus reaches all N crosspoints; their input-gate
            # toggling is the N * E_S term of Eq. 3.
            self._charge_switch(
                f"xbar.row{port}",
                self._crosspoint_lut,
                (1,),
                cell.word_count,
                multiplier=self.ports,
            )
            self._charge_wire(
                ("row", port),
                words,
                self.layout.row_wire_grids(port),
                f"xbar.row{port}",
            )
            self._charge_wire(
                ("col", cell.dest_port),
                words,
                self.layout.column_wire_grids(cell.dest_port),
                f"xbar.col{cell.dest_port}",
            )
            delivered.append(cell)
            self.ledger.count("cells_delivered", 1)
        return delivered
