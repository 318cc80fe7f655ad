"""Fixed-size cells — the unit of transport inside the fabric.

Slotted switch fabrics (and every Batcher-Banyan in the literature)
move fixed-size cells; routers segment variable-size packets into cells
at ingress and reassemble them at egress.  One slot is the line-rate
time of one cell, which makes the input-queued admission model exact.

Cell layout on the bus: word 0 is the self-routing header carrying the
destination port, cell index and packet id; the remaining words carry
payload bits, zero-padded at the tail.  Header content is deterministic
so that bit-level wire energy stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.router.packet import Packet
from repro.router.params import CellFormat


@dataclass
class Cell:
    """One fixed-size cell in flight through the fabric.

    Attributes
    ----------
    packet_id / cell_index / cell_count: reassembly coordinates —
        this is cell ``cell_index`` of ``cell_count`` of its packet.
    src_port / dest_port: ingress and egress ports.
    words: bus words (header + payload), dtype uint64.
    payload_bits: exact payload bits carried (tail cells carry fewer).
    created_slot: slot the parent packet arrived at ingress.
    entered_fabric_slot: set by the engine when the cell is granted.
    """

    packet_id: int
    cell_index: int
    cell_count: int
    src_port: int
    dest_port: int
    words: np.ndarray
    payload_bits: int
    created_slot: int = 0
    entered_fabric_slot: int | None = None

    def __post_init__(self) -> None:
        self.words = np.asarray(self.words, dtype=np.uint64)
        if self.cell_index < 0 or self.cell_count < 1:
            raise ConfigurationError("bad cell coordinates")
        if self.cell_index >= self.cell_count:
            raise ConfigurationError("cell_index must be < cell_count")
        if self.payload_bits < 0:
            raise ConfigurationError("payload_bits must be >= 0")

    @property
    def word_count(self) -> int:
        return int(self.words.size)

    @property
    def is_tail(self) -> bool:
        return self.cell_index == self.cell_count - 1


def segment_packet(packet: Packet, fmt: CellFormat) -> list[Cell]:
    """Segment a packet into fixed-size cells (ingress unit function).

    Every cell carries ``fmt.payload_words`` payload words; the last
    cell is zero-padded.  Zero-size packets still produce one cell (a
    bare header), mirroring minimum-size frames.
    """
    payload = np.asarray(packet.payload_words, dtype=np.uint64)
    per_cell = fmt.payload_words
    n_cells = max(1, -(-int(payload.size) // per_cell))
    cells: list[Cell] = []
    remaining_bits = packet.size_bits
    for index in range(n_cells):
        chunk = payload[index * per_cell : (index + 1) * per_cell]
        words = np.zeros(fmt.words, dtype=np.uint64)
        words[0] = np.uint64(
            fmt.header_word(packet.dest_port, index, packet.packet_id)
        )
        words[1 : 1 + chunk.size] = chunk
        cell_payload_bits = min(remaining_bits, per_cell * fmt.bus_width)
        remaining_bits -= cell_payload_bits
        cells.append(
            Cell(
                packet_id=packet.packet_id,
                cell_index=index,
                cell_count=n_cells,
                src_port=packet.src_port,
                dest_port=packet.dest_port,
                words=words,
                payload_bits=cell_payload_bits,
                created_slot=packet.created_slot,
            )
        )
    return cells
