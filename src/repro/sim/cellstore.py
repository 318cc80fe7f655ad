"""Struct-of-arrays cell storage for the vectorized engine.

The reference engine moves :class:`~repro.router.cells.Cell` objects;
the vectorized engine moves integer cell ids into this store instead.
Bus words live in one contiguous ``(capacity, words)`` uint64 matrix so
a fabric core can flip-count a whole batch of queued wire transfers in
one popcount, while the scalar per-cell metadata (destination, reassembly
coordinates, timestamps) lives in plain Python lists — scalar reads in
the fabric inner loops are cheaper there than through numpy.

Rows are recycled through a free list, so a long run's memory stays
proportional to the peak number of in-flight + queued cells, plus the
delivered cells a core holds until its next wire settlement.

When every packet of a batch is one cell of a common width
(:attr:`ArrivalBatch.words_per_packet`), :meth:`CellStore.add_batch`
writes each row once from one block, zero-filling only the padding the
payload leaves; mixed widths and multi-cell packets go packet by packet
through :meth:`CellStore.add_packet`.
"""

from __future__ import annotations

import numpy as np

from repro.router.cells import CellFormat
from repro.router.traffic import ArrivalBatch


class CellStore:
    """Array-backed pool of cells, addressed by integer id."""

    def __init__(self, cell_format: CellFormat, capacity: int = 1024) -> None:
        self.cell_format = cell_format
        capacity = max(16, capacity)
        self.words = np.zeros((capacity, cell_format.words), dtype=np.uint64)
        self.dest: list[int] = [0] * capacity
        self.src: list[int] = [0] * capacity
        self.packet_id: list[int] = [0] * capacity
        self.cell_index: list[int] = [0] * capacity
        self.cell_count: list[int] = [1] * capacity
        self.payload_bits: list[int] = [0] * capacity
        self.created_slot: list[int] = [0] * capacity
        self.entered_slot: list[int] = [0] * capacity
        self._free: list[int] = list(range(capacity - 1, -1, -1))

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.words.shape[0]

    @property
    def live_cells(self) -> int:
        return self.capacity - len(self._free)

    def _grow(self) -> None:
        old = self.capacity
        new_words = np.zeros((old * 2, self.cell_format.words), dtype=np.uint64)
        new_words[:old] = self.words
        self.words = new_words
        for lst in (
            self.dest,
            self.src,
            self.packet_id,
            self.cell_index,
            self.cell_count,
            self.payload_bits,
            self.created_slot,
            self.entered_slot,
        ):
            lst.extend([0] * old)
        self._free.extend(range(old * 2 - 1, old - 1, -1))

    def alloc(self) -> int:
        """One free row id (growing the arrays when exhausted)."""
        if not self._free:
            self._grow()
        return self._free.pop()

    def alloc_many(self, count: int) -> list[int]:
        """``count`` free row ids."""
        while len(self._free) < count:
            self._grow()
        if count == 0:
            return []
        ids = self._free[-count:]
        del self._free[-count:]
        return ids

    def free_many(self, ids: list[int]) -> None:
        """Return delivered cells' rows to the pool."""
        self._free.extend(ids)

    # ------------------------------------------------------------------
    # Segmentation (mirrors repro.router.cells.segment_packet)
    # ------------------------------------------------------------------

    def add_batch(self, batch: ArrivalBatch) -> tuple[list[int], list[int]]:
        """Segment every packet of a batch into cells.

        Returns ``(cell_ids, packet_slices)`` where ``packet_slices[i]``
        is the index into ``cell_ids`` at which packet ``i``'s cells
        begin (length ``len(batch) + 1``).  Cell contents and coordinates
        match :func:`repro.router.cells.segment_packet` exactly.
        """
        fmt = self.cell_format
        n = len(batch)
        width = batch.words_per_packet
        if width is None or width > fmt.payload_words:
            # Mixed widths or multi-cell packets: one packet at a time.
            ids: list[int] = []
            slices = [0]
            for i in range(n):
                ids.extend(self.add_packet(batch, i))
                slices.append(len(ids))
            return ids, slices
        ids = self.alloc_many(n)
        block = np.empty((n, fmt.words), dtype=np.uint64)
        block[:, 1 : 1 + width] = batch.payload_words.reshape(n, width)
        if width < fmt.payload_words:
            block[:, 1 + width :] = 0
        block[:, 0] = fmt.header_word(
            batch.dests.astype(np.uint64), 0, batch.packet_ids.astype(np.uint64)
        )
        slots = batch.created_slots
        slots = [batch.created_slot] * n if slots is None else slots.tolist()
        for cid, dest, src, pid, bits, slot in zip(
            ids, batch.dests.tolist(), batch.srcs.tolist(),
            batch.packet_ids.tolist(), batch.size_bits.tolist(), slots,
        ):
            self.dest[cid] = dest
            self.src[cid] = src
            self.packet_id[cid] = pid
            self.cell_index[cid] = 0
            self.cell_count[cid] = 1
            self.payload_bits[cid] = bits
            self.created_slot[cid] = slot
        self.words[ids] = block
        return ids, list(range(n + 1))

    def add_packet(self, batch: ArrivalBatch, i: int) -> list[int]:
        """Segment packet ``i`` of a batch; returns its new cell ids."""
        fmt = self.cell_format
        per_cell = fmt.payload_words
        o0 = int(batch.word_offsets[i])
        o1 = int(batch.word_offsets[i + 1])
        payload = batch.payload_words[o0:o1]
        n_cells = max(1, -(-(o1 - o0) // per_cell))
        dest = int(batch.dests[i])
        src = int(batch.srcs[i])
        pid = int(batch.packet_ids[i])
        remaining_bits = int(batch.size_bits[i])
        slot = batch.packet_created_slot(i)
        ids = []
        for index in range(n_cells):
            cid = self.alloc()
            row = self.words[cid]
            row[:] = 0
            row[0] = np.uint64(fmt.header_word(dest, index, pid))
            chunk = payload[index * per_cell : (index + 1) * per_cell]
            row[1 : 1 + chunk.size] = chunk
            cell_payload_bits = min(remaining_bits, per_cell * fmt.bus_width)
            remaining_bits -= cell_payload_bits
            self.dest[cid] = dest
            self.src[cid] = src
            self.packet_id[cid] = pid
            self.cell_index[cid] = index
            self.cell_count[cid] = n_cells
            self.payload_bits[cid] = cell_payload_bits
            self.created_slot[cid] = slot
            ids.append(cid)
        return ids
