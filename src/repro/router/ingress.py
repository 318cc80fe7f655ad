"""Ingress packet process units (paper Sections 2 and 5.2).

One unit per port: it receives packets (already header-translated),
segments them into fixed-size cells, and holds them in a FIFO **input
buffer** until the arbiter grants fabric entry.  Two paper-mandated
properties:

* *input buffering*: destination contention is absorbed here, which is
  what caps egress throughput at 58.6% under saturation;
* the input buffers sit *outside* the switch fabric, so their energy is
  **not** counted toward fabric power (Section 5.2) — hence no ledger
  here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.router.cells import Cell, CellFormat, segment_packet
from repro.router.packet import Packet


@dataclass
class IngressStats:
    """Counters for one ingress unit."""

    packets_in: int = 0
    cells_in: int = 0
    cells_dropped: int = 0
    queue_peak: int = 0


class IngressUnit:
    """Per-port input FIFO with segmentation.

    Parameters
    ----------
    port: the ingress port index this unit serves.
    cell_format: bus geometry used for segmentation.
    queue_capacity_cells: input buffer depth; ``None`` (default) models
        the paper's unbounded input queue, an integer enables tail-drop
        (used by ablations).
    """

    def __init__(
        self,
        port: int,
        cell_format: CellFormat,
        queue_capacity_cells: int | None = None,
    ) -> None:
        if port < 0:
            raise ConfigurationError("port must be >= 0")
        if queue_capacity_cells is not None and queue_capacity_cells < 1:
            raise ConfigurationError("queue_capacity_cells must be >= 1 or None")
        self.port = port
        self.cell_format = cell_format
        self.queue_capacity_cells = queue_capacity_cells
        self._queue: deque[Cell] = deque()
        self.stats = IngressStats()

    # ------------------------------------------------------------------

    def accept_packet(self, packet: Packet) -> int:
        """Segment a packet into the queue; returns cells enqueued.

        With a bounded queue the whole packet is dropped if it does not
        fit (no partial packets — reassembly would deadlock).
        """
        if packet.src_port != self.port:
            raise ConfigurationError(
                f"packet for port {packet.src_port} given to unit {self.port}"
            )
        cells = segment_packet(packet, self.cell_format)
        if (
            self.queue_capacity_cells is not None
            and len(self._queue) + len(cells) > self.queue_capacity_cells
        ):
            self.stats.cells_dropped += len(cells)
            return 0
        self._queue.extend(cells)
        self.stats.packets_in += 1
        self.stats.cells_in += len(cells)
        self.stats.queue_peak = max(self.stats.queue_peak, len(self._queue))
        return len(cells)

    def head(self) -> Cell | None:
        """Peek the head-of-line cell (None if the queue is empty)."""
        return self._queue[0] if self._queue else None

    def pop(self) -> Cell:
        """Remove and return the head-of-line cell."""
        if not self._queue:
            raise ConfigurationError(f"ingress queue {self.port} is empty")
        return self._queue.popleft()

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def backlog_cells(self) -> int:
        return len(self._queue)

    def __len__(self) -> int:
        return len(self._queue)
