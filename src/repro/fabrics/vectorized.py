"""Vectorized fabric cores: array/id-based counterparts of the fabrics.

Each core re-implements one reference fabric's ``advance_slot`` against
a :class:`~repro.sim.cellstore.CellStore`: cells are integer row ids and
latches are small Python int lists.  Wire transfers are not charged
when they happen.  A core queues each one as ``(link, cell, grids)``
and *settles* the queue in one batch when it reaches
:data:`SETTLE_TRANSFERS` transfers (the Batcher-Banyan core by its own
bounds, below), and whenever the engine asks (before the warmup reset
and at collection).  A settlement counts each distinct cell's interior
word flips once, chains every link's resting word through the batch in
event order, and charges the energy through :func:`charge_events`.
Delivered cells come back through :meth:`VectorFabricCore.release` and
are freed at the next settlement, so no queued transfer reads a
recycled row.

Bit-for-bit equivalence with the reference fabrics is a hard contract
(tested in ``tests/test_engine_equivalence.py``).  The ledger's bytes
depend on two things per category dict, and a settlement replays both:

* each component's sequence of float adds: the same values (the same
  expression on the same operands; LUT, buffer and grid values are
  precomputed once, exactly as the reference computes them per event)
  in event order, with zero charges skipped;
* the order in which components are first inserted, which fixes the
  summation order of the category totals.

Every wire component belongs to one physical link, and a link carries
at most one cell per slot in every fabric, so a link's transfers in
slot order are its component's adds in order.

The banyan core advances its stages egress first, in one pass per slot
inside ``advance``.  A switch's two lines differ only in the stage's
address bit, so a cell leaves on the line whose bit is its
destination's.  A switch with an empty node buffer is resolved from its
one or two latch cells with a few local ints; only a switch whose
buffer holds a cell builds the reference's ranked candidates.  Both
paths make the reference's charges, counters and wire transfers in its
order.

The Batcher-Banyan core keeps no state between slots.  Its ``advance``
only queues the grants and counts them.  It settles once its held cells
make 4 x :data:`SETTLE_TRANSFERS` wire events (one at ingress and one
per traversal: 21 a cell at 32 ports), which caps its held rows and
event arrays while spreading the kernel's fixed numpy cost over about
390 cells, or once its held slots (those with grants) x ports reach
:data:`SETTLE_TRANSFERS`, which caps the kernel's dense (slot, line)
grids as the same cells spread over more slots at low load.  Its
settlement runs the bitonic substages as compare-exchanges on
``(line, slot)`` arrays and routes the banyan in closed form: after
stage ``s`` a cell sits on the line whose top ``s + 1`` address bits
are its destination's and whose other bits are its sorter output
line's.  It charges comparator, banyan-switch and wire energy in the
reference per-slot order.

Counters are plain ints, counted with the same "only if the event
happened" key-creation behaviour as the reference ``ledger.count`` call
sites; ``wire_flips`` is counted once per settlement.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.fabrics import topology
from repro.fabrics.banyan import BanyanFabric
from repro.fabrics.batcher_banyan import BatcherBanyanFabric
from repro.fabrics.crossbar import CrossbarFabric
from repro.fabrics.fully_connected import FullyConnectedFabric
from repro.sim import ledger as cat
from repro.sim.cellstore import CellStore
from repro.sim.tracer import _bitwise_count

#: Settlement budget.  The crossbar, fully connected and banyan cores
#: settle at this many queued wire transfers, which bounds the store rows
#: held for settlement and one settlement's arrays.  The Batcher-Banyan
#: settles once its held cells make 4x this many wire events (bounding
#: its rows and event arrays) or its held slots x ports reach it
#: (bounding its kernel's dense grids).
SETTLE_TRANSFERS = 2048


def charge_events(
    components: dict[str, float],
    names: np.ndarray,
    keys: np.ndarray,
    energies: np.ndarray,
) -> None:
    """Add ``energies[i]`` to ``components[names[keys[i]]]`` for every i.

    ``names`` is an object array of component labels.

    Bit-identical to the per-event loop ``if e: components[name] += e``:
    zero charges are skipped, each component's adds run in event order
    (``np.add.at`` is unbuffered) starting from its current value, and
    new components are inserted in first-occurrence order.
    """
    charged = energies != 0
    keys = keys[charged]
    if not keys.size:
        return
    first = np.full(len(names), keys.size)
    np.minimum.at(first, keys, np.arange(keys.size))
    hit = np.argsort(first)[: np.count_nonzero(first < keys.size)]
    labels = names[hit].tolist()
    totals = np.zeros(len(names))
    totals[hit] = [components.get(label, 0.0) for label in labels]
    np.add.at(totals, keys, energies[charged])
    components.update(zip(labels, totals[hit].tolist()))


class VectorFabricCore:
    """Shared state and the batched wire settlement."""

    def __init__(self, fabric, store: CellStore, link_comp: list[str]) -> None:
        if store.cell_format != fabric.cell_format:
            raise ConfigurationError("store/fabric cell format mismatch")
        self.fabric = fabric
        self.store = store
        self.ports = fabric.ports
        self._ledger = fabric.ledger
        self._switch_dict = self._ledger.component_dict(cat.SWITCH)
        self._wire_dict = self._ledger.component_dict(cat.WIRE)
        self._buffer_dict = self._ledger.component_dict(cat.BUFFER)
        self._refresh_dict = self._ledger.component_dict(cat.REFRESH)
        self._grid_energy = fabric.models.grid_energy_j
        self._bus_width = np.uint64(fabric.cell_format.bus_width)
        #: Wire component of each link id.
        self._link_comp = np.array(link_comp, dtype=object)
        self._resting = np.zeros(len(link_comp), dtype=np.uint64)
        self._q_link: list[int] = []
        self._q_cell: list[int] = []
        self._q_grids: list[float] = []
        self._released: list[int] = []

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        """Transport one slot of granted ``(port, cell_id)`` pairs."""
        raise NotImplementedError

    def can_admit(self, port: int) -> bool:
        return True

    def in_flight(self) -> int:
        return 0

    def release(self, ids: list[int]) -> None:
        """Take back delivered cells; their rows are freed at the next
        settlement, once no queued transfer reads them."""
        self._released.extend(ids)

    def settle(self) -> None:
        """Charge every queued wire transfer; free the released cells."""
        if self._q_link:
            self._settle_wires(
                np.array(self._q_link, dtype=np.intp),
                np.array(self._q_cell, dtype=np.intp),
                np.array(self._q_grids, dtype=np.float64),
            )
            self._q_link, self._q_cell, self._q_grids = [], [], []
        if self._released:
            self.store.free_many(self._released)
            self._released.clear()

    # ------------------------------------------------------------------
    # Batched wire settlement
    # ------------------------------------------------------------------

    def _settle_wires(
        self, links: np.ndarray, cells: np.ndarray, grids: np.ndarray
    ) -> None:
        """Count flips and charge energy of transfers in event order."""
        # Distinct cells, indexed by row id: cell_of[i] is transfer i's.
        index = np.zeros(self.store.capacity, dtype=np.intp)
        index[cells] = 1
        ids = np.flatnonzero(index)
        index[ids] = np.arange(ids.size)
        cell_of = index[cells]
        rows = self.store.words[ids]
        if np.bitwise_or.reduce(rows, axis=None) >> self._bus_width:
            wide = (rows >> self._bus_width).any(axis=1)
            raise SimulationError(
                f"cell {int(ids[wide.argmax()])} holds a word wider than "
                f"the {int(self._bus_width)}-bit bus"
            )
        steps = rows[:, 1:] ^ rows[:, :-1]
        interior = _bitwise_count(steps).reshape(steps.shape).sum(axis=1)
        first = rows[cell_of, 0]
        last = rows[cell_of, -1]
        # Each transfer follows the previous one on its link in this
        # batch, or else the link's resting word.  Sorting by (link,
        # event) as one unique key is a stable sort by link, only faster.
        order = np.argsort(links * links.size + np.arange(links.size))
        by_link = links[order]
        head = np.empty(by_link.size, dtype=bool)
        head[0] = True
        np.not_equal(by_link[1:], by_link[:-1], out=head[1:])
        last_sorted = last[order]
        prev_sorted = np.roll(last_sorted, 1)
        prev_sorted[head] = self._resting[by_link[head]]
        prev = np.empty_like(prev_sorted)
        prev[order] = prev_sorted
        tail = np.roll(head, -1)
        self._resting[by_link[tail]] = last_sorted[tail]
        flips = interior[cell_of] + _bitwise_count(first ^ prev)
        self._ledger.count("wire_flips", int(flips.sum()))
        charge_events(
            self._wire_dict,
            self._link_comp,
            links,
            flips * grids * self._grid_energy,
        )


class CrossbarCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.crossbar.CrossbarFabric`."""

    def __init__(self, fabric: CrossbarFabric, store: CellStore) -> None:
        n = fabric.ports
        self._row_comp = [f"xbar.row{p}" for p in range(n)]
        super().__init__(
            fabric, store, self._row_comp + [f"xbar.col{d}" for d in range(n)]
        )
        layout = fabric.layout
        fmt = fabric.cell_format
        self._row_grids = [layout.row_wire_grids(p) for p in range(n)]
        self._col_grids = [layout.column_wire_grids(d) for d in range(n)]
        base = fabric._crosspoint_lut.lookup((1,)) * fmt.bus_width * fmt.words
        self._row_energy = base * n

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        if not grants:
            return delivered
        sw = self._switch_dict
        dest = self.store.dest
        n = self.ports
        energy = self._row_energy
        q_link = self._q_link
        q_cell = self._q_cell
        q_grids = self._q_grids
        for port, cid in sorted(grants):
            if energy:
                sw[self._row_comp[port]] += energy
            d = dest[cid]
            q_link += (port, n + d)
            q_cell += (cid, cid)
            q_grids += (self._row_grids[port], self._col_grids[d])
            delivered.append(cid)
        self._ledger.count("switch_traversals", n * len(delivered))
        self._ledger.count("cells_delivered", len(delivered))
        if len(q_link) >= SETTLE_TRANSFERS:
            self.settle()
        return delivered


class FullyConnectedCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.fully_connected.FullyConnectedFabric`."""

    def __init__(self, fabric: FullyConnectedFabric, store: CellStore) -> None:
        n = fabric.ports
        super().__init__(fabric, store, [f"fc.bus{p}" for p in range(n)])
        layout = fabric.layout
        fmt = fabric.cell_format
        lut = fabric._mux_lut
        self._mux_comp = [f"fc.mux{d}" for d in range(n)]
        self._mux_energy = []
        self._mux_traversals = []
        for p in range(n):
            vector = tuple(1 if i == p else 0 for i in range(lut.n_inputs))
            self._mux_energy.append(
                lut.lookup(vector) * fmt.bus_width * fmt.words
            )
            self._mux_traversals.append(sum(vector))
        self._conn_grids = [
            [
                layout.connection_grids(p, d, mode=fabric.wire_mode)
                for d in range(n)
            ]
            for p in range(n)
        ]

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        if not grants:
            return delivered
        sw = self._switch_dict
        dest = self.store.dest
        traversals = 0
        for port, cid in sorted(grants):
            d = dest[cid]
            energy = self._mux_energy[port]
            if energy:
                sw[self._mux_comp[d]] += energy
            traversals += self._mux_traversals[port]
            self._q_link.append(port)
            self._q_cell.append(cid)
            self._q_grids.append(self._conn_grids[port][d])
            delivered.append(cid)
        self._ledger.count("switch_traversals", traversals)
        self._ledger.count("cells_delivered", len(delivered))
        if len(self._q_link) >= SETTLE_TRANSFERS:
            self.settle()
        return delivered


class BanyanCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.banyan.BanyanFabric`.

    Latches are indexed by line number (``latch[stage][line]`` is a cell
    id or -1); node buffers are per-switch deques of ``(cell_id,
    input_line)``.  :meth:`advance` resolves a switch with an empty
    buffer inline: its latch cells rank by (fabric entry slot, input
    index), a loser of contention parks first, and each other cell moves
    or, if blocked, parks.  A switch whose buffer holds a cell goes
    through :meth:`_resolve_buffered` (see the module docstring).
    """

    def __init__(self, fabric: BanyanFabric, store: CellStore) -> None:
        n = fabric.ports
        stages = fabric.stages
        # Link ids: ingress port p, then n + stage * n + output line.
        super().__init__(
            fabric,
            store,
            [f"banyan.ingress{p}" for p in range(n)]
            + [
                f"banyan.stage{s}.out{line}"
                for s in range(stages)
                for line in range(n)
            ],
        )
        layout = fabric.layout
        fmt = fabric.cell_format
        wm = fabric.wire_mode
        self.stages = stages
        self._cap = fabric.buffer_cells_per_switch
        self._cell_bits = fmt.cell_bits
        self._edge_grids = layout.edge_link_grids()
        bits = [topology.stage_bit(n, s) for s in range(stages)]
        self._sw_comp = [
            [f"banyan.stage{s}.sw{k}" for k in range(n // 2)]
            for s in range(stages)
        ]
        lut = fabric._switch_lut
        # Switch energy by served inputs: 1 = input 0, 2 = input 1, 3 = both.
        self._sw_e = [0.0] + [
            lut.lookup(v) * fmt.bus_width * fmt.words
            for v in ((1, 0), (0, 1), (1, 1))
        ]
        buffer = fabric.models.buffer
        self._write_e = buffer.write_energy_j(self._cell_bits)
        self._read_e = buffer.read_energy_j(self._cell_bits)
        self._refresh_enabled = (
            buffer.refresh_energy_j != 0 and fabric.slot_seconds is not None
        )
        if self._refresh_enabled:
            self._refresh_by_cells = [0.0] + [
                buffer.refresh_energy_for(
                    c * self._cell_bits, fabric.slot_seconds
                )
                for c in range(1, self._cap + 1)
            ]
        self._latch = [[-1] * n for _ in range(stages)]
        self._buf: list[list[deque]] = [
            [deque() for _ in range(n // 2)] for _ in range(stages)
        ]
        # Per stage, egress first: latches, buffers, each switch's
        # (bit-clear, bit-set) lines, the address-bit mask, straight and
        # crossed link grids, switch components and the first link id.
        self._stage_tab = [
            (
                self._latch[s],
                self._buf[s],
                [topology.switch_lines(n, s, k) for k in range(n // 2)],
                1 << bits[s],
                layout.link_grids(bits[s], False, mode=wm),
                layout.link_grids(bits[s], True, mode=wm),
                self._sw_comp[s],
                n + s * n,
            )
            for s in range(stages - 1, -1, -1)
        ]
        self._in_flight = 0

    def can_admit(self, port: int) -> bool:
        return self._latch[0][port] < 0

    def in_flight(self) -> int:
        return self._in_flight

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        delivered: list[int] = []
        # contentions, blocked, stalls, buffer writes, buffer reads,
        # switch traversals
        counts = [0, 0, 0, 0, 0, 0]
        dest = self.store.dest
        entered = self.store.entered_slot
        sw_e = self._sw_e
        sw_dict = self._switch_dict
        buf_dict = self._buffer_dict
        write_e = self._write_e
        cap = self._cap
        q_link = self._q_link
        q_cell = self._q_cell
        q_grids = self._q_grids
        # Stages advance egress first, so a stage moves into latches its
        # downstream stage has already emptied; the last has none.
        next_latch = None
        for tab in self._stage_tab:
            latch, bufs, lines, mask, straight, crossed, comps, link_base = tab
            for k, (l0, l1) in enumerate(lines):
                c0 = latch[l0]
                c1 = latch[l1]
                buf = bufs[k]
                if buf:
                    self._resolve_buffered(tab, k, next_latch, delivered,
                                           counts)
                    continue
                # c ranks first by (fabric entry slot, input index); d is
                # the other latch cell or -1.
                if c0 < 0:
                    if c1 < 0:
                        continue
                    c, line, d = c1, l1, -1
                elif c1 < 0 or entered[c0] <= entered[c1]:
                    c, line, d = c0, l0, c1
                else:
                    c, line, d = c1, l1, c0
                if d >= 0 and not (dest[c] ^ dest[d]) & mask:
                    # Both want one output: d loses and parks in the empty
                    # buffer (it holds at least one cell) before c moves
                    # or, if blocked, parks.
                    counts[0] += 1
                    latch[line ^ mask] = -1
                    buf.append((d, line ^ mask))
                    if write_e:
                        buf_dict[comps[k]] += write_e
                    counts[3] += 1
                    d = -1
                served = 0
                while True:  # c, then d if it did not lose
                    out = l0 | dest[c] & mask
                    if next_latch is not None and next_latch[out] >= 0:
                        counts[1] += 1
                        if len(buf) >= cap:
                            counts[2] += 1  # stalls in the latch
                        else:
                            latch[line] = -1
                            buf.append((c, line))
                            if write_e:
                                buf_dict[comps[k]] += write_e
                            counts[3] += 1
                    else:
                        latch[line] = -1
                        q_link.append(link_base + out)
                        q_cell.append(c)
                        q_grids.append(straight if out == line else crossed)
                        if next_latch is None:
                            delivered.append(c)
                        else:
                            next_latch[out] = c
                        served |= 1 if line == l0 else 2
                        counts[5] += 1
                    if d < 0:
                        break
                    c, line, d = d, line ^ mask, -1
                if sw_e[served]:
                    sw_dict[comps[k]] += sw_e[served]
            next_latch = latch
        self._admit(grants, slot)
        self._refresh_all()
        self._in_flight -= len(delivered)
        ledger = self._ledger
        if counts[0]:
            ledger.count("contentions", counts[0])
        if counts[1]:
            ledger.count("blocked_advances", counts[1])
        if counts[2]:
            ledger.count("buffer_full_stalls", counts[2])
        if counts[3]:
            ledger.count("buffer_writes", counts[3])
            ledger.count("buffered_bits", counts[3] * self._cell_bits)
            ledger.count("cells_buffered", counts[3])
        if counts[4]:
            ledger.count("buffer_reads", counts[4])
        if counts[5]:
            ledger.count("switch_traversals", counts[5])
        if delivered:
            ledger.count("cells_delivered", len(delivered))
        if len(self._q_link) >= SETTLE_TRANSFERS:
            self.settle()
        return delivered

    def _resolve_buffered(self, tab, k, next_latch, delivered, counts) -> None:
        """Resolve switch ``k`` of a stage whose node buffer holds a cell,
        as the reference does: candidates in priority order (the buffer
        head, then latch cells by fabric entry slot and input index), one
        winner per output line, winners moved in claim order, then the
        losing latch cells parked."""
        latch, bufs, lines, mask, straight, crossed, comps, link_base = tab
        buf = bufs[k]
        l0, l1 = lines[k]
        comp = comps[k]
        entered = self.store.entered_slot
        c0 = latch[l0]
        c1 = latch[l1]
        head = buf[0]
        candidates = [head]
        if c0 >= 0 and c1 >= 0 and entered[c1] < entered[c0]:
            candidates += ((c1, l1), (c0, l0))
        else:
            if c0 >= 0:
                candidates.append((c0, l0))
            if c1 >= 0:
                candidates.append((c1, l1))
        dest = self.store.dest
        winners: dict[int, tuple[int, int]] = {}
        losers: list[tuple[int, int]] = []
        for cand in candidates:
            out = l0 | dest[cand[0]] & mask
            if out in winners:
                losers.append(cand)
                counts[0] += 1
            else:
                winners[out] = cand
        served = 0
        for out, cand in winners.items():
            if next_latch is not None and next_latch[out] >= 0:
                counts[1] += 1
                losers.append(cand)
                continue
            cid, line = cand
            if cand is head:
                buf.popleft()
                if self._read_e:
                    self._buffer_dict[comp] += self._read_e
                counts[4] += 1
            else:
                latch[line] = -1
            self._q_link.append(link_base + out)
            self._q_cell.append(cid)
            self._q_grids.append(straight if out == line else crossed)
            if next_latch is None:
                delivered.append(cid)
            else:
                next_latch[out] = cid
            served |= 1 if line == l0 else 2
        if self._sw_e[served]:
            self._switch_dict[comp] += self._sw_e[served]
        counts[5] += (served + 1) // 2  # inputs served
        for cand in losers:
            if cand is head:
                continue  # stays at the buffer head; no new energy
            if len(buf) >= self._cap:
                counts[2] += 1
                continue  # stalls in the latch (backpressure)
            latch[cand[1]] = -1
            buf.append(cand)
            if self._write_e:
                self._buffer_dict[comp] += self._write_e
            counts[3] += 1

    def _admit(self, grants: list[tuple[int, int]], slot: int) -> None:
        entered = self.store.entered_slot
        latch0 = self._latch[0]
        for port, cid in sorted(grants):
            if latch0[port] >= 0:
                raise SimulationError(
                    f"admission to occupied latch at port {port}; the engine "
                    "must respect can_admit()"
                )
            entered[cid] = slot
            self._q_link.append(port)
            self._q_cell.append(cid)
            self._q_grids.append(self._edge_grids)
            latch0[port] = cid
            self._in_flight += 1

    def _refresh_all(self) -> None:
        if not self._refresh_enabled:
            return
        refresh = self._refresh_dict
        by_cells = self._refresh_by_cells
        for stage in range(self.stages):
            bufs = self._buf[stage]
            swcomp = self._sw_comp[stage]
            for k in range(self.ports // 2):
                occupancy = len(bufs[k])
                if occupancy:
                    energy = by_cells[occupancy]
                    if energy:
                        refresh[swcomp[k]] += energy


class BatcherBanyanCore(VectorFabricCore):
    """Vectorized :class:`~repro.fabrics.batcher_banyan.BatcherBanyanFabric`.

    Stateless between slots: :meth:`advance` queues the grants and a
    settlement sorts and routes every queued slot at once.  It settles
    on held cells, bounded by held line-slots (see the module docstring).
    """

    def __init__(self, fabric: BatcherBanyanFabric, store: CellStore) -> None:
        n = fabric.ports
        half = n // 2
        schedule = fabric._schedule
        stages = fabric.stages
        sorter = [f"bb.sorter.p{sub.phase}s{sub.step}" for sub in schedule]
        banyan = [f"bb.banyan.stage{s}" for s in range(stages)]
        # Link ids: ingress port p, then n + substage * n + output line,
        # then n + (substages + stage) * n + output line.
        super().__init__(
            fabric,
            store,
            [f"bb.ingress{p}" for p in range(n)]
            + [f"{col}.out{line}" for col in sorter + banyan
               for line in range(n)],
        )
        self.stages = stages
        layout = fabric.layout
        fmt = fabric.cell_format
        wm = fabric.wire_mode
        # Switch component ids: substage * half + comparator, then
        # (substages + stage) * half + switch.
        self._sw_names = np.array(
            [f"{col}.c{c.low}" for col, sub in zip(sorter, schedule)
             for c in sub.comparators]
            + [f"{col}.sw{k}" for col in banyan for k in range(half)],
            dtype=object,
        )
        self._sorter = [
            (
                np.array([c.low for c in sub.comparators], dtype=np.intp),
                np.array([c.high for c in sub.comparators], dtype=np.intp),
                np.array([[c.ascending] for c in sub.comparators]),
            )
            for sub in schedule
        ]
        n_sub = len(schedule)
        self._substage = np.arange(n_sub)[:, None, None]
        # Sorter event (substage, comparator, low/high output) -> link.
        self._sorter_links = (
            n * (1 + self._substage)
            + np.array([[(c.low, c.high) for c in sub.comparators]
                        for sub in schedule])
        ).ravel()
        # Grids of a (substage, swapped) link; likewise (stage, crossed).
        self._sorter_grids = np.array([
            [layout.sorter_link_grids(sub.phase, sub.step, x, mode=wm)
             for x in (False, True)]
            for sub in schedule
        ])
        banyan_layout = layout.banyan_layout()
        self._bits = [topology.stage_bit(n, s) for s in range(stages)]
        self._banyan_grids = np.array([
            [banyan_layout.link_grids(bit, x, mode=wm) for x in (False, True)]
            for bit in self._bits
        ])
        self._stage = np.arange(stages)[:, None]
        self._banyan_links = n * (1 + n_sub + self._stage)
        # Per (stage, input line): the switch's component id and which
        # of its two inputs the line is.
        self._switch_id = np.array([
            [(n_sub + s) * half + topology.switch_index(n, s, line)
             for line in range(n)]
            for s in range(stages)
        ])
        self._upper = np.array([
            [topology.switch_input_index(n, s, line) for line in range(n)]
            for s in range(stages)
        ])
        # Comparator energy by input occupancy (a, b) at index 2a + b;
        # an idle comparator, (0, 0), is never charged.
        self._sort_e = np.array([0.0] + [
            fabric._sorting_lut.lookup(v) * fmt.bus_width * fmt.words
            for v in ((0, 1), (1, 0), (1, 1))
        ])
        # Banyan switch energy at index 2 * input index + partner present,
        # for the switch's first cell.
        self._switch_e = np.array([
            fabric._binary_lut.lookup(v) * fmt.bus_width * fmt.words
            for v in ((1, 0), (1, 1), (0, 1), (1, 1))
        ])
        self._traversals = len(schedule) + stages
        self._sizes: list[int] = []
        self._grants: list[tuple[int, int]] = []

    def advance(self, grants: list[tuple[int, int]], slot: int) -> list[int]:
        if not grants:
            return []
        cells = len(grants)
        self._sizes.append(cells)
        self._grants.extend(grants)
        self._ledger.count("switch_traversals", cells * self._traversals)
        self._ledger.count("cells_delivered", cells)
        dest = self.store.dest
        delivered = sorted([cid for _, cid in grants], key=dest.__getitem__)
        if (
            len(self._grants) * (1 + self._traversals) >= 4 * SETTLE_TRANSFERS
            or len(self._sizes) * self.ports >= SETTLE_TRANSFERS
        ):
            self.settle()
        return delivered

    def settle(self) -> None:
        if self._grants:
            self._sort_and_route()
        super().settle()

    def _sort_and_route(self) -> None:
        """Sort and route every queued slot; charge switches and wires.

        Each slot's wire events are laid out in the reference order:
        ingress in grant order, each substage's comparators with the
        low output first, then each banyan stage in sorter-output line
        order.  Each slot's switch events follow the same order, a
        banyan switch being charged at its first cell's position.
        """
        n = self.ports
        half = n // 2
        n_sub = len(self._sorter)
        sizes, slots = self._sizes, len(self._sizes)
        ports, cells = np.array(self._grants, dtype=np.intp).T
        self._sizes, self._grants = [], []
        dest = self.store.dest
        # key[g] is grant g's destination; key[-1], for an empty line
        # (grant index -1), sorts as +inf.
        key = np.array([dest[c] for c in cells.tolist()] + [n], dtype=np.intp)
        g = np.arange(len(cells))
        row = np.repeat(np.arange(slots), sizes)
        rank = g - np.repeat(np.cumsum(sizes) - sizes, sizes)
        in_g = np.full((slots, n), -1, dtype=np.intp)
        in_g[row, rank] = g
        in_link = np.zeros((slots, n), dtype=np.intp)
        in_link[row, rank] = ports
        # Bitonic sorter on (line, slot) arrays: each comparator's
        # (low, high) outputs and whether it swapped.
        lines = np.full((n, slots), -1, dtype=np.intp)
        lines[ports, row] = g
        out_g = np.empty((n_sub, half, 2, slots), dtype=np.intp)
        swaps = np.empty((n_sub, half, slots), dtype=np.intp)
        for si, (low, high, ascending) in enumerate(self._sorter):
            ga = lines[low]
            gb = lines[high]
            ka = key[ga]
            kb = key[gb]
            swaps[si] = swap = np.where(ascending, ka > kb, ka < kb)
            lines[low] = out_g[si, :, 0] = np.where(swap, gb, ga)
            lines[high] = out_g[si, :, 1] = np.where(swap, ga, gb)
        # Input occupancy (a, b) of each comparator, from its outputs.
        lo, hi = out_g[:, :, 0] >= 0, out_g[:, :, 1] >= 0
        vectors = 2 * np.where(swaps, hi, lo) + np.where(swaps, lo, hi)
        # Banyan section, in closed form over the sorted cells: every
        # cell's input and output line at each stage.
        pos, r = np.nonzero(lines >= 0)
        g = lines[pos, r]
        d = key[g]
        stages = self.stages
        ins = np.empty((stages, g.size), dtype=np.intp)
        outs = np.empty_like(ins)
        lead = np.empty(ins.shape, dtype=bool)
        paired = np.empty_like(lead)
        line = pos
        top = 0
        for s, bit in enumerate(self._bits):
            top |= 1 << bit
            ins[s] = line
            outs[s] = line = (d & top) | (pos & (n - 1 - top))
            # A switch is charged once, at its first cell's position.
            at = np.full((slots, n), n, dtype=np.intp)
            at[r, ins[s]] = pos
            partner = at[r, ins[s] ^ (1 << bit)]
            lead[s] = pos < partner
            paired[s] = partner < n
        taken = (r * stages + self._stage) * n + outs
        if np.bincount(taken.ravel()).max() > 1:
            raise SimulationError(
                "internal blocking inside Batcher-Banyan: the sorted "
                "batch was not monotone — this is a library bug"
            )
        shape = (slots, stages, n)
        ban_link = np.zeros(shape, dtype=np.intp)
        ban_link[r, :, pos] = (outs + self._banyan_links).T
        ban_grids = np.zeros(shape)
        ban_grids[r, :, pos] = np.where(
            ins != outs, self._banyan_grids[:, 1:], self._banyan_grids[:, :1]
        ).T
        ban_e = np.zeros(shape)
        ban_e[r, :, pos] = np.where(
            lead, self._switch_e[2 * self._upper[self._stage, ins] + paired], 0
        ).T
        ban_key = np.zeros(shape, dtype=np.intp)
        ban_key[r, :, pos] = self._switch_id[self._stage, ins].T
        # Per slot: ingress, then sorter, then banyan events.
        ev_g = np.concatenate([
            in_g,
            out_g.transpose(3, 0, 1, 2).reshape(slots, -1),
            np.repeat(lines.T, stages, axis=0).reshape(slots, -1),
        ], axis=1)
        events = ev_g >= 0
        sorter_grids = self._sorter_grids[self._substage, swaps]
        self._settle_wires(
            np.concatenate([
                in_link,
                np.broadcast_to(self._sorter_links, (slots, n_sub * n)),
                ban_link.reshape(slots, -1),
            ], axis=1)[events],
            cells[ev_g[events]],
            np.concatenate([
                np.full((slots, n), 4.0),
                np.repeat(sorter_grids.transpose(2, 0, 1), 2, axis=2)
                .reshape(slots, -1),
                ban_grids.reshape(slots, -1),
            ], axis=1)[events],
        )
        charge_events(
            self._switch_dict,
            self._sw_names,
            np.concatenate([
                np.tile(np.arange(n_sub * half), (slots, 1)),
                ban_key.reshape(slots, -1),
            ], axis=1).ravel(),
            np.concatenate([
                self._sort_e[vectors].transpose(2, 0, 1).reshape(slots, -1),
                ban_e.reshape(slots, -1),
            ], axis=1).ravel(),
        )


# Kept because perfbench/tracing.py imports and wraps this name.
def flush_core_stack(cores) -> None:
    """Inert placeholder for the removed fused-stack wire flush."""
    raise ConfigurationError("the fused engine tier was removed")


#: Exact fabric type -> vector core for the built-ins.  Kept as a
#: stable alias; the full dispatch table (including custom fabrics)
#: lives in :mod:`repro.fabrics.registry`.
CORE_TYPES = {
    CrossbarFabric: CrossbarCore,
    FullyConnectedFabric: FullyConnectedCore,
    BanyanFabric: BanyanCore,
    BatcherBanyanFabric: BatcherBanyanCore,
}


def make_vector_core(fabric, store: CellStore) -> VectorFabricCore:
    """The registered vector core matching a fabric instance.

    Dispatch is by exact fabric type through
    :func:`repro.fabrics.registry.vector_core_for`, so subclasses with
    overridden dynamics never silently match a parent's core — register
    their own entry instead.
    """
    from repro.fabrics.registry import vector_core_for, vector_core_summary

    core_cls = vector_core_for(fabric)
    if core_cls is None:
        raise ConfigurationError(
            f"no vectorized core registered for fabric type "
            f"{type(fabric).__name__}; registered architectures: "
            f"{vector_core_summary()}. Register one with "
            "repro.fabrics.registry.register_fabric(..., vector_core=...) "
            "or use engine='reference'"
        )
    return core_cls(fabric, store)
