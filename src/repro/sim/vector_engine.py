"""The vectorized slot-loop engine.

Drop-in counterpart of :class:`~repro.sim.engine.SimulationEngine` built
on struct-of-arrays state: arrivals come in as one
:class:`~repro.router.traffic.ArrivalBatch` per block of up to
:data:`BLOCK_SLOTS` slots (never past the run's last arrival slot),
cells live as rows of a :class:`~repro.sim.cellstore.CellStore` (with
unbounded queues, a whole block's cells are written at once; each
slot then only queues its own ids), ingress FIFOs (or
per-destination VOQs) hold integer cell ids, arbitration and egress
accounting run on plain ints and lists, and the fabric is driven
through a :class:`~repro.fabrics.vectorized.VectorFabricCore` that
queues wire transfers and settles their flips and energy in batches
bounded by :data:`~repro.fabrics.vectorized.SETTLE_TRANSFERS` (in
transfers, or for the Batcher-Banyan in held cells and line-slots).

This is the fast tier of the two-engine stack: the reference engine
(:mod:`repro.sim.engine`) is the bit-exact oracle, and this engine is
the per-scenario path pinned to it.

The engine is an exact functional mirror of the reference: for any
seeded run of a supported router it produces a bit-identical
:class:`~repro.sim.results.SimulationResult` (energy breakdown,
throughput, delivered cells, latency statistics, counters — enforced by
``tests/test_engine_equivalence.py`` and ``tests/test_engine_fuzz.py``).
Both engines consume the same RNG stream:
:meth:`TrafficGenerator.arrival_block` draws exactly the packets of its
slots' :meth:`TrafficGenerator.arrivals_batch` calls, which the
reference engine makes one slot at a time.

Supported configurations: a plain :class:`~repro.router.router.
NetworkRouter` (FIFO ingress, bounded or unbounded) with the FCFS
round-robin or oldest-first arbiter, or a
:class:`~repro.router.voq.VoqNetworkRouter` (per-destination VOQs
matched by K-iteration iSLIP, bounded or unbounded), over any fabric
with a vector core in :mod:`repro.fabrics.registry` (the four built-ins
plus custom registrations).  Anything else raises
:class:`~repro.errors.ConfigurationError` naming the registered cores —
use the reference engine there.

The VOQ path mirrors :class:`~repro.router.voq.IslipArbiter` on
Python-int bitsets.  Each output keeps one request int whose bit i is
set while input i's VOQ for that output is non-empty (set on enqueue,
cleared when the VOQ drains).  In each iSLIP iteration every unmatched
output grants the first free requester at or after its grant pointer
(the lowest set bit of ``mask >> pointer``, else of ``mask``), and every
winner accepts its granted output closest to its accept pointer the
same way; pointers move only on first-iteration accepts.  Winners come
out in first-grant order, the reference arbiter's dict-insertion order.
That order is part of the bit-exact contract: the fabric cores charge
the ledger in grant order, and the Batcher-Banyan lays out its ingress
wire events by it.

The engine takes ownership of the router's energy ledger; do not run
the same router instance through both engines.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ConfigurationError
from repro.fabrics.vectorized import make_vector_core
from repro.router.arbiter import FcfsRoundRobinArbiter, OldestFirstArbiter
from repro.router.router import NetworkRouter
from repro.router.voq import IslipArbiter, VoqNetworkRouter
from repro.sim import ledger as categories
from repro.sim.cellstore import CellStore
from repro.sim.results import (
    EnergyBreakdown,
    SimulationResult,
    check_run_invariants,
    latency_stats_from_slots,
)


#: Arrival slots drawn and segmented at once.  Not part of any contract:
#: results do not depend on it.
BLOCK_SLOTS = 64


def supports_router(router) -> bool:
    """Whether :class:`VectorizedEngine` can run this router exactly."""
    from repro.fabrics.registry import vector_core_for

    if vector_core_for(router.fabric) is None:
        return False
    if type(router) is NetworkRouter:
        return type(router.arbiter) in (
            FcfsRoundRobinArbiter,
            OldestFirstArbiter,
        )
    if type(router) is VoqNetworkRouter:
        return type(router.arbiter) is IslipArbiter
    return False


def _round_robin(mask: int, pointer: int) -> int:
    """The set bit of ``mask`` closest clockwise to ``pointer``: the
    first at or after it, else the lowest."""
    ahead = mask >> pointer
    if ahead:
        return pointer + (ahead & -ahead).bit_length() - 1
    return (mask & -mask).bit_length() - 1


class VectorizedEngine:
    """Array-based slot loop over a :class:`NetworkRouter`.

    Parameters
    ----------
    router: the assembled router (see module docstring for the
        supported configurations).
    seed: seed for the run's random generator (payloads, arrivals).
    """

    def __init__(
        self, router: NetworkRouter, seed: int | None = 12345
    ) -> None:
        if not supports_router(router):
            from repro.fabrics.registry import vector_core_summary

            raise ConfigurationError(
                "engine='vectorized' was selected, but VectorizedEngine "
                "supports a NetworkRouter (FCFS/oldest-first arbiter) or "
                "VoqNetworkRouter (iSLIP) over a fabric with a registered "
                f"vector core; got {type(router).__name__} with "
                f"{type(router.arbiter).__name__} and "
                f"{type(router.fabric).__name__}. Registered cores: "
                f"{vector_core_summary()}. Register the fabric with "
                "repro.fabrics.registry.register_fabric(..., "
                "vector_core=...) or use the reference engine "
                "(engine='reference')."
            )
        self.router = router
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._slot = 0
        # Arrival slots run() has yet to draw, and the current block.
        self._arrivals_left = 0
        self._block_start = self._block_end = 0
        ports = router.ports
        self.store = CellStore(router.fabric.cell_format)
        self._core = make_vector_core(router.fabric, self.store)
        self._queue_cap = router.ingress[0].queue_capacity_cells
        self._is_voq = type(router) is VoqNetworkRouter
        if self._is_voq:
            # Per-(input, destination) FIFOs of cell ids, and per output
            # an int whose bit i is set while input i's VOQ for that
            # output is non-empty (set on enqueue, cleared on drain).
            self._vq: list[list[deque[int]]] = [
                [deque() for _ in range(ports)] for _ in range(ports)
            ]
            self._requests = [0] * ports
            self._port_depth = [0] * ports
            arbiter = router.arbiter
            self._islip_iterations = arbiter.iterations
            self._grant_ptr = list(arbiter._grant_ptr)
            self._accept_ptr = list(arbiter._accept_ptr)
        else:
            self._queues: list[list[int]] = [[] for _ in range(ports)]
            self._qhead = [0] * ports
            self._oldest_first = type(router.arbiter) is OldestFirstArbiter
            self._pointer = router.arbiter._pointer
        # Ingress statistics (mirrored onto router.ingress[*].stats at
        # collection time; like the reference, never reset at warmup).
        self._packets_in = [0] * ports
        self._cells_in = [0] * ports
        self._cells_dropped = [0] * ports
        self._queue_peak = [0] * ports
        # Egress accounting (mirrors repro.router.egress.EgressUnit).
        self._measuring = False
        self._measurement_slots = 0
        self._measured_cells = 0
        self._cells_delivered = 0
        self._cells_out = 0  # delivered over the whole run
        self._payload_bits_delivered = 0
        self._packets_completed = 0
        self._latency: list[int] = []
        #: packet id -> [cell_count, received cell indices, created_slot]
        self._partial: dict[int, list] = {}

    # ------------------------------------------------------------------
    # Slot loop
    # ------------------------------------------------------------------

    def step(self, generate_arrivals: bool = True) -> list[int]:
        """Advance one slot; returns the delivered cell ids.

        The core settles wire (and Batcher-Banyan switch) energy in
        batches, so the ledger is complete only after :meth:`run`.
        """
        slot = self._slot
        if generate_arrivals:
            if slot >= self._block_end:
                self._draw_block(slot)
            k = slot - self._block_start
            lo, hi = self._slot_offsets[k], self._slot_offsets[k + 1]
            if lo < hi:
                self._accept(lo, hi)
        grants = self._arbitrate_voq() if self._is_voq else self._arbitrate()
        delivered = self._core.advance(grants, slot)
        if self._measuring:
            self._measurement_slots += 1
        if delivered:
            self._cells_out += len(delivered)
            self._deliver(delivered, slot)
            self._core.release(delivered)
        self._slot += 1
        return delivered

    def _validate_batch(self, srcs: list[int], dests: list[int]) -> None:
        ports = self.router.ports
        if min(srcs) < 0 or max(srcs) >= ports:
            bad = next(s for s in srcs if not 0 <= s < ports)
            raise ConfigurationError(f"packet source {bad} out of range")
        if min(dests) < 0 or max(dests) >= ports:
            bad = next(d for d in dests if not 0 <= d < ports)
            raise ConfigurationError(f"packet destination {bad} out of range")

    def _draw_block(self, slot: int) -> None:
        """Draw the arrivals of up to :data:`BLOCK_SLOTS` slots from
        ``slot`` on, never past the last arrival slot of :meth:`run`.
        Unbounded queues admit every packet, so the block's cells go
        into the store at once; bounded ones segment packet by packet."""
        count = max(1, min(BLOCK_SLOTS, self._arrivals_left))
        self._arrivals_left -= count
        block, offsets = self.router.traffic.arrival_block(
            slot, count, self.rng
        )
        self._block = block
        self._block_start, self._block_end = slot, slot + count
        self._slot_offsets = offsets.tolist()
        self._srcs = block.srcs.tolist()
        self._dests = block.dests.tolist()
        if not self._srcs:
            return
        self._validate_batch(self._srcs, self._dests)
        if self._queue_cap is None:
            self._ids, self._cell_slices = self.store.add_batch(block)
        else:
            per_cell = self.store.cell_format.payload_words
            words = np.diff(block.word_offsets)
            self._n_cells = np.maximum(1, -(-words // per_cell)).tolist()

    def _accept(self, lo: int, hi: int) -> None:
        """Queue packets ``lo:hi`` of the block, one slot's arrivals.

        Mirrors the reference ingress units: a bounded queue drops whole
        packets, against the port's backlog for a FIFO and the VOQ's own
        length for a VOQ (:meth:`repro.router.voq.VoqIngressUnit.
        accept_packet`), whose queue peaks count all of a port's VOQs.
        """
        srcs = self._srcs
        dests = self._dests
        cap = self._queue_cap
        voq = self._is_voq
        for i in range(lo, hi):
            src = srcs[i]
            if voq:
                queue = self._vq[src][dests[i]]
                backlog = len(queue)
            else:
                queue = self._queues[src]
                backlog = len(queue) - self._qhead[src]
            if cap is None:
                cells = self._ids[self._cell_slices[i] : self._cell_slices[i + 1]]
            else:
                n_cells = self._n_cells[i]
                if backlog + n_cells > cap:
                    self._cells_dropped[src] += n_cells
                    continue
                cells = self.store.add_packet(self._block, i)
            queue.extend(cells)
            if voq:
                self._requests[dests[i]] |= 1 << src
                self._port_depth[src] += len(cells)
                depth = self._port_depth[src]
            else:
                depth = backlog + len(cells)
            self._packets_in[src] += 1
            self._cells_in[src] += len(cells)
            if depth > self._queue_peak[src]:
                self._queue_peak[src] = depth

    def _arbitrate(self) -> list[tuple[int, int]]:
        queues = self._queues
        qhead = self._qhead
        ports = self.router.ports
        occupied = [p for p in range(ports) if qhead[p] < len(queues[p])]
        advance_pointer = not self._oldest_first
        if not occupied:
            if advance_pointer:
                self._pointer = (self._pointer + 1) % ports
            return []
        created = self.store.created_slot
        if advance_pointer:
            pointer = self._pointer
            occupied.sort(
                key=lambda p: (
                    created[queues[p][qhead[p]]],
                    (p - pointer) % ports,
                )
            )
        else:
            occupied.sort(key=lambda p: (created[queues[p][qhead[p]]], p))
        dest = self.store.dest
        can_admit = self._core.can_admit
        taken = set()
        grants: list[tuple[int, int]] = []
        for port in occupied:
            head = qhead[port]
            cid = queues[port][head]
            d = dest[cid]
            if d in taken:
                continue
            if not can_admit(port):
                continue
            grants.append((port, cid))
            taken.add(d)
            head += 1
            if head > 64 and head * 2 >= len(queues[port]):
                del queues[port][:head]
                head = 0
            qhead[port] = head
        if advance_pointer:
            self._pointer = (self._pointer + 1) % ports
        return grants

    # ------------------------------------------------------------------
    # VOQ/iSLIP path (mirrors VoqIngressUnit + IslipArbiter exactly)
    # ------------------------------------------------------------------

    def _arbitrate_voq(self) -> list[tuple[int, int]]:
        """One slot of K-iteration iSLIP on request bitsets.

        Produces the same matches in the same order as
        :meth:`repro.router.voq.IslipArbiter.select`: winners come out
        in first-grant order (the reference's dict-insertion order),
        which the fabric cores charge the ledger in, bit for bit.
        """
        ports = self.router.ports
        requests = self._requests
        grant_ptr = self._grant_ptr
        accept_ptr = self._accept_ptr
        depth = self._port_depth
        can_admit = self._core.can_admit
        # Inputs free to match: cells queued and admitted by the fabric.
        free_in = 0
        for port in range(ports):
            if depth[port] and can_admit(port):
                free_in |= 1 << port
        free_out = (1 << ports) - 1
        pairs: list[tuple[int, int]] = []
        for iteration in range(self._islip_iterations):
            # Grant: every free output grants its free requester closest
            # clockwise to its pointer; each winner's granted outputs
            # collect in a dict, so winners keep first-grant order.
            granted: dict[int, int] = {}
            for out in range(ports):
                mask = requests[out] & free_in
                if mask and free_out >> out & 1:
                    port = _round_robin(mask, grant_ptr[out])
                    granted[port] = granted.get(port, 0) | 1 << out
            if not granted:
                break
            # Accept: every winner takes its granted output closest
            # clockwise to its pointer.
            for port, outs in granted.items():
                out = _round_robin(outs, accept_ptr[port])
                pairs.append((port, out))
                free_in ^= 1 << port
                free_out ^= 1 << out
                # iSLIP pointer update: first-iteration accepts only.
                if iteration == 0:
                    accept_ptr[port] = (out + 1) % ports
                    grant_ptr[out] = (port + 1) % ports
        vq = self._vq
        grants: list[tuple[int, int]] = []
        for port, out in pairs:
            queue = vq[port][out]
            grants.append((port, queue.popleft()))
            if not queue:
                requests[out] ^= 1 << port
            depth[port] -= 1
        return grants

    def _deliver(self, delivered: list[int], slot: int) -> None:
        store = self.store
        payload_bits = store.payload_bits
        cell_count = store.cell_count
        created = store.created_slot
        measuring = self._measuring
        for cid in delivered:
            self._cells_delivered += 1
            self._payload_bits_delivered += payload_bits[cid]
            if measuring:
                self._measured_cells += 1
            if cell_count[cid] == 1:
                self._packets_completed += 1
                self._latency.append(slot - created[cid])
            else:
                pid = store.packet_id[cid]
                state = self._partial.get(pid)
                if state is None:
                    self._partial[pid] = state = [
                        cell_count[cid],
                        set(),
                        created[cid],
                    ]
                state[1].add(store.cell_index[cid])
                if len(state[1]) == state[0]:
                    self._packets_completed += 1
                    self._latency.append(slot - state[2])
                    del self._partial[pid]

    # ------------------------------------------------------------------
    # Run phases (mirrors SimulationEngine.run)
    # ------------------------------------------------------------------

    @property
    def ingress_backlog_cells(self) -> int:
        if self._is_voq:
            return sum(self._port_depth)
        return sum(
            len(self._queues[p]) - self._qhead[p]
            for p in range(self.router.ports)
        )

    def run(
        self,
        arrival_slots: int,
        warmup_slots: int = 0,
        drain: bool = True,
        max_drain_slots: int = 20000,
    ) -> SimulationResult:
        """Execute warmup + measurement + drain; return the result.

        Same semantics (and, for seeded runs, bit-identical results) as
        :meth:`repro.sim.engine.SimulationEngine.run`.
        """
        if arrival_slots < 1:
            raise ConfigurationError("arrival_slots must be >= 1")
        if warmup_slots < 0 or max_drain_slots < 0:
            raise ConfigurationError("negative slot counts")
        self._arrivals_left = warmup_slots + arrival_slots

        for _ in range(warmup_slots):
            self.step(generate_arrivals=True)
        self._reset_measurements()
        self._measuring = True

        for _ in range(arrival_slots):
            self.step(generate_arrivals=True)
        self._measuring = False

        drain_slots = 0
        if drain:
            while (
                self.ingress_backlog_cells > 0 or self._core.in_flight() > 0
            ) and drain_slots < max_drain_slots:
                self.step(generate_arrivals=False)
                drain_slots += 1

        return self._collect(arrival_slots, warmup_slots, drain_slots)

    def _reset_measurements(self) -> None:
        """Warmup boundary: zero statistics everywhere, keep state."""
        self._core.settle()
        self.router.fabric.ledger.reset()
        self.router.fabric.tracer.reset(keep_states=True)
        self._measurement_slots = 0
        self._measured_cells = 0
        self._cells_delivered = 0
        self._payload_bits_delivered = 0
        self._packets_completed = 0
        self._latency.clear()

    def _mirror_router_stats(self) -> None:
        """Copy accumulated statistics onto the router's public units.

        The vectorized engine keeps its own array state, but code that
        inspects ``router.ingress[p].stats`` or ``router.egress`` after
        a run (drop counts, queue peaks, incomplete reassemblies)
        should see the same numbers the reference engine would leave
        there.
        """
        from repro.router.egress import _PartialPacket

        router = self.router
        for port, unit in enumerate(router.ingress):
            stats = unit.stats
            stats.packets_in = self._packets_in[port]
            stats.cells_in = self._cells_in[port]
            stats.cells_dropped = self._cells_dropped[port]
            stats.queue_peak = self._queue_peak[port]
        egress = router.egress
        egress.stats.cells_delivered = self._cells_delivered
        egress.stats.payload_bits_delivered = self._payload_bits_delivered
        egress.stats.packets_completed = self._packets_completed
        egress.stats.measured_cells = self._measured_cells
        egress.stats.measurement_slots = self._measurement_slots
        egress._latency_slots = list(self._latency)
        egress._partial = {
            pid: _PartialPacket(
                cell_count=state[0],
                received=set(state[1]),
                created_slot=state[2],
            )
            for pid, state in self._partial.items()
        }

    def _collect(
        self, arrival_slots: int, warmup_slots: int, drain_slots: int
    ) -> SimulationResult:
        self._core.settle()
        self._mirror_router_stats()
        router = self.router
        ledger = router.fabric.ledger
        check_run_invariants(
            ledger,
            sum(self._cells_in),
            self._cells_out,
            self.ingress_backlog_cells,
            self._core.in_flight(),
        )
        energy = EnergyBreakdown(
            switch_j=ledger.category_total_j(categories.SWITCH),
            wire_j=ledger.category_total_j(categories.WIRE),
            buffer_j=ledger.category_total_j(categories.BUFFER),
            refresh_j=ledger.category_total_j(categories.REFRESH),
        )
        offered = getattr(router.traffic, "load", float("nan"))
        return SimulationResult(
            architecture=router.fabric.architecture,
            ports=router.ports,
            offered_load=offered,
            arrival_slots=arrival_slots,
            warmup_slots=warmup_slots,
            drain_slots=drain_slots,
            slot_seconds=router.slot_seconds,
            energy=energy,
            throughput=self._measured_cells
            / (router.ports * max(self._measurement_slots, 1)),
            delivered_cells=self._cells_delivered,
            delivered_payload_bits=self._payload_bits_delivered,
            packets_completed=self._packets_completed,
            latency=latency_stats_from_slots(self._latency),
            counters=ledger.counters(),
            ingress_backlog_cells=self.ingress_backlog_cells,
            fabric_in_flight_cells=self._core.in_flight(),
            seed=self.seed,
        )
