"""The vectorized slot-loop engine.

Drop-in counterpart of :class:`~repro.sim.engine.SimulationEngine` built
on struct-of-arrays state: arrivals come in as
:class:`~repro.router.traffic.ArrivalBatch` arrays, cells live as rows
of a :class:`~repro.sim.cellstore.CellStore`, ingress FIFOs (or VOQ
occupancy matrices) hold integer cell ids, arbitration and egress
accounting run on plain int arrays/lists, and the fabric is driven
through a :class:`~repro.fabrics.vectorized.VectorFabricCore` that
queues wire transfers and settles their flips and energy in batches of
about :data:`~repro.fabrics.vectorized.SETTLE_TRANSFERS` transfers.

This is the fast tier of the two-engine stack: the reference engine
(:mod:`repro.sim.engine`) is the bit-exact oracle, and this engine is
the per-scenario path pinned to it.

The engine is an exact functional mirror of the reference: for any
seeded run of a supported router it produces a bit-identical
:class:`~repro.sim.results.SimulationResult` (energy breakdown,
throughput, delivered cells, latency statistics, counters — enforced by
``tests/test_engine_equivalence.py``).  Both engines consume the same
RNG stream because :meth:`TrafficGenerator.arrivals_batch` is the single
random-drawing primitive for both.

Supported configurations: a plain :class:`~repro.router.router.
NetworkRouter` (FIFO ingress, bounded or unbounded) with the FCFS
round-robin or oldest-first arbiter, or a
:class:`~repro.router.voq.VoqNetworkRouter` (per-destination VOQs
matched by K-iteration iSLIP, bounded or unbounded), over any fabric
with a vector core in :mod:`repro.fabrics.registry` (the four built-ins
plus custom registrations).  Anything else raises
:class:`~repro.errors.ConfigurationError` naming the registered cores —
use the reference engine there.

The VOQ path mirrors :class:`~repro.router.voq.IslipArbiter` with array
state: the request matrix is the ``(ports, ports)`` VOQ occupancy
against the fabric admission mask, the grant and accept phases of each
iSLIP iteration are batched modular-distance ``argmin`` reductions over
round-robin pointer vectors, and the accepted matches are emitted in
the reference arbiter's dict-insertion order so the fabric cores charge
the ledger in the exact same sequence.

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
    latency_stats_from_slots,
)


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


def _islip_accept(
    requested: np.ndarray, winner: np.ndarray, accept_keys: np.ndarray
) -> tuple[list[int], list[int]]:
    """Batched iSLIP accept phase in reference emission order.

    ``requested`` are the outputs with grants this iteration (ascending),
    ``winner[i]`` the input granted by ``requested[i]``, and
    ``accept_keys[i]`` that output's modular distance from the winner's
    accept pointer.  Each winning input accepts its minimum-key output;
    winners are emitted by first appearance over the ascending output
    scan — exactly the dict-insertion order the reference arbiter's
    per-slot Python loop produced, reconstructed here from two sorts.
    """
    uniq, first = np.unique(winner, return_index=True)
    order = np.lexsort((accept_keys, winner))
    w_sorted = winner[order]
    head = np.empty(w_sorted.size, dtype=bool)
    head[0] = True
    head[1:] = w_sorted[1:] != w_sorted[:-1]
    # Group heads after the (winner, key) sort are each winner's
    # minimum-key output, aligned with ``uniq`` (both winner-ascending);
    # stable sorts keep the reference's earliest-output tie-break.
    chosen = requested[order[head]]
    emit = np.argsort(first, kind="stable")
    return uniq[emit].tolist(), chosen[emit].tolist()


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
        ports = router.ports
        self.store = CellStore(router.fabric.cell_format)
        self._core = make_vector_core(router.fabric, self.store)
        self._queue_cap = router.ingress[0].queue_capacity_cells
        self._is_voq = type(router) is VoqNetworkRouter
        if self._is_voq:
            from repro.fabrics.vectorized import VectorFabricCore

            # Per-(input, destination) FIFOs of cell ids.  The iSLIP
            # request mask is maintained incrementally (set on enqueue,
            # cleared when a VOQ drains) so arbitration never rebuilds
            # it; the occupancy counts back the per-VOQ capacity bound.
            self._vq: list[list[deque[int]]] = [
                [deque() for _ in range(ports)] for _ in range(ports)
            ]
            self._req = np.zeros((ports, ports), dtype=bool)
            self._voq_occ = [[0] * ports for _ in range(ports)]
            self._port_depth = [0] * ports
            arbiter = router.arbiter
            self._islip_iterations = arbiter.iterations
            self._grant_ptr = np.array(arbiter._grant_ptr, dtype=np.int64)
            self._accept_ptr = np.array(arbiter._accept_ptr, dtype=np.int64)
            #: modular distance table: ``dist[a, b] == (a - b) % ports``.
            index = np.arange(ports, dtype=np.int64)
            self._dist = (index[:, None] - index[None, :]) % ports
            self._admit_all = (
                type(self._core).can_admit is VectorFabricCore.can_admit
            )
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
            batch = self.router.traffic.arrivals_batch(slot, self.rng)
            if len(batch):
                if self._is_voq:
                    self._accept_voq(batch)
                else:
                    self._accept(batch)
        grants = self._arbitrate_voq() if self._is_voq else self._arbitrate()
        delivered = self._core.advance(grants, slot)
        if self._measuring:
            self._measurement_slots += 1
        if delivered:
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

    def _accept(self, batch) -> None:
        store = self.store
        queues = self._queues
        qhead = self._qhead
        srcs = batch.srcs.tolist()
        dests = batch.dests.tolist()
        self._validate_batch(srcs, dests)
        if self._queue_cap is None:
            ids, slices = store.add_batch(batch)
            for i in range(len(srcs)):
                src = srcs[i]
                n_cells = slices[i + 1] - slices[i]
                queue = queues[src]
                queue.extend(ids[slices[i] : slices[i + 1]])
                self._packets_in[src] += 1
                self._cells_in[src] += n_cells
                depth = len(queue) - qhead[src]
                if depth > self._queue_peak[src]:
                    self._queue_peak[src] = depth
            return
        # Bounded input buffers: whole-packet tail drop, like the
        # reference ingress unit.
        per_cell = store.cell_format.payload_words
        cap = self._queue_cap
        offsets = batch.word_offsets
        for i in range(len(srcs)):
            src = srcs[i]
            n_cells = max(1, -(-int(offsets[i + 1] - offsets[i]) // per_cell))
            queue = queues[src]
            if len(queue) - qhead[src] + n_cells > cap:
                self._cells_dropped[src] += n_cells
                continue
            queue.extend(store.add_packet(batch, i))
            self._packets_in[src] += 1
            self._cells_in[src] += n_cells
            depth = len(queue) - qhead[src]
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

    def _accept_voq(self, batch) -> None:
        """Segment a batch into per-(input, destination) VOQs.

        Mirrors :meth:`repro.router.voq.VoqIngressUnit.accept_packet`:
        whole-packet tail drop against the *per-VOQ* capacity (the FIFO
        ingress bounds the whole port instead), queue peaks tracked per
        port across all of its VOQs.
        """
        store = self.store
        vq = self._vq
        req = self._req
        occ = self._voq_occ
        depth = self._port_depth
        srcs = batch.srcs.tolist()
        dests = batch.dests.tolist()
        self._validate_batch(srcs, dests)
        cap = self._queue_cap
        if cap is None:
            ids, slices = store.add_batch(batch)
            for i in range(len(srcs)):
                src = srcs[i]
                dest = dests[i]
                n_cells = slices[i + 1] - slices[i]
                vq[src][dest].extend(ids[slices[i] : slices[i + 1]])
                req[src, dest] = True
                depth[src] += n_cells
                self._packets_in[src] += 1
                self._cells_in[src] += n_cells
                if depth[src] > self._queue_peak[src]:
                    self._queue_peak[src] = depth[src]
            return
        per_cell = store.cell_format.payload_words
        offsets = batch.word_offsets
        for i in range(len(srcs)):
            src = srcs[i]
            dest = dests[i]
            n_cells = max(1, -(-int(offsets[i + 1] - offsets[i]) // per_cell))
            if occ[src][dest] + n_cells > cap:
                self._cells_dropped[src] += n_cells
                continue
            vq[src][dest].extend(store.add_packet(batch, i))
            req[src, dest] = True
            occ[src][dest] += n_cells
            depth[src] += n_cells
            self._packets_in[src] += 1
            self._cells_in[src] += n_cells
            if depth[src] > self._queue_peak[src]:
                self._queue_peak[src] = depth[src]

    def _arbitrate_voq(self) -> list[tuple[int, int]]:
        """One slot of K-iteration iSLIP as batched array reductions.

        Produces the same matches in the same order as
        :meth:`repro.router.voq.IslipArbiter.select`: grant and accept
        winners are modular-distance ``argmin`` reductions against the
        pointer vectors (distances within a phase are unique, so argmin
        needs no tie-break), and the emitted order reproduces the
        reference's dict-insertion order (winners by first appearance
        over the output scan) so downstream ledger charging matches
        bit for bit.
        """
        ports = self.router.ports
        req = self._req
        depth = self._port_depth
        dist = self._dist
        # The request mask already has all-False rows for empty ports,
        # so fabric admission is the only extra eligibility filter.
        if self._admit_all:
            base = req
        else:
            can_admit = self._core.can_admit
            blocked = [
                p for p in range(ports) if depth[p] > 0 and not can_admit(p)
            ]
            if blocked:
                admit = np.ones(ports, dtype=bool)
                admit[blocked] = False
                base = req & admit[:, None]
            else:
                base = req
        matched_in: np.ndarray | None = None
        matched_out: np.ndarray | None = None
        pairs: list[tuple[int, int]] = []
        sentinel = ports  # > any modular distance
        for iteration in range(self._islip_iterations):
            if iteration == 0:
                active = base
            else:
                active = base & ~matched_in[:, None] & ~matched_out[None, :]
            requested = np.flatnonzero(active.any(axis=0))
            if requested.size == 0:
                break
            # Grant phase: every requested output grants the requester
            # closest clockwise to its grant pointer.  Distances within
            # a phase are unique, so argmin needs no tie-break.
            grant_keys = np.where(
                active, dist[:, self._grant_ptr], sentinel
            )
            winner = grant_keys.argmin(axis=0)[requested]
            # Accept phase: every granted input accepts the output
            # closest clockwise to its accept pointer (group-by-min of
            # each requested output's distance from its winner's ptr).
            accept_keys = dist[requested, self._accept_ptr[winner]]
            ports_sel, outs_sel = _islip_accept(requested, winner, accept_keys)
            if matched_in is None:
                matched_in = np.zeros(ports, dtype=bool)
                matched_out = np.zeros(ports, dtype=bool)
            first_iteration = iteration == 0
            for port, out in zip(ports_sel, outs_sel):
                pairs.append((port, out))
                matched_in[port] = True
                matched_out[out] = True
                # iSLIP pointer update: first-iteration accepts only.
                if first_iteration:
                    self._accept_ptr[port] = (out + 1) % ports
                    self._grant_ptr[out] = (port + 1) % ports
        vq = self._vq
        occ = self._voq_occ
        bounded = self._queue_cap is not None
        grants: list[tuple[int, int]] = []
        for port, out in pairs:
            queue = vq[port][out]
            cid = queue.popleft()
            if not queue:
                req[port, out] = False
            if bounded:
                occ[port][out] -= 1
            depth[port] -= 1
            grants.append((port, cid))
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
