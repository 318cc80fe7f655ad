"""Virtual output queueing + iSLIP matching (extension).

The paper's router uses FIFO input buffering, whose head-of-line
blocking caps egress throughput at 58.6% (Section 6).  The classic
remedy — one queue per (input, output) pair and an iterative
round-robin matcher (McKeown's iSLIP) — removes HOL blocking entirely:
under uniform traffic the grant/accept pointers desynchronise and
throughput approaches 100%.

This module extends the reproduction with that design point:

* :class:`VoqIngressUnit` — per-destination FIFO queues at each port;
* :class:`IslipArbiter` — request/grant/accept matching with the iSLIP
  pointer-update rule (pointers advance only past *accepted* grants);
* :class:`VoqNetworkRouter` — drop-in router variant: the reference
  engine runs it unchanged because arbitration is router-owned, and the
  vectorized engine recognises it and switches to its VOQ/iSLIP path on
  request bitsets (:mod:`repro.sim.vector_engine`), which emits the
  matches in this arbiter's first-grant order with bit-identical
  results.

The `bench_ablation_voq` and `bench_voq` benches and the
`test_router_voq` / `test_engine_equivalence` / `test_engine_fuzz`
suites quantify the gain against the paper's baseline and pin the two
engines to each other.
``Scenario(queueing="voq", islip_iterations=K)`` and ``repro simulate
--queueing voq`` select this router; see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError
from repro.router.cells import Cell, CellFormat, segment_packet
from repro.router.ingress import IngressStats
from repro.router.packet import Packet
from repro.router.router import NetworkRouter
from repro.router.traffic import TrafficGenerator
from repro.tech import TECH_180NM, Technology


class VoqIngressUnit:
    """Ingress unit with one FIFO per egress port (no HOL blocking).

    API mirrors :class:`~repro.router.ingress.IngressUnit` where the
    concepts coincide; the per-destination view is what the iSLIP
    arbiter consumes.
    """

    def __init__(
        self,
        port: int,
        ports: int,
        cell_format: CellFormat,
        queue_capacity_cells: int | None = None,
    ) -> None:
        if port < 0 or ports < 2:
            raise ConfigurationError("bad port/ports")
        if queue_capacity_cells is not None and queue_capacity_cells < 1:
            raise ConfigurationError("queue_capacity_cells must be >= 1 or None")
        self.port = port
        self.ports = ports
        self.cell_format = cell_format
        self.queue_capacity_cells = queue_capacity_cells
        self._queues: list[deque[Cell]] = [deque() for _ in range(ports)]
        self.stats = IngressStats()

    def accept_packet(self, packet: Packet) -> int:
        """Segment into the destination's queue; whole-packet tail drop."""
        if packet.src_port != self.port:
            raise ConfigurationError(
                f"packet for port {packet.src_port} given to unit {self.port}"
            )
        if not 0 <= packet.dest_port < self.ports:
            raise ConfigurationError(f"bad destination {packet.dest_port}")
        cells = segment_packet(packet, self.cell_format)
        queue = self._queues[packet.dest_port]
        if (
            self.queue_capacity_cells is not None
            and len(queue) + len(cells) > self.queue_capacity_cells
        ):
            self.stats.cells_dropped += len(cells)
            return 0
        queue.extend(cells)
        self.stats.packets_in += 1
        self.stats.cells_in += len(cells)
        self.stats.queue_peak = max(self.stats.queue_peak, self.depth)
        return len(cells)

    def heads(self) -> dict[int, Cell]:
        """Destination -> head cell, for every non-empty VOQ."""
        return {
            dest: queue[0]
            for dest, queue in enumerate(self._queues)
            if queue
        }

    def head(self) -> Cell | None:
        """Oldest head across all VOQs (compatibility view)."""
        candidates = [q[0] for q in self._queues if q]
        if not candidates:
            return None
        return min(candidates, key=lambda c: (c.created_slot, c.dest_port))

    def pop(self, dest: int) -> Cell:
        """Dequeue the head of the VOQ toward ``dest``."""
        queue = self._queues[dest]
        if not queue:
            raise ConfigurationError(
                f"VOQ ({self.port} -> {dest}) is empty"
            )
        return queue.popleft()

    @property
    def depth(self) -> int:
        """Total cells queued across all VOQs of this port."""
        return sum(len(q) for q in self._queues)

    @property
    def backlog_cells(self) -> int:
        return self.depth

    def __len__(self) -> int:
        return self.depth


class IslipArbiter:
    """Iterative iSLIP matching over VOQ state.

    Per slot, for each of ``iterations`` rounds over the still-unmatched
    ports:

    1. **Request** — every unmatched input requests all unmatched
       outputs with a non-empty VOQ (subject to fabric admission).
    2. **Grant** — every requested output grants the requesting input
       closest (clockwise) to its grant pointer.
    3. **Accept** — every input holding grants accepts the output
       closest to its accept pointer.
    4. Pointers move one *past* the matched partner, **only** for
       accepted matches, and **only in the first iteration** — the
       iSLIP rules that desynchronise pointers (near-100% uniform
       throughput) while keeping later iterations starvation-free.

    ``iterations=1`` is classic single-iteration iSLIP; ``K > 1`` fills
    the match with ports left unmatched by earlier rounds (McKeown's
    iSLIP-K), which matters most under hotspot/bursty contention.
    """

    name = "islip"

    def __init__(self, ports: int, iterations: int = 1) -> None:
        if ports < 2:
            raise ConfigurationError("arbiter needs >= 2 ports")
        if iterations < 1:
            raise ConfigurationError("iSLIP needs iterations >= 1")
        self.ports = ports
        self.iterations = iterations
        self._grant_ptr = [0] * ports  # per output
        self._accept_ptr = [0] * ports  # per input

    def select(
        self,
        requests: dict[int, dict[int, Cell]],
        can_admit,
    ) -> dict[int, tuple[int, Cell]]:
        """Return ``input -> (dest, cell)`` for the matched pairs."""
        eligible_inputs = {
            port: heads
            for port, heads in requests.items()
            if heads and can_admit(port)
        }
        matched: dict[int, tuple[int, Cell]] = {}
        matched_outs: set[int] = set()
        for iteration in range(self.iterations):
            # Grant phase over the unmatched ports.
            grants: dict[int, list[int]] = {}  # input -> granting outputs
            for out in range(self.ports):
                if out in matched_outs:
                    continue
                requesters = [
                    port
                    for port, heads in eligible_inputs.items()
                    if port not in matched and out in heads
                ]
                if not requesters:
                    continue
                ptr = self._grant_ptr[out]
                winner = min(requesters, key=lambda p: (p - ptr) % self.ports)
                grants.setdefault(winner, []).append(out)
            if not grants:
                break
            # Accept phase.
            for port, outs in grants.items():
                ptr = self._accept_ptr[port]
                chosen = min(outs, key=lambda o: (o - ptr) % self.ports)
                matched[port] = (chosen, eligible_inputs[port][chosen])
                matched_outs.add(chosen)
                # iSLIP pointer update: one past the match, accepted
                # matches of the first iteration only.
                if iteration == 0:
                    self._accept_ptr[port] = (chosen + 1) % self.ports
                    self._grant_ptr[chosen] = (port + 1) % self.ports
        return matched


class VoqNetworkRouter(NetworkRouter):
    """A router with VOQ ingress and iSLIP arbitration.

    Everything else (fabric, egress, engine, energy accounting) is the
    standard reproduction stack, so FIFO-vs-VOQ comparisons isolate the
    queueing discipline exactly.
    """

    def __init__(
        self,
        fabric,
        traffic: TrafficGenerator,
        tech: Technology = TECH_180NM,
        ingress_queue_cells: int | None = None,
        islip_iterations: int = 1,
    ) -> None:
        super().__init__(fabric, traffic, tech=tech)
        self.ingress = [
            VoqIngressUnit(
                port, fabric.ports, fabric.cell_format, ingress_queue_cells
            )
            for port in range(fabric.ports)
        ]
        self.arbiter = IslipArbiter(fabric.ports, iterations=islip_iterations)

    def arbitrate(self, slot: int) -> dict[int, Cell]:
        requests = {unit.port: unit.heads() for unit in self.ingress}
        matched = self.arbiter.select(requests, self.fabric.can_admit)
        admitted: dict[int, Cell] = {}
        for port, (dest, cell) in matched.items():
            popped = self.ingress[port].pop(dest)
            if popped is not cell:
                raise ConfigurationError(
                    "iSLIP matched a cell that is not its VOQ head"
                )
            admitted[port] = popped
        return admitted
