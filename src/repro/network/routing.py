"""Routing: map a traffic matrix onto links and per-router port loads.

This is the bridge between the network level and the per-router
machinery: :func:`route` turns (:class:`~repro.network.topology.
NetworkTopology`, :class:`~repro.network.traffic_matrix.TrafficMatrix`)
into per-link loads and — via the topology's deterministic port map —
per-router **per-port ingress load vectors**, the exact shape
:class:`repro.api.Scenario` accepts as its ``load``.

Both route-computation modes read one search per destination: a
breadth-first search from the destination over the reversed links
records each node's hop distance to it and ``tau``, its number of
shortest paths to it.  :func:`route` runs it once per call for each
destination, shared by every demand to that destination, and stops
once the layer holding the farthest of those demands' sources is
complete.  :class:`DemandRoutes` keeps each demand's walk, so a cable
can be taken out by re-routing only the demands that crossed it.

* ``"shortest"`` — one deterministic shortest path per demand: from
  the source, step to the first out-neighbor (in link declaration
  order) one hop closer to the destination.
* ``"ecmp"`` — the demand is split equally over *all* shortest paths.
  The demand walks its shortest-path DAG from the source in BFS order,
  counting ``sigma``, the shortest paths from the source to each node,
  and puts ``demand x sigma(a) x tau(b) / tau(source)`` on each DAG
  edge (a, b): no path enumeration, and the result is deterministic.

Both modes can also be *materialised* as explicit per-router weighted
next-hop tables (:func:`build_tables` → :class:`RoutingTables`): each
router holds, per destination, a tuple of ``(next hop, weight)`` pairs.
The energy-aware optimizer of :mod:`repro.control` reports the tables
of the topology it pruned.

Semantics of the produced loads (all in cells/slot):

* every link hop of a routed demand loads the link and the downstream
  router's ingress port for that cable;
* traffic *originating* at a node enters its fabric spread uniformly
  over the node's access ports; *terminating* traffic leaves through
  them (loading egress, not ingress);
* link utilization (load / capacity) and access-port loads are
  validated against 1.0, so an infeasible matrix fails loudly instead
  of silently clipping.

The optional switch-off policy of Giroire et al. is a *power* decision
(see :mod:`repro.network.power`); routing only reports which ports
carry no traffic (:attr:`RoutingResult.active_ports`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

from repro.network.topology import NetworkTopology
from repro.network.traffic_matrix import TrafficMatrix

#: Valid route-computation modes.
ROUTING_MODES = ("shortest", "ecmp")

#: Tolerance on utilization / load validation (pure float-sum slack).
_TOL = 1e-9


@dataclass
class RoutingResult:
    """Routed demands: link loads, port loads, and activity flags.

    Attributes
    ----------
    topology / matrix / mode:
        The inputs that produced the result.
    link_loads:
        ``{(src, dst): cells_per_slot}`` per directed link (only links
        that exist in the topology appear; unused links carry 0.0).
    demand_hops:
        ``{(src, dst): hop count}`` of each routed demand (0 for local
        ``src == dst`` demands); under ECMP every shortest path has the
        same hop count.
    ingress_loads / egress_loads:
        ``{node: (load, ...)}`` — one entry per physical port, in the
        topology's deterministic port order.  Ingress loads are what
        the derived per-router scenarios consume.
    active_ports:
        ``{node: (bool, ...)}`` — True where the port carries any
        ingress or egress traffic; the switch-off policy powers down
        the False ones.
    """

    topology: NetworkTopology
    matrix: TrafficMatrix
    mode: str
    link_loads: dict[tuple[str, str], float] = field(default_factory=dict)
    demand_hops: dict[tuple[str, str], int] = field(default_factory=dict)
    ingress_loads: dict[str, tuple[float, ...]] = field(default_factory=dict)
    egress_loads: dict[str, tuple[float, ...]] = field(default_factory=dict)
    active_ports: dict[str, tuple[bool, ...]] = field(default_factory=dict)

    @property
    def total_link_load(self) -> float:
        """Sum of all link loads — equals sum(demand x hops) by flow
        conservation (the invariant ``tests/test_network.py`` pins)."""
        return sum(self.link_loads.values())

    def link_rows(self) -> list[dict[str, Any]]:
        """One dict per directed link, in declaration order."""
        rows = []
        for link in self.topology.links:
            load = self.link_loads[(link.src, link.dst)]
            rows.append(
                {
                    "src": link.src,
                    "dst": link.dst,
                    "capacity": link.capacity,
                    "load": load,
                    "utilization": load / link.capacity,
                    "active": load > 0.0,
                }
            )
        return rows

    def idle_port_count(self) -> int:
        return sum(
            sum(1 for active in flags if not active)
            for flags in self.active_ports.values()
        )


@dataclass
class RoutingTables:
    """Explicit per-router weighted next-hop tables.

    ``tables[router][destination]`` is a tuple of ``(next hop, weight)``
    pairs; a demand arriving at (or originating from) ``router`` toward
    ``destination`` is split over the next hops proportionally to the
    weights.  :func:`build_tables` materialises the ``"shortest"`` /
    ``"ecmp"`` modes into this form (ECMP weights are shortest-path
    counts, the DAG split of :func:`route`).
    """

    mode: str
    tables: dict[str, dict[str, tuple[tuple[str, float], ...]]] = field(
        default_factory=dict
    )

    def next_hops(self, node: str, dst: str) -> tuple[tuple[str, float], ...]:
        """The ``(next hop, weight)`` entries of ``node`` toward
        ``dst`` (empty if the table has none)."""
        return self.tables.get(node, {}).get(dst, ())


def build_tables(
    topology: NetworkTopology, mode: str = "shortest"
) -> RoutingTables:
    """Materialise a routing mode as per-router next-hop tables.

    ``"shortest"`` emits the single next hop :func:`route`'s greedy
    walk would take (first declaration-order neighbor that reduces the
    BFS distance); ``"ecmp"`` emits every distance-reducing neighbor
    weighted by its shortest-path count toward the destination, the
    split of :func:`route`'s shortest-path DAG.
    """
    if mode not in ROUTING_MODES:
        raise ConfigurationError(
            f"routing mode must be one of {ROUTING_MODES}, got {mode!r}"
        )
    adj = topology.out_neighbors()
    radj = _in_neighbors(topology)
    names = topology.node_names
    tables: dict[str, dict[str, tuple[tuple[str, float], ...]]] = {
        name: {} for name in names
    }
    for target in names:
        dist, tau = _search_to(radj, target)
        for node in names:
            if node == target or node not in dist:
                continue
            closer = dist[node] - 1
            hops = [peer for peer in adj[node] if dist.get(peer) == closer]
            if mode == "shortest":
                tables[node][target] = ((hops[0], 1.0),)
            else:
                tables[node][target] = tuple(
                    (peer, float(tau[peer])) for peer in hops
                )
    return RoutingTables(mode=mode, tables=tables)


def _in_neighbors(topology: NetworkTopology) -> dict[str, tuple[str, ...]]:
    """Reversed adjacency, in link declaration order."""
    into: dict[str, list[str]] = {name: [] for name in topology.node_names}
    for link in topology.links:
        into[link.dst].append(link.src)
    return {name: tuple(peers) for name, peers in into.items()}


def _search_to(
    radj: dict[str, tuple[str, ...]],
    target: str,
    sources: set[str] | None = None,
) -> tuple[dict[str, int], dict[str, int]]:
    """``(dist, tau)``: hop distance to ``target`` and the number of
    shortest paths to it, of each node the search reached.

    A breadth-first search from ``target`` over the reversed links; a
    node's ``tau`` is the sum of its one-hop-closer out-neighbors'.  It
    stops once every node of ``sources`` is found and its layer is
    complete, so every node at most that far away has both values (a
    ``sources`` node missing from ``dist`` cannot reach ``target``).
    Without ``sources`` it reaches every node that can.
    """
    dist = {target: 0}
    tau = {target: 1}
    missing = None if sources is None else set(sources) - {target}
    layer = [target]
    depth = 0
    while layer and (missing is None or missing):
        depth += 1
        found = []
        for b in layer:
            paths = tau[b]
            for a in radj[b]:
                seen = dist.get(a)
                if seen is None:
                    dist[a] = depth
                    tau[a] = paths
                    found.append(a)
                elif seen == depth:
                    tau[a] += paths
        if missing:
            missing.difference_update(found)
        layer = found
    return dist, tau


def _walk_shortest(
    adj: dict[str, tuple[str, ...]],
    dist: dict[str, int],
    source: str,
    demand: float,
    flow: dict[tuple[str, str], float],
) -> None:
    """Put the demand on the first shortest path in link declaration
    order: each step takes the first out-neighbor one hop closer."""
    node = source
    for closer in range(dist[source] - 1, -1, -1):
        for peer in adj[node]:
            if dist.get(peer) == closer:
                flow[(node, peer)] = demand
                node = peer
                break


def _walk_ecmp(
    adj: dict[str, tuple[str, ...]],
    dist: dict[str, int],
    tau: dict[str, int],
    source: str,
    demand: float,
    flow: dict[tuple[str, str], float],
) -> None:
    """Split a demand equally over all its shortest paths.

    Walks the shortest-path DAG from ``source`` one layer at a time, so
    ``sigma(a)`` (shortest source->a paths) is complete before ``a``'s
    out-edges are read; edge (a, b) carries the share of paths through
    it, ``demand * (sigma(a) * tau(b)) / tau(source)``, put in ``flow``.
    """
    total = tau[source]
    sigma = {source: 1}
    layer = [source]
    for closer in range(dist[source] - 1, -1, -1):
        found = []
        for a in layer:
            paths = sigma[a]
            for b in adj[a]:
                if dist.get(b) == closer:
                    flow[(a, b)] = demand * (paths * tau[b]) / total
                    if b in sigma:
                        sigma[b] += paths
                    else:
                        sigma[b] = paths
                        found.append(b)
        layer = found


def route(
    topology: NetworkTopology,
    matrix: TrafficMatrix,
    mode: str = "shortest",
) -> RoutingResult:
    """Route every demand; derive link loads and per-port load vectors.

    Raises :class:`~repro.errors.ConfigurationError` on unroutable
    demands, on any link whose routed load exceeds its capacity, and on
    any access port whose injected load exceeds line rate — an
    infeasible operating point must fail loudly, not silently saturate.
    """
    routes = DemandRoutes(topology, matrix, mode)
    loads = routes.link_loads
    return RoutingResult(topology, matrix, mode, loads, routes.hops,
                         *derive_port_loads(topology, matrix, loads))


def _add_flows(flows: Any, loads: dict[tuple[str, str], float]) -> None:
    """Add each flow, in demand order, to the links of ``loads``."""
    get = loads.get
    for flow in flows:
        for link, load in flow.items():
            total = get(link)
            if total is not None:
                loads[link] = total + load


class DemandRoutes:
    """Every demand's route, kept so that cables can be taken out one
    at a time (:meth:`prune`).

    ``hops`` maps each demand to its hop count; ``flows[i]`` maps each
    link of demand ``i``'s walk to its load there (0.0-cell demands are
    walked too, so their paths are known).  ``link_loads`` sums each
    link's flows in demand order from 0.0, the floats :func:`route`
    reports.  Raises as :func:`route` does, bar the access-port checks.
    """

    def __init__(
        self, topology: NetworkTopology, matrix: TrafficMatrix, mode: str
    ) -> None:
        if mode not in ROUTING_MODES:
            raise ConfigurationError(
                f"routing mode must be one of {ROUTING_MODES}, got {mode!r}"
            )
        known = set(topology.node_names)
        unknown = [n for n in matrix.nodes() if n not in known]
        if unknown:
            raise ConfigurationError(
                f"traffic matrix names unknown nodes: {unknown}"
            )
        self.topology, self.mode, self.demands = topology, mode, matrix.demands
        self.adj, self.radj = topology.out_neighbors(), _in_neighbors(topology)
        self.hops: dict[tuple[str, str], int] = {}
        self.flows: dict[int, dict[tuple[str, str], float]] = {}
        self._route(self.adj, self.radj, range(len(self.demands)),
                    self.hops, self.flows)
        self.link_loads = loads = {(l.src, l.dst): 0.0 for l in topology.links}
        _add_flows(self.flows.values(), loads)
        over = sorted((l.src, l.dst, l.capacity) for l in topology.links
                      if loads[(l.src, l.dst)] > l.capacity + _TOL)
        if over:
            raise ConfigurationError(
                "routed load exceeds link capacity: " + ", ".join(
                    f"{src}->{dst} ({loads[(src, dst)]:.4f} > {cap:.4f})"
                    for src, dst, cap in over
                ) + " (scale the matrix down or raise capacities)"
            )

    def _route(self, adj, radj, indices: Any, hops: dict, flows: dict) -> None:
        """Route the demands at ``indices`` (ascending) over ``adj`` into
        ``hops`` and fresh ``flows``.  Each destination's search runs at
        its first demand and is dropped after its last."""
        sources: dict[str, set[str]] = {}
        last: dict[str, int] = {}
        for i in indices:
            d = self.demands[i]
            if d.src != d.dst:
                sources.setdefault(d.dst, set()).add(d.src)
                last[d.dst] = i
        searches: dict[str, tuple[dict[str, int], dict[str, int]]] = {}
        for i in indices:
            d = self.demands[i]
            flows[i] = flow = {}
            if d.src == d.dst:
                hops[(d.src, d.dst)] = 0
                continue
            if d.dst not in searches:
                searches[d.dst] = _search_to(radj, d.dst, sources[d.dst])
            dist, tau = (searches.pop(d.dst) if last[d.dst] == i
                         else searches[d.dst])
            if d.src not in dist:
                raise ConfigurationError(
                    f"demand {d.src!r} -> {d.dst!r} is unroutable: no path"
                )
            hops[(d.src, d.dst)] = dist[d.src]
            if self.mode == "shortest":
                _walk_shortest(adj, dist, d.src, d.cells_per_slot, flow)
            else:
                _walk_ecmp(adj, dist, tau, d.src, d.cells_per_slot, flow)

    def prune(self, a: str, b: str, max_utilization: float) -> bool:
        """Take out cable ``a``-``b`` (both links) if the routing stays
        feasible; return whether it did.

        Only the demands whose walk crossed the cable move: removing
        links only lengthens distances, so every other demand keeps all
        its shortest paths, and its ``dist``, ``tau``, walk and floats.
        The trial re-searches the moved demands' destinations, re-walks
        them and re-sums the links they touch, before or after, over all
        demands.  It fails where :func:`route` on the pruned topology
        would raise (no path, a link over capacity), where a touched
        link would exceed ``max_utilization`` (no other load changes)
        and where no link would be left.
        """

        def cut(table: dict[str, tuple[str, ...]]):
            return {**table, a: tuple(p for p in table[a] if p != b),
                    b: tuple(p for p in table[b] if p != a)}

        adj, radj = cut(self.adj), cut(self.radj)
        if not any(adj.values()):
            return False
        moved = [i for i, flow in self.flows.items()
                 if (a, b) in flow or (b, a) in flow]
        hops, flows = dict(self.hops), dict(self.flows)
        try:
            self._route(adj, radj, moved, hops, flows)
        except ConfigurationError:
            return False
        touched = dict.fromkeys(set().union(
            *(self.flows[i].keys() | flows[i].keys() for i in moved)), 0.0)
        _add_flows(flows.values(), touched)
        for link, load in touched.items():
            cap = self.topology.link(*link).capacity
            if load > cap + _TOL or load / cap > max_utilization + _TOL:
                return False
        self.adj, self.radj, self.hops, self.flows = adj, radj, hops, flows
        self.link_loads.update(touched)
        return True


def derive_port_loads(
    topology: NetworkTopology,
    matrix: TrafficMatrix,
    link_loads: dict[tuple[str, str], float],
) -> tuple[
    dict[str, tuple[float, ...]],
    dict[str, tuple[float, ...]],
    dict[str, tuple[bool, ...]],
]:
    """Per-port (ingress, egress, active) vectors of given link loads.

    The second half of :func:`route`, exposed so callers that computed
    link loads elsewhere (e.g. the :mod:`repro.control` optimizer
    projecting a pruned-topology routing back onto the full port map)
    derive bit-identical per-port vectors.  Validates access-port
    feasibility exactly like :func:`route`.
    """
    port_map = topology.port_map()
    peers = {name: pm.peers for name, pm in port_map.items()}
    ingress: dict[str, list[float]] = {}
    egress: dict[str, list[float]] = {}
    for node in topology.nodes:
        ingress[node.name] = [0.0] * node.ports
        egress[node.name] = [0.0] * node.ports
    for link in topology.links:
        load = link_loads[(link.src, link.dst)]
        ingress[link.dst][peers[link.dst][link.src]] += load
        egress[link.src][peers[link.src][link.dst]] += load
    for node in topology.nodes:
        originated = matrix.originated(node.name)
        terminated = matrix.terminated(node.name)
        access = port_map[node.name].access_ports
        if (originated > 0.0 or terminated > 0.0) and not access:
            raise ConfigurationError(
                f"node {node.name!r} originates/terminates traffic but has "
                "no access ports (all ports are cabled)"
            )
        if access:
            per_port_in = originated / len(access)
            per_port_out = terminated / len(access)
            if per_port_in > 1.0 + _TOL:
                raise ConfigurationError(
                    f"node {node.name!r}: originated demand {originated:.4f} "
                    f"over {len(access)} access ports exceeds line rate "
                    f"({per_port_in:.4f} cells/slot per port)"
                )
            if per_port_out > 1.0 + _TOL:
                raise ConfigurationError(
                    f"node {node.name!r}: terminated demand {terminated:.4f} "
                    f"over {len(access)} access ports exceeds line rate "
                    f"({per_port_out:.4f} cells/slot per port)"
                )
            for port in access:
                ingress[node.name][port] += per_port_in
                egress[node.name][port] += per_port_out
    active = {
        name: tuple(
            i > 0.0 or e > 0.0
            for i, e in zip(ingress[name], egress[name])
        )
        for name in topology.node_names
    }
    return (
        {
            name: tuple(min(1.0, v) for v in loads)
            for name, loads in ingress.items()
        },
        {name: tuple(loads) for name, loads in egress.items()},
        active,
    )
