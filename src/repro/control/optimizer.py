"""Green routing: greedy link pruning under a utilization headroom.

The Giroire-et-al. observation is that networks are provisioned for the
peak, so off-peak most cables are redundant: traffic can be concentrated
onto fewer links and the freed interfaces powered down, as long as no
surviving link exceeds an SLA utilization bound.

:func:`optimize_routing` implements the classic single-pass greedy:

1. route the matrix over the full topology to get per-cable loads;
2. visit cables in ascending load order (least useful first);
3. tentatively remove each cable (both directed links) — the removal
   sticks only if every demand stays routable and the maximum link
   utilization stays within the headroom.  A trial re-routes only the
   demands whose path (ECMP: shortest-path DAG) crossed the cable, with
   :func:`~repro.network.routing.route`'s own search and walks
   (:meth:`~repro.network.routing.DemandRoutes.prune`): removing links
   only lengthens distances, so every other demand keeps its shortest
   paths and puts the same floats on the same links;
4. project the final pruned-topology link loads back onto the **full**
   port map (:func:`~repro.network.routing.derive_port_loads`), so
   freed cable ports stay cable ports (idle, sleepable) instead of
   silently becoming access ports.

Everything is deterministic: ties in the load order break on the sorted
cable name pair, and the route computation itself is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

from repro.network.routing import (
    _TOL,
    DemandRoutes,
    RoutingResult,
    RoutingTables,
    build_tables,
    derive_port_loads,
)
from repro.network.topology import NetworkTopology
from repro.network.traffic_matrix import TrafficMatrix


def cable_key(src: str, dst: str) -> tuple[str, str]:
    """Canonical (sorted) name pair of the cable joining two routers."""
    return (src, dst) if src <= dst else (dst, src)


def cables_of(topology: NetworkTopology) -> tuple[tuple[str, str], ...]:
    """Every cable of the topology as sorted name pairs, sorted."""
    return tuple(
        sorted({cable_key(link.src, link.dst) for link in topology.links})
    )


@dataclass
class GreenPlan:
    """Result of one pruning pass.

    Attributes
    ----------
    topology:
        The pruned topology (full topology when nothing was pruned).
    routing:
        The re-routed demands projected onto the **original** topology:
        pruned links carry load 0.0 and the port vectors cover the full
        port map, so the plan feeds straight into
        :meth:`~repro.network.NetworkPowerModel.run_routed`.
    tables:
        The pruned-topology routing materialised as next-hop tables
        (:func:`~repro.network.routing.build_tables`).
    pruned_cables:
        Cables removed, as sorted ``(a, b)`` name pairs, sorted.
    max_link_utilization:
        Maximum utilization over the surviving links.
    """

    topology: NetworkTopology
    routing: RoutingResult
    tables: RoutingTables
    pruned_cables: tuple[tuple[str, str], ...]
    max_link_utilization: float


def _max_utilization(
    topology: NetworkTopology, link_loads: dict[tuple[str, str], float]
) -> float:
    return max((load / topology.link(*link).capacity
                for link, load in link_loads.items()), default=0.0)


def optimize_routing(
    topology: NetworkTopology,
    matrix: TrafficMatrix,
    mode: str = "shortest",
    max_utilization: float = 1.0,
) -> GreenPlan:
    """Prune cables greedily while every demand stays feasible.

    ``max_utilization`` is the SLA headroom: a removal is kept only if
    the re-routed maximum link utilization stays at or below it.  If
    the *unpruned* routing already exceeds the headroom, no pruning is
    attempted (the bound is a constraint on what the optimizer may do,
    not a promise it can repair an overloaded network).
    """
    if not 0.0 < max_utilization <= 1.0:
        raise ConfigurationError(
            f"max_utilization must be in (0, 1], got {max_utilization!r}"
        )
    routes = DemandRoutes(topology, matrix, mode)
    pruned: list[tuple[str, str]] = []
    if _max_utilization(topology, routes.link_loads) <= max_utilization + _TOL:
        # Ascending total cable load (both directions), ties on the
        # sorted name pair: least-loaded cables go first.
        loads: dict[tuple[str, str], float] = {}
        for (src, dst), load in routes.link_loads.items():
            key = cable_key(src, dst)
            loads[key] = loads.get(key, 0.0) + load
        for cable in sorted(loads, key=lambda cable: (loads[cable], cable)):
            if routes.prune(*cable, max_utilization):
                pruned.append(cable)
    # The loads cover every link, pruned ones at 0.0: the full port map
    # keeps freed cable ports cable ports (idle), not access ports.
    full_loads = routes.link_loads
    projected = RoutingResult(topology, matrix, mode, full_loads, routes.hops,
                              *derive_port_loads(topology, matrix, full_loads))
    current = topology.replace(links=tuple(
        link for link in topology.links
        if cable_key(link.src, link.dst) not in pruned
    ))
    return GreenPlan(current, projected, build_tables(current, mode),
                     tuple(sorted(pruned)),
                     _max_utilization(topology, full_loads))
