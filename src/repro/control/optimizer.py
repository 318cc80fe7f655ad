"""Green routing: greedy link pruning under a utilization headroom.

The Giroire-et-al. observation is that networks are provisioned for the
peak, so off-peak most cables are redundant: traffic can be concentrated
onto fewer links and the freed interfaces powered down, as long as no
surviving link exceeds an SLA utilization bound.

:func:`optimize_routing` implements the classic single-pass greedy:

1. route the matrix over the full topology to get per-cable loads;
2. visit cables in ascending load order (least useful first);
3. tentatively remove each cable (both directed links) and re-route on
   the pruned topology with the *existing* shortest/ECMP machinery —
   the removal sticks only if every demand stays routable and the
   maximum link utilization stays within the headroom;
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
    RoutingResult,
    RoutingTables,
    build_tables,
    derive_port_loads,
    route,
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
    utils = [
        load / topology.link(src, dst).capacity
        for (src, dst), load in link_loads.items()
    ]
    return max(utils) if utils else 0.0


def _without_cable(
    topology: NetworkTopology, cable: tuple[str, str]
) -> NetworkTopology:
    ends = set(cable)
    return topology.replace(
        links=tuple(
            link
            for link in topology.links
            if {link.src, link.dst} != ends
        )
    )


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
    base = route(topology, matrix, mode=mode)
    pruned: list[tuple[str, str]] = []
    current = topology
    current_routing = base
    if _max_utilization(topology, base.link_loads) <= max_utilization + _TOL:
        # Ascending total cable load (both directions), ties on the
        # sorted name pair: least-loaded cables go first.
        loads: dict[tuple[str, str], float] = {}
        for (src, dst), load in base.link_loads.items():
            key = cable_key(src, dst)
            loads[key] = loads.get(key, 0.0) + load
        order = sorted(loads, key=lambda cable: (loads[cable], cable))
        for cable in order:
            trial_topology = _without_cable(current, cable)
            if not trial_topology.links:
                continue
            try:
                trial_routing = route(trial_topology, matrix, mode=mode)
            except ConfigurationError:
                continue
            trial_max = _max_utilization(
                trial_topology, trial_routing.link_loads
            )
            if trial_max <= max_utilization + _TOL:
                current = trial_topology
                current_routing = trial_routing
                pruned.append(cable)
    # Project the pruned-topology loads back onto the full port map:
    # pruned links exist with load 0.0, and freed cable ports must stay
    # cable ports (idle), not become access ports.
    full_loads = {
        (link.src, link.dst): current_routing.link_loads.get(
            (link.src, link.dst), 0.0
        )
        for link in topology.links
    }
    ingress, egress, active = derive_port_loads(topology, matrix, full_loads)
    projected = RoutingResult(
        topology=topology,
        matrix=matrix,
        mode=current_routing.mode,
        link_loads=full_loads,
        demand_hops=dict(current_routing.demand_hops),
        ingress_loads=ingress,
        egress_loads=egress,
        active_ports=active,
    )
    return GreenPlan(
        topology=current,
        routing=projected,
        tables=build_tables(current, mode),
        pruned_cables=tuple(sorted(pruned)),
        max_link_utilization=_max_utilization(topology, full_loads),
    )
