"""Built-in network presets: ready-to-run :class:`NetworkSpec` objects.

=================  ==========================================================
preset             what it is
=================  ==========================================================
single_crossbar8   one 8-port crossbar at 30% uniform local load — the
                   degenerate network whose record is bit-identical to a
                   standalone ``PowerModel`` run (the acceptance anchor).
fat_tree_k4        the 20-switch k=4 fat-tree under a uniform edge-to-edge
                   matrix, ECMP-routed — the scale-out reference network.
dumbbell_switchoff a 3+3 dumbbell where every left leaf sends to one right
                   leaf; per-port overhead is modelled and the switch-off
                   policy powers down every idle port.
mesh4_ecmp         a 4-router full mesh under a gravity matrix with ECMP —
                   multipath spreading on the smallest interesting graph.
fat_tree_k8        the 80-switch k=8 fat-tree under a sparse edge-ring
                   matrix, ECMP-routed on the analytical backend — the
                   first rung of the scale ladder.
fat_tree_k16       the 320-switch k=16 fat-tree, same shape one rung up —
                   the reference of the scale benchmark's memory bound.
isp200_ring        a 200-router seeded Waxman/hierarchical ISP graph under
                   a sparse edge-ring matrix — the ISP-scale reference.
=================  ==========================================================

``repro network list`` prints this registry; ``repro network run NAME``
executes one (a JSON file of a spec works too).
"""

from __future__ import annotations

from repro.errors import ConfigurationError

from repro.network.power import NetworkSpec
from repro.network.topology import (
    dumbbell,
    edge_nodes,
    fat_tree,
    isp,
    mesh,
    single,
)
from repro.network.traffic_matrix import Demand, TrafficMatrix

#: Shared measurement window of the presets (kept small enough that a
#: whole fat-tree run stays interactive; seeds mirror the fig9 grids).
_BASE = dict(arrival_slots=400, warmup_slots=80, seed=2002)

#: The scale presets run the closed-form analytical backend: a
#: 320-router simulate sweep is a benchmark, not a preset, while the
#: estimate backend keeps even the k=16 fabric interactive.
_SCALE_BASE = dict(_BASE, backend="estimate")


def _ring_matrix(
    endpoints: tuple[str, ...], demand: float, name: str
) -> TrafficMatrix:
    """Each endpoint sends ``demand`` to the next one (cyclic, in node
    order) — an O(n) matrix, the scale-preset alternative to the O(n^2)
    all-pairs uniform workload."""
    n = len(endpoints)
    return TrafficMatrix(
        tuple(
            Demand(endpoints[i], endpoints[(i + 1) % n], demand)
            for i in range(n)
        ),
        name=name,
    )


def _single_crossbar8() -> NetworkSpec:
    topology = single(ports=8, name="single8")
    return NetworkSpec(
        name="single_crossbar8",
        topology=topology,
        matrix=TrafficMatrix(
            (Demand("r0", "r0", 0.3 * 8),), name="local30"
        ),
        base=_BASE,
    )


def _fat_tree_k4() -> NetworkSpec:
    topology = fat_tree(4)
    edges = edge_nodes(topology)
    # 0.14 cells/slot per ordered edge pair: each edge switch originates
    # 7 x 0.14 = 0.98 cells/slot over its two host ports (49% access
    # load), and the ECMP-split uplinks stay below line rate.
    return NetworkSpec(
        name="fat_tree_k4",
        topology=topology,
        matrix=TrafficMatrix.uniform(edges, 0.14),
        routing="ecmp",
        base=_BASE,
    )


def _dumbbell_switchoff() -> NetworkSpec:
    topology = dumbbell(3, 3)
    matrix = TrafficMatrix.hotspot(
        ("l0", "l1", "l2", "r0"), target="r0", demand=0.25
    )
    return NetworkSpec(
        name="dumbbell_switchoff",
        topology=topology,
        matrix=matrix,
        switch_off=True,
        port_power_w=0.005,
        base=_BASE,
    )


def _mesh4_ecmp() -> NetworkSpec:
    topology = mesh(4)
    weights = {"r0": 3.0, "r1": 2.0, "r2": 2.0, "r3": 1.0}
    return NetworkSpec(
        name="mesh4_ecmp",
        topology=topology,
        matrix=TrafficMatrix.gravity(weights, total_demand=2.4),
        routing="ecmp",
        base=_BASE,
    )


def _fat_tree_scale(k: int, demand: float) -> NetworkSpec:
    topology = fat_tree(k)
    edges = edge_nodes(topology)
    return NetworkSpec(
        name=f"fat_tree_k{k}",
        topology=topology,
        matrix=_ring_matrix(edges, demand, name="edge_ring"),
        routing="ecmp",
        base=_SCALE_BASE,
    )


def _fat_tree_k8() -> NetworkSpec:
    return _fat_tree_scale(8, 0.4)


def _fat_tree_k16() -> NetworkSpec:
    return _fat_tree_scale(16, 0.4)


def _isp200_ring() -> NetworkSpec:
    topology = isp(200, seed=2002)
    edges = edge_nodes(topology)
    # The ring concentrates on the Waxman backbone; 0.02 cells/slot per
    # pair keeps every seeded link comfortably below line rate.
    return NetworkSpec(
        name="isp200_ring",
        topology=topology,
        matrix=_ring_matrix(edges, 0.02, name="edge_ring"),
        base=_SCALE_BASE,
    )


#: Factories for the named network presets.
NETWORK_PRESETS = {
    "single_crossbar8": _single_crossbar8,
    "fat_tree_k4": _fat_tree_k4,
    "dumbbell_switchoff": _dumbbell_switchoff,
    "mesh4_ecmp": _mesh4_ecmp,
    "fat_tree_k8": _fat_tree_k8,
    "fat_tree_k16": _fat_tree_k16,
    "isp200_ring": _isp200_ring,
}


def network_names() -> list[str]:
    """Sorted names of the built-in network presets."""
    return sorted(NETWORK_PRESETS)


def get_network(name: str) -> NetworkSpec:
    """The named preset network spec (a fresh instance)."""
    try:
        factory = NETWORK_PRESETS[name]
    except KeyError:
        known = ", ".join(network_names())
        raise ConfigurationError(
            f"unknown network {name!r}; known networks: {known}"
        ) from None
    return factory()
