"""Network topologies: routers as nodes, directed links with capacity.

The paper models one router's switch fabric; this module describes a
*network* of such routers so the per-router machinery can be aggregated
(Chen et al. style data-plane power, Giroire et al. style link/port
switch-off).  A :class:`NetworkTopology` is frozen and JSON
round-trippable like :class:`repro.api.Scenario` — topologies are specs,
not live objects.

Model
-----
* A :class:`RouterNode` is one router: a name, a physical port count,
  and the fabric configuration (``architecture``/``tech``) the
  per-router :class:`~repro.api.Scenario` will use.
* A :class:`Link` is a *directed* traffic-carrying edge between two
  routers with a capacity in cells/slot (1.0 = one port's line rate, so
  capacity never exceeds 1.0) and an optional physical ``length_m``
  (the propagation-energy term of :mod:`repro.network.power`).  Two
  opposite directed links between the same pair share one physical
  cable and therefore one bidirectional port on each endpoint —
  :meth:`NetworkTopology.port_map` performs that pairing
  deterministically (peers in sorted-name order, so the assignment is
  invariant under link declaration order).
* Ports not consumed by cables are **access ports**: locally
  originated/terminated traffic (the traffic matrix's row/column for
  the node) enters and leaves the fabric through them.

Generators for the classic evaluation shapes are provided:
:func:`single`, :func:`line`, :func:`star`, :func:`mesh`,
:func:`dumbbell` and :func:`fat_tree`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.fabrics.registry import canonical_architecture
from repro.router.traffic import MAX_PORTS
from repro.serial import Spec, build, check_scalars
from repro.tech.presets import get_technology


@dataclass(frozen=True)
class RouterNode:
    """One router of the network (a future per-router scenario).

    Attributes
    ----------
    name:
        Unique identifier within the topology.
    ports:
        Physical (bidirectional) port count; cables plus access ports
        must fit.  Scenarios need at least 2.
    architecture / tech:
        The fabric configuration of the per-router scenario
        (registry-resolved architecture name, technology preset name).
    """

    name: str
    ports: int
    architecture: str = "crossbar"
    tech: str = "0.18um"

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("a router node needs a non-empty name")
        check_scalars(self)
        if self.ports < 2:
            raise ConfigurationError(
                f"node {self.name!r}: a router needs at least 2 ports"
            )
        if self.ports > MAX_PORTS:
            raise ConfigurationError(
                f"node {self.name!r}: a router has at most {MAX_PORTS} "
                f"ports, got {self.ports}"
            )
        object.__setattr__(
            self, "architecture", canonical_architecture(self.architecture)
        )
        get_technology(self.tech)  # fail fast on unknown preset names

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "ports": self.ports,
            "architecture": self.architecture,
            "tech": self.tech,
        }


@dataclass(frozen=True)
class Link:
    """One directed link: traffic flows ``src`` → ``dst``.

    ``capacity`` is in cells/slot; 1.0 is one port's line rate, which a
    single cable cannot exceed.  ``length_m`` is the physical cable
    length in metres, consumed by the per-link propagation-energy term
    of :class:`~repro.network.power.NetworkSpec`; the default 0.0 is
    omitted from :meth:`to_dict` so existing topology hashes are
    unchanged.
    """

    src: str
    dst: str
    capacity: float = 1.0
    length_m: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ConfigurationError(
                f"link {self.src!r} -> {self.dst!r}: self-links are not "
                "allowed (local traffic uses access ports)"
            )
        check_scalars(self)
        if not 0.0 < self.capacity <= 1.0:
            raise ConfigurationError(
                f"link {self.src!r} -> {self.dst!r}: capacity must be in "
                f"(0, 1] cells/slot (one port's line rate), got "
                f"{self.capacity!r}"
            )
        if self.length_m < 0.0:
            raise ConfigurationError(
                f"link {self.src!r} -> {self.dst!r}: length_m must be "
                f">= 0, got {self.length_m!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        out = {"src": self.src, "dst": self.dst, "capacity": self.capacity}
        if self.length_m:
            out["length_m"] = self.length_m
        return out


@dataclass(frozen=True)
class PortMap:
    """Deterministic port assignment of one node.

    Attributes
    ----------
    peer_port:
        ``{peer node name: port index}`` — the bidirectional port this
        node's cable to ``peer`` occupies (both directions of a cable
        share it).
    access_ports:
        Indices of the ports left for locally originated/terminated
        traffic.
    """

    peer_port: tuple[tuple[str, int], ...]
    access_ports: tuple[int, ...]

    @property
    def peers(self) -> dict[str, int]:
        """``{peer: port}`` of :attr:`peer_port`, built once (read-only)."""
        cached = self.__dict__.get("_peers_cache")
        if cached is None:
            cached = dict(self.peer_port)
            object.__setattr__(self, "_peers_cache", cached)
        return cached


def _coerce(value: Any, cls: type) -> Any:
    if isinstance(value, cls):
        return value
    if isinstance(value, Mapping):
        return build(cls, value, cls.__name__)
    raise ConfigurationError(
        f"expected a {cls.__name__} or mapping, got {value!r}"
    )


@dataclass(frozen=True)
class NetworkTopology(Spec):
    """A frozen, JSON round-trippable network of routers.

    >>> topo = NetworkTopology(
    ...     name="pair",
    ...     nodes=[RouterNode("a", 3), RouterNode("b", 3)],
    ...     links=[Link("a", "b"), Link("b", "a")],
    ... )
    >>> topo.port_map()["a"].access_ports
    (1, 2)
    """

    name: str
    nodes: tuple[RouterNode, ...]
    links: tuple[Link, ...] = ()

    noun = "topology"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a topology needs a name")
        object.__setattr__(
            self,
            "nodes",
            tuple(_coerce(n, RouterNode) for n in self.nodes),
        )
        object.__setattr__(
            self, "links", tuple(_coerce(l, Link) for l in self.links)
        )
        if not self.nodes:
            raise ConfigurationError("a topology needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate node names: {dupes}")
        known = set(names)
        seen: set[tuple[str, str]] = set()
        for link in self.links:
            for end in (link.src, link.dst):
                if end not in known:
                    raise ConfigurationError(
                        f"link references unknown node {end!r}"
                    )
            key = (link.src, link.dst)
            if key in seen:
                raise ConfigurationError(
                    f"duplicate directed link {link.src!r} -> {link.dst!r} "
                    "(merge parallel links into one capacity)"
                )
            seen.add(key)
        self.port_map()  # fail fast if cables exceed any node's ports

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def _node_index(self) -> dict[str, RouterNode]:
        # Lazy cache on the frozen instance: at thousands of nodes the
        # linear scan turns aggregation loops quadratic.
        index = self.__dict__.get("_node_index_cache")
        if index is None:
            index = {node.name: node for node in self.nodes}
            object.__setattr__(self, "_node_index_cache", index)
        return index

    def node(self, name: str) -> RouterNode:
        try:
            return self._node_index()[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def port_map(self) -> dict[str, PortMap]:
        """Deterministic port assignment of every node.

        Cables (unordered node pairs with at least one directed link)
        claim ports in sorted peer-name order — the same topology
        declared with its links in any order maps to identical port
        assignments.  The remainder are access ports.  Raises if any
        node's cables exceed its port count.

        The result is cached on the instance (topologies are frozen);
        callers must treat it as read-only.
        """
        cached = self.__dict__.get("_port_map_cache")
        if cached is not None:
            return cached
        peers: dict[str, set[str]] = {n.name: set() for n in self.nodes}
        for link in self.links:
            peers[link.src].add(link.dst)
            peers[link.dst].add(link.src)
        assignment: dict[str, dict[str, int]] = {
            name: {peer: i for i, peer in enumerate(sorted(cabled))}
            for name, cabled in peers.items()
        }
        out = {}
        for node in self.nodes:
            used = len(assignment[node.name])
            if used > node.ports:
                raise ConfigurationError(
                    f"node {node.name!r} has {node.ports} ports but "
                    f"{used} cables"
                )
            out[node.name] = PortMap(
                peer_port=tuple(assignment[node.name].items()),
                access_ports=tuple(range(used, node.ports)),
            )
        object.__setattr__(self, "_port_map_cache", out)
        return out

    def out_neighbors(self) -> dict[str, tuple[str, ...]]:
        """Directed adjacency in deterministic (declaration) order."""
        adj: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        for link in self.links:
            adj[link.src].append(link.dst)
        return {name: tuple(peers) for name, peers in adj.items()}

    def _link_index(self) -> dict[tuple[str, str], Link]:
        index = self.__dict__.get("_link_index_cache")
        if index is None:
            index = {(link.src, link.dst): link for link in self.links}
            object.__setattr__(self, "_link_index_cache", index)
        return index

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._link_index()[(src, dst)]
        except KeyError:
            raise ConfigurationError(f"no link {src!r} -> {dst!r}") from None

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it exactly."""
        return {
            "name": self.name,
            "nodes": [n.to_dict() for n in self.nodes],
            "links": [l.to_dict() for l in self.links],
        }


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def _both(src: str, dst: str, capacity: float) -> list[Link]:
    """One cable: a directed link each way."""
    return [Link(src, dst, capacity), Link(dst, src, capacity)]


def single(
    ports: int = 8,
    architecture: str = "crossbar",
    tech: str = "0.18um",
    name: str = "single",
) -> NetworkTopology:
    """One standalone router — all ports are access ports.

    The degenerate topology whose network run must be bit-identical to
    a standalone :class:`~repro.api.PowerModel` run of the same
    scenario.
    """
    return NetworkTopology(
        name=name,
        nodes=(RouterNode("r0", ports, architecture, tech),),
    )


def line(
    n: int,
    access_ports: int = 1,
    capacity: float = 1.0,
    architecture: str = "crossbar",
    tech: str = "0.18um",
    name: str | None = None,
) -> NetworkTopology:
    """``n`` routers in a chain: r0 — r1 — ... — r(n-1)."""
    if n < 2:
        raise ConfigurationError("a line needs at least 2 nodes")
    nodes = []
    links: list[Link] = []
    for i in range(n):
        cables = 1 if i in (0, n - 1) else 2
        nodes.append(
            RouterNode(f"r{i}", cables + access_ports, architecture, tech)
        )
    for i in range(n - 1):
        links.extend(_both(f"r{i}", f"r{i + 1}", capacity))
    return NetworkTopology(name or f"line{n}", tuple(nodes), tuple(links))


def star(
    leaves: int,
    access_ports: int = 1,
    capacity: float = 1.0,
    architecture: str = "crossbar",
    tech: str = "0.18um",
    name: str | None = None,
) -> NetworkTopology:
    """A hub router with ``leaves`` single-homed leaf routers."""
    if leaves < 2:
        raise ConfigurationError("a star needs at least 2 leaves")
    nodes = [RouterNode("hub", leaves + access_ports, architecture, tech)]
    links: list[Link] = []
    for i in range(leaves):
        nodes.append(
            RouterNode(f"leaf{i}", 1 + access_ports, architecture, tech)
        )
        links.extend(_both("hub", f"leaf{i}", capacity))
    return NetworkTopology(name or f"star{leaves}", tuple(nodes), tuple(links))


def mesh(
    n: int,
    access_ports: int = 1,
    capacity: float = 1.0,
    architecture: str = "crossbar",
    tech: str = "0.18um",
    name: str | None = None,
) -> NetworkTopology:
    """A full mesh of ``n`` routers (every pair cabled)."""
    if n < 2:
        raise ConfigurationError("a mesh needs at least 2 nodes")
    nodes = [
        RouterNode(f"r{i}", (n - 1) + access_ports, architecture, tech)
        for i in range(n)
    ]
    links: list[Link] = []
    for i in range(n):
        for j in range(i + 1, n):
            links.extend(_both(f"r{i}", f"r{j}", capacity))
    return NetworkTopology(name or f"mesh{n}", tuple(nodes), tuple(links))


def dumbbell(
    left: int = 3,
    right: int = 3,
    access_ports: int = 1,
    capacity: float = 1.0,
    bottleneck_capacity: float = 1.0,
    architecture: str = "crossbar",
    tech: str = "0.18um",
    name: str | None = None,
) -> NetworkTopology:
    """Two leaf clusters joined by a two-hub bottleneck.

    ``l0..l{left-1}`` — ``hub_l`` = ``hub_r`` — ``r0..r{right-1}``; the
    hub-to-hub cable is the bottleneck (its capacity is configurable
    separately).  The classic switch-off topology: traffic that stays
    within one cluster leaves the other side's ports idle.
    """
    if left < 1 or right < 1:
        raise ConfigurationError("a dumbbell needs leaves on both sides")
    nodes = [
        RouterNode("hub_l", left + 1 + access_ports, architecture, tech),
        RouterNode("hub_r", right + 1 + access_ports, architecture, tech),
    ]
    links = _both("hub_l", "hub_r", bottleneck_capacity)
    for i in range(left):
        nodes.append(RouterNode(f"l{i}", 1 + access_ports, architecture, tech))
        links.extend(_both(f"l{i}", "hub_l", capacity))
    for i in range(right):
        nodes.append(RouterNode(f"r{i}", 1 + access_ports, architecture, tech))
        links.extend(_both(f"r{i}", "hub_r", capacity))
    return NetworkTopology(
        name or f"dumbbell{left}x{right}", tuple(nodes), tuple(links)
    )


def fat_tree(
    k: int = 4,
    capacity: float = 1.0,
    architecture: str = "crossbar",
    tech: str = "0.18um",
    name: str | None = None,
) -> NetworkTopology:
    """A k-ary fat-tree: (k/2)^2 cores, k pods of k/2 agg + k/2 edge.

    Every switch has exactly ``k`` ports.  Edge switches use k/2 ports
    for uplinks and keep k/2 access ports (the host side); aggregation
    and core switches are all-cable.  ``fat_tree(4)`` is the classic
    20-switch evaluation fabric.
    """
    if k < 2 or k % 2:
        raise ConfigurationError("fat_tree needs an even k >= 2")
    half = k // 2
    nodes = []
    links: list[Link] = []
    for c in range(half * half):
        nodes.append(RouterNode(f"core{c}", k, architecture, tech))
    for p in range(k):
        for a in range(half):
            nodes.append(RouterNode(f"agg{p}_{a}", k, architecture, tech))
        for e in range(half):
            nodes.append(RouterNode(f"edge{p}_{e}", k, architecture, tech))
        for a in range(half):
            for e in range(half):
                links.extend(_both(f"agg{p}_{a}", f"edge{p}_{e}", capacity))
            for c in range(half):
                links.extend(
                    _both(f"agg{p}_{a}", f"core{a * half + c}", capacity)
                )
    return NetworkTopology(name or f"fat_tree_k{k}", tuple(nodes), tuple(links))


def isp(
    n: int = 100,
    seed: int = 2002,
    degree: float = 3.0,
    core_fraction: float = 0.1,
    alpha: float = 0.4,
    beta: float = 0.25,
    access_ports: int = 1,
    capacity: float = 1.0,
    core_capacity: float = 1.0,
    architecture: str = "crossbar",
    tech: str = "0.18um",
    name: str | None = None,
) -> NetworkTopology:
    """A seeded Topology-Zoo/Rocketfuel-style ISP graph.

    Two tiers: the first ``round(n * core_fraction)`` routers form a
    backbone core (``core0..``), the rest are edge PoPs (``edge0..``)
    that carry the access ports.  Construction is deterministic in
    ``seed`` and bounded — O(n + cables) work, never a quadratic scan:

    1. Routers are placed uniformly at random on the unit square.
    2. A random spanning tree guarantees connectivity (router ``i``
       attaches to a random earlier router, core routers preferring
       core parents — the hierarchical flavor).
    3. Extra cables are added up to an average ``degree`` target using
       the Waxman acceptance probability
       ``alpha * exp(-dist / (beta * sqrt(2)))``, so short links
       dominate the way they do in real ISP maps.

    Port counts are sized to the realised cable degree, so the
    generated topology always validates.  Core routers carry no
    dedicated access ports (transit only), so :func:`edge_nodes`
    returns the edge tier whenever every core realises two cables
    (guaranteed for ``n`` large enough to have two cores).
    """
    if n < 2:
        raise ConfigurationError("an isp graph needs at least 2 routers")
    if degree < 2.0:
        raise ConfigurationError("isp degree target must be >= 2")
    if not 0.0 <= core_fraction < 1.0:
        raise ConfigurationError("core_fraction must be in [0, 1)")
    if access_ports < 1:
        raise ConfigurationError("isp edge routers need >= 1 access port")
    rng = random.Random(seed)
    n_core = min(max(1, round(n * core_fraction)), n - 1)
    names = [f"core{i}" for i in range(n_core)] + [
        f"edge{i}" for i in range(n - n_core)
    ]
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    cabled: set[tuple[int, int]] = set()
    cables: list[tuple[int, int]] = []

    def add_cable(u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        if key not in cabled:
            cabled.add(key)
            cables.append(key)

    # 1 + 2: random spanning tree; cores prefer core parents so the
    # backbone forms a connected hierarchy of its own.
    for i in range(1, n):
        if i < n_core:
            add_cable(i, rng.randrange(i))
        else:
            add_cable(i, rng.randrange(min(i, max(n_core, i // 2 + 1))))
    # 3: Waxman extras up to the average-degree target.  The attempt
    # budget bounds construction time even when alpha is tiny.
    target = max(0, round(n * degree / 2.0) - len(cables))
    scale = beta * math.sqrt(2.0)
    attempts = 0
    while target > 0 and attempts < 50 * n:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (min(u, v), max(u, v)) in cabled:
            continue
        (ux, uy), (vx, vy) = positions[u], positions[v]
        dist = math.hypot(ux - vx, uy - vy)
        accept = alpha * math.exp(-dist / scale)
        if u < n_core and v < n_core:
            accept = min(1.0, 2.0 * accept)  # denser backbone mesh
        if rng.random() < accept:
            add_cable(u, v)
            target -= 1
    # Transit cores need >= 2 cables (RouterNode's minimum port count);
    # ring-close any degree-1 core onto the backbone so no core is left
    # with a spare port that port_map() would turn into an access port.
    if n_core >= 2:
        deg = [0] * n
        for u, v in cables:
            deg[u] += 1
            deg[v] += 1
        for i in range(n_core):
            j = (i + 1) % n_core
            while deg[i] < 2 and j != i:
                if (min(i, j), max(i, j)) not in cabled:
                    add_cable(i, j)
                    deg[i] += 1
                    deg[j] += 1
                j = (j + 1) % n_core
    cable_degree = [0] * n
    for u, v in cables:
        cable_degree[u] += 1
        cable_degree[v] += 1
    nodes = []
    for i in range(n):
        extra = access_ports if i >= n_core else 0
        ports = max(2, cable_degree[i] + extra)
        nodes.append(RouterNode(names[i], ports, architecture, tech))
    links: list[Link] = []
    for u, v in cables:
        cap = core_capacity if (u < n_core and v < n_core) else capacity
        links.extend(_both(names[u], names[v], cap))
    return NetworkTopology(
        name or f"isp{n}_s{seed}", tuple(nodes), tuple(links)
    )


#: Generator registry (used by spec files that name a shape).
GENERATORS = {
    "single": single,
    "line": line,
    "star": star,
    "mesh": mesh,
    "dumbbell": dumbbell,
    "fat_tree": fat_tree,
    "isp": isp,
}


def edge_nodes(topology: NetworkTopology) -> tuple[str, ...]:
    """Nodes with at least one access port — the traffic endpoints."""
    pm = topology.port_map()
    return tuple(
        name for name in topology.node_names if pm[name].access_ports
    )
