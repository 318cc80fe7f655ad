"""Network-level data-plane power (:mod:`repro.network`).

Pins the subsystem's contracts:

* topology / traffic-matrix specs round-trip through JSON and hash
  stably by content;
* routing conserves flow (sum of link loads == sum of demand x hops)
  and ECMP splits demand exactly across equal-cost paths;
* on random small topologies, :func:`route` and :func:`build_tables`
  equal, float for float, a reference that enumerates simple paths,
  and the green-routing plan equals a greedy that re-routes the whole
  matrix for every trial cable (100 derandomized examples here, 1,000
  in CI with ``--hypothesis-profile engine-fuzz``);
* a one-node network is *bit-identical* to a standalone
  :class:`~repro.api.PowerModel` run of the same scenario;
* the switch-off policy never increases power;
* the CLI round-trips: a warm ``--cache`` re-simulates nothing and the
  exports stay byte-identical.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import PowerModel, Scenario
from repro.api.figstore import DerivedRecordStore
from repro.api.store import RunRecordStore
from repro.cli import main
from repro.control import cable_key, optimize_routing
from repro.errors import ConfigurationError
from repro.network import (
    LINK_COLUMNS,
    Demand,
    Link,
    NetworkPowerModel,
    NetworkRecord,
    NetworkSpec,
    NetworkTopology,
    RouterNode,
    TrafficMatrix,
    build_tables,
    derive_port_loads,
    dumbbell,
    edge_nodes,
    fat_tree,
    get_network,
    line,
    mesh,
    network_names,
    route,
    run_network,
    single,
    star,
)

#: Small measurement window shared by every simulated test here.
FAST = dict(arrival_slots=80, warmup_slots=10, seed=7)


def small_spec(**overrides) -> NetworkSpec:
    """A 3-node line with one transit demand — cheap and non-trivial."""
    defaults = dict(
        name="t",
        topology=line(3),
        matrix=TrafficMatrix((Demand("r0", "r2", 0.4),)),
        base=FAST,
    )
    defaults.update(overrides)
    return NetworkSpec(**defaults)


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


class TestTopology:
    def test_round_trip_and_hash_stability(self):
        topo = dumbbell(2, 2)
        back = NetworkTopology.from_json(topo.to_json())
        assert back == topo
        assert back.content_hash() == topo.content_hash()
        # Hash is content-derived: a changed capacity changes it.
        other = topo.replace(
            links=(topo.links[0].__class__(
                topo.links[0].src, topo.links[0].dst, 0.5
            ),) + topo.links[1:]
        )
        assert other.content_hash() != topo.content_hash()

    def test_from_dict_accepts_plain_mappings(self):
        topo = NetworkTopology.from_dict(
            {
                "name": "pair",
                "nodes": [
                    {"name": "a", "ports": 3},
                    {"name": "b", "ports": 3, "architecture": "banyan"},
                ],
                "links": [
                    {"src": "a", "dst": "b"},
                    {"src": "b", "dst": "a", "capacity": 0.5},
                ],
            }
        )
        assert topo.node("b").architecture == "banyan"
        assert topo.link("b", "a").capacity == 0.5

    def test_port_map_pairs_cable_directions(self):
        topo = NetworkTopology(
            name="pair",
            nodes=[RouterNode("a", 3), RouterNode("b", 3)],
            links=[Link("a", "b"), Link("b", "a")],
        )
        pm = topo.port_map()
        # One cable -> one port on each endpoint; the rest are access.
        assert pm["a"].peers == {"b": 0}
        assert pm["a"].access_ports == (1, 2)
        assert pm["b"].peers == {"a": 0}

    def test_too_many_cables_rejected(self):
        with pytest.raises(ConfigurationError, match="cables"):
            NetworkTopology(
                name="x",
                nodes=[RouterNode("a", 2), RouterNode("b", 2),
                       RouterNode("c", 2), RouterNode("d", 2)],
                links=[Link("a", "b"), Link("a", "c"), Link("a", "d")],
            )

    def test_node_ports_capped(self):
        from repro.router.traffic import MAX_PORTS

        assert RouterNode("a", MAX_PORTS).ports == MAX_PORTS
        with pytest.raises(ConfigurationError, match="at most 4096 ports"):
            RouterNode("a", MAX_PORTS + 1)

    def test_duplicate_and_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate node"):
            NetworkTopology(
                name="x", nodes=[RouterNode("a", 2), RouterNode("a", 2)]
            )
        with pytest.raises(ConfigurationError, match="unknown node"):
            NetworkTopology(
                name="x", nodes=[RouterNode("a", 2)], links=[Link("a", "z")]
            )
        with pytest.raises(ConfigurationError, match="self-links"):
            Link("a", "a")
        with pytest.raises(ConfigurationError, match="capacity"):
            Link("a", "b", 1.5)

    def test_generators_validate(self):
        assert len(single(8).nodes) == 1
        assert len(line(4).nodes) == 4
        assert len(star(3).nodes) == 4
        assert len(mesh(4).links) == 12
        assert len(dumbbell(3, 3).nodes) == 8
        ft = fat_tree(4)
        assert len(ft.nodes) == 20  # 4 core + 8 agg + 8 edge
        assert all(n.ports == 4 for n in ft.nodes)
        assert len(edge_nodes(ft)) == 8  # only edge switches keep access


# ----------------------------------------------------------------------
# Traffic matrix
# ----------------------------------------------------------------------


class TestTrafficMatrix:
    def test_round_trip_and_hash_stability(self):
        tm = TrafficMatrix.uniform(("a", "b", "c"), 0.2)
        back = TrafficMatrix.from_json(tm.to_json())
        assert back == tm
        assert back.content_hash() == tm.content_hash()
        assert tm.scaled(2.0).content_hash() != tm.content_hash()

    def test_canonical_order_makes_hash_order_independent(self):
        a = TrafficMatrix((Demand("a", "b", 0.1), Demand("b", "a", 0.2)))
        b = TrafficMatrix((Demand("b", "a", 0.2), Demand("a", "b", 0.1)))
        assert a.content_hash() == b.content_hash()

    def test_presets(self):
        uni = TrafficMatrix.uniform(("a", "b", "c"), 0.1)
        assert len(uni.demands) == 6
        assert uni.originated("a") == pytest.approx(0.2)
        grav = TrafficMatrix.gravity({"a": 2.0, "b": 1.0, "c": 1.0}, 1.0)
        assert grav.total() == pytest.approx(1.0)
        # Heavier endpoints attract proportionally more demand.
        assert grav.demand("a", "b") > grav.demand("b", "c")
        hot = TrafficMatrix.hotspot(("a", "b", "c"), "c", 0.3)
        assert hot.terminated("c") == pytest.approx(0.6)
        assert hot.demand("a", "b") == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="duplicate demand"):
            TrafficMatrix((Demand("a", "b", 0.1), Demand("a", "b", 0.2)))
        with pytest.raises(ConfigurationError, match=">= 0"):
            Demand("a", "b", -0.1)

    def test_cells_take_an_int_or_a_float(self):
        # 1 and 1.0 are one demand with one hash, in the mapping and the
        # [src, dst, cells] row form; a bool or a string is refused.
        def matrix(cells):
            return TrafficMatrix.from_dict({"demands": [
                {"src": "a", "dst": "b", "cells_per_slot": cells}
            ]})

        expected = matrix(1.0).content_hash()
        assert matrix(1).content_hash() == expected
        assert TrafficMatrix((("a", "b", 1),)).content_hash() == expected
        for cells in (True, "0.5"):
            with pytest.raises(ConfigurationError, match="cells_per_slot"):
                matrix(cells)
            with pytest.raises(ConfigurationError, match="cells_per_slot"):
                TrafficMatrix((("a", "b", cells),))


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


class TestRouting:
    def test_flow_conservation_shortest(self):
        topo = line(4)
        tm = TrafficMatrix(
            (Demand("r0", "r3", 0.2), Demand("r1", "r3", 0.3),
             Demand("r2", "r0", 0.1))
        )
        result = route(topo, tm, "shortest")
        expected = sum(
            d.cells_per_slot * result.demand_hops[(d.src, d.dst)]
            for d in tm.demands
        )
        assert result.total_link_load == pytest.approx(expected)
        assert result.demand_hops[("r0", "r3")] == 3

    def test_flow_conservation_ecmp(self):
        spec = get_network("fat_tree_k4")
        result = route(spec.topology, spec.matrix, "ecmp")
        expected = sum(
            d.cells_per_slot * result.demand_hops[(d.src, d.dst)]
            for d in spec.matrix.demands
        )
        assert result.total_link_load == pytest.approx(expected)

    def test_ecmp_splits_equally(self):
        # Two equal-cost 2-hop paths a -> {m1, m2} -> b.
        topo = NetworkTopology(
            name="diamond",
            nodes=[RouterNode("a", 3), RouterNode("m1", 2),
                   RouterNode("m2", 2), RouterNode("b", 3)],
            links=[Link("a", "m1"), Link("m1", "b"),
                   Link("a", "m2"), Link("m2", "b")],
        )
        tm = TrafficMatrix((Demand("a", "b", 0.8),))
        result = route(topo, tm, "ecmp")
        assert result.link_loads[("a", "m1")] == pytest.approx(0.4)
        assert result.link_loads[("a", "m2")] == pytest.approx(0.4)
        # The shortest mode pins everything onto one deterministic path.
        one = route(topo, tm, "shortest")
        assert sorted(one.link_loads.values()) == pytest.approx(
            [0.0, 0.0, 0.8, 0.8]
        )

    def test_ingress_port_loads(self):
        spec = small_spec()
        result = route(spec.topology, spec.matrix, "shortest")
        # r1 is pure transit: its cable port from r0 carries the demand.
        pm = spec.topology.port_map()
        r1_port = pm["r1"].peers["r0"]
        assert result.ingress_loads["r1"][r1_port] == pytest.approx(0.4)
        # r0 originates 0.4 over its single access port.
        access = pm["r0"].access_ports[0]
        assert result.ingress_loads["r0"][access] == pytest.approx(0.4)
        # r2 terminates only: ingress on the cable, egress on access.
        assert result.egress_loads["r2"][pm["r2"].access_ports[0]] == (
            pytest.approx(0.4)
        )

    def test_overload_rejected(self):
        spec = small_spec(matrix=TrafficMatrix((Demand("r0", "r2", 0.9),)))
        # The bottleneck link capacity is 1.0; 0.9 routes fine, but
        # doubling the demand exceeds line rate.
        route(spec.topology, spec.matrix, "shortest")
        with pytest.raises(ConfigurationError, match="exceeds link capacity"):
            route(spec.topology, spec.matrix.scaled(2.0), "shortest")

    def test_unroutable_rejected(self):
        topo = NetworkTopology(
            name="split",
            nodes=[RouterNode("a", 2), RouterNode("b", 2)],
        )
        with pytest.raises(ConfigurationError, match="unroutable"):
            route(topo, TrafficMatrix((Demand("a", "b", 0.1),)))

    def test_access_overload_rejected(self):
        # 1.2 cells/slot into one access port exceeds line rate.
        topo = single(2)
        with pytest.raises(ConfigurationError, match="line rate"):
            route(topo, TrafficMatrix((Demand("r0", "r0", 2.4),)))

    def test_ecmp_invariant_under_link_permutation(self):
        # ECMP splits by shortest-path counts, which don't depend on
        # declaration order — permuting the link tuple must reproduce
        # the exact same link loads and path lengths.
        spec = get_network("fat_tree_k4")
        topo = spec.topology
        shuffled = topo.replace(links=tuple(reversed(topo.links)))
        a = route(topo, spec.matrix, "ecmp")
        b = route(shuffled, spec.matrix, "ecmp")
        assert a.demand_hops == b.demand_hops
        assert set(a.link_loads) == set(b.link_loads)
        for edge, load in a.link_loads.items():
            assert b.link_loads[edge] == pytest.approx(load)
        # The aggregate record is therefore permutation-stable too.
        ra = run_network(spec.replace(base=dict(backend="estimate")))
        rb = run_network(
            spec.replace(topology=shuffled, base=dict(backend="estimate"))
        )
        assert rb.totals["power_w"] == pytest.approx(ra.totals["power_w"])
        assert rb.totals["max_link_utilization"] == pytest.approx(
            ra.totals["max_link_utilization"]
        )


# ----------------------------------------------------------------------
# Routing against path enumeration
# ----------------------------------------------------------------------

#: The example count comes from the active hypothesis profile.
PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Router names; each case declares a random subset in a random order,
#: so declaration order and name order disagree.
NAMES = ("a", "b", "c", "d", "e", "f", "g")


def _shortest_paths(topology, src, dst):
    """Every shortest simple ``src -> dst`` path, lexicographic by link
    declaration order (depth-first, out-links in declaration order)."""
    adj = topology.out_neighbors()
    paths = []

    def walk(path):
        if path[-1] == dst:
            paths.append(path)
            return
        for peer in adj[path[-1]]:
            if peer not in path:
                walk(path + (peer,))

    walk((src,))
    fewest = min(map(len, paths), default=0)
    return [path for path in paths if len(path) == fewest]


@st.composite
def routing_cases(draw):
    """A random directed topology of 2-7 routers and a random matrix of
    1-4 demands: local, zero and unroutable demands included, and port
    counts that may leave a sending router without an access port.

    The routers, links and demands come from a seeded Random, because
    hypothesis's own draws skew towards tiny, empty or complete graphs,
    which have few equal-cost paths.  Half the cases are tiers cabled at
    random, like a fat tree's; the rest hold a directed ring (three in
    four) plus random cables, half of them in both directions.  In half
    the cases every link gets its reverse.
    """
    rng = draw(st.randoms(use_true_random=True))
    names = rng.sample(NAMES, rng.randint(2, 7))
    edges = set()
    if rng.random() < 0.5:
        tier = {name: rng.randint(0, 2) for name in names}
        for a in names:
            for b in names:
                if tier[b] == tier[a] + 1 and rng.random() < 0.7:
                    edges.update([(a, b), (b, a)])
    else:
        if rng.random() < 0.75:
            ring = rng.sample(names, len(names))
            edges.update(zip(ring, ring[1:] + ring[:1]))
        density = rng.uniform(0.0, 0.3)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if rng.random() < density:
                    way = rng.random()
                    edges.update(
                        [(a, b)] * (way < 0.75) + [(b, a)] * (way > 0.25)
                    )
    if rng.random() < 0.5:
        edges.update([(b, a) for a, b in edges])
    edges = rng.sample(sorted(edges), len(edges))
    cables = {name: set() for name in names}
    for src, dst in edges:
        cables[src].add(dst)
        cables[dst].add(src)
    # One case in five may leave a router without an access port.
    spare = (0, 1, 2) if rng.random() < 0.2 else (1, 2)
    topology = NetworkTopology(
        name="random",
        nodes=[
            RouterNode(name, max(2, len(cables[name]) + rng.choice(spare)))
            for name in names
        ],
        links=[
            Link(src, dst, rng.choice((1.0, 0.5, rng.uniform(0.05, 1.0))))
            for src, dst in edges
        ],
    )
    # Four cases in five draw only routable pairs.
    pairs = [(src, dst) for src in names for dst in names]
    if rng.random() < 0.8:
        pairs = [pair for pair in pairs if _shortest_paths(topology, *pair)]
    demand = (0.0, 0.1, 1 / 3, rng.uniform(0.0, 0.5))
    count = rng.randint(1, min(4, len(pairs)))
    matrix = TrafficMatrix(
        tuple(
            Demand(src, dst, rng.choice(demand))
            for src, dst in rng.sample(pairs, count)
        )
    )
    return topology, matrix


def reference_route(topology, matrix, mode):
    """``(link loads, demand hops)`` by path enumeration.  ECMP adds
    ``demand * through / total`` per edge, in demand order; the shortest
    mode loads the first shortest path.  Raises on an unroutable demand
    with :func:`route`'s text, and on an overloaded link with the start
    of it."""
    loads = {(link.src, link.dst): 0.0 for link in topology.links}
    hops = {}
    for d in matrix.demands:
        if d.src == d.dst:
            hops[(d.src, d.dst)] = 0
            continue
        paths = _shortest_paths(topology, d.src, d.dst)
        if not paths:
            raise ConfigurationError(
                f"demand {d.src!r} -> {d.dst!r} is unroutable: no path"
            )
        hops[(d.src, d.dst)] = len(paths[0]) - 1
        if d.cells_per_slot == 0.0:
            continue
        if mode == "shortest":
            paths = paths[:1]
        through = {}
        for path in paths:
            for edge in zip(path, path[1:]):
                through[edge] = through.get(edge, 0) + 1
        for edge, count in through.items():
            loads[edge] += d.cells_per_slot * count / len(paths)
    if any(
        load > topology.link(*edge).capacity + 1e-9
        for edge, load in loads.items()
    ):
        raise ConfigurationError("routed load exceeds link capacity")
    return loads, hops


def _max_utilization(topology, loads):
    utils = [load / topology.link(*edge).capacity
             for edge, load in loads.items()]
    return max(utils) if utils else 0.0


def reference_plan(topology, matrix, mode, max_utilization):
    """The green-routing greedy that re-routes the whole matrix for every
    trial cable: one :func:`route` on a new pruned topology per trial.
    Returns ``(pruned cables, pruned topology, projected link loads,
    demand hops, (ingress, egress, active), tables, max utilization)``
    in the fields of :class:`~repro.control.GreenPlan`."""
    base = route(topology, matrix, mode)
    current, routing, pruned = topology, base, []
    if _max_utilization(topology, base.link_loads) <= max_utilization + 1e-9:
        loads = {}
        for (src, dst), load in base.link_loads.items():
            key = cable_key(src, dst)
            loads[key] = loads.get(key, 0.0) + load
        for cable in sorted(loads, key=lambda cable: (loads[cable], cable)):
            trial = current.replace(links=tuple(
                link for link in current.links
                if {link.src, link.dst} != set(cable)
            ))
            if not trial.links:
                continue
            try:
                trial_routing = route(trial, matrix, mode)
            except ConfigurationError:
                continue
            if (_max_utilization(trial, trial_routing.link_loads)
                    <= max_utilization + 1e-9):
                current, routing = trial, trial_routing
                pruned.append(cable)
    full = {
        (link.src, link.dst): routing.link_loads.get((link.src, link.dst), 0.0)
        for link in topology.links
    }
    return (
        tuple(sorted(pruned)), current, full, routing.demand_hops,
        derive_port_loads(topology, matrix, full),
        build_tables(current, mode), _max_utilization(topology, full),
    )


class TestRoutingProperty:
    @PROPERTY
    @given(case=routing_cases())
    def test_route_matches_path_enumeration(self, case):
        topology, matrix = case
        for mode in ("shortest", "ecmp"):
            try:
                loads, hops = reference_route(topology, matrix, mode)
                ports = derive_port_loads(topology, matrix, loads)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError) as info:
                    route(topology, matrix, mode)
                assert str(info.value).startswith(str(exc))
                continue
            result = route(topology, matrix, mode)
            assert list(result.link_loads.items()) == list(loads.items())
            assert result.demand_hops == hops
            assert all(type(h) is int for h in result.demand_hops.values())
            assert (
                result.ingress_loads, result.egress_loads, result.active_ports
            ) == ports

    @PROPERTY
    @given(case=routing_cases())
    def test_tables_match_path_enumeration(self, case):
        topology, _ = case
        adj = topology.out_neighbors()
        ecmp = build_tables(topology, "ecmp")
        shortest = build_tables(topology, "shortest")
        routable = set()
        for node in topology.node_names:
            for target in topology.node_names:
                paths = _shortest_paths(topology, node, target)
                if node == target or not paths:
                    continue
                routable.add((node, target))
                counts = {}
                for path in paths:
                    counts[path[1]] = counts.get(path[1], 0) + 1
                assert ecmp.next_hops(node, target) == tuple(
                    (peer, float(counts[peer]))
                    for peer in adj[node]
                    if peer in counts
                )
                assert shortest.next_hops(node, target) == (
                    (paths[0][1], 1.0),
                )
        for tables in (ecmp, shortest):
            assert {
                (node, target)
                for node, entries in tables.tables.items()
                for target in entries
            } == routable

    @PROPERTY
    @given(
        case=routing_cases(),
        headroom=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_green_plan_matches_full_rerouting(self, case, headroom):
        topology, matrix = case
        for mode in ("shortest", "ecmp"):
            for bound in (0.3, 0.5, 0.75, 0.9, 1.0, headroom):
                try:
                    expected = reference_plan(topology, matrix, mode, bound)
                except ConfigurationError as exc:
                    with pytest.raises(ConfigurationError) as info:
                        optimize_routing(topology, matrix, mode, bound)
                    assert str(info.value) == str(exc)
                    continue
                pruned, pruned_topology, loads, hops, ports, tables, most = (
                    expected
                )
                plan = optimize_routing(topology, matrix, mode, bound)
                assert plan.pruned_cables == pruned
                assert plan.topology == pruned_topology
                routing = plan.routing
                assert routing.topology == topology and routing.mode == mode
                assert list(routing.link_loads.items()) == list(loads.items())
                assert list(routing.demand_hops.items()) == list(hops.items())
                assert (
                    routing.ingress_loads, routing.egress_loads,
                    routing.active_ports,
                ) == ports
                assert plan.tables.mode == mode
                assert plan.tables.tables == tables.tables
                assert plan.max_link_utilization == most


# ----------------------------------------------------------------------
# Routing tables
# ----------------------------------------------------------------------


class TestRoutingTables:
    def diamond(self):
        # Two equal-cost 2-hop paths a -> {m1, m2} -> b.
        return NetworkTopology(
            name="diamond",
            nodes=[RouterNode("a", 3), RouterNode("m1", 2),
                   RouterNode("m2", 2), RouterNode("b", 3)],
            links=[Link("a", "m1"), Link("m1", "b"),
                   Link("a", "m2"), Link("m2", "b")],
        )

    def test_tables_reproduce_mode_routing(self):
        # The shortest table takes the first declared hop, as route()'s
        # walk does; ECMP weights both hops by their path counts, the
        # even split route() puts on the two paths.
        topo = self.diamond()
        tm = TrafficMatrix((Demand("a", "b", 0.8),))
        shortest = build_tables(topo, "shortest")
        assert shortest.next_hops("a", "b") == (("m1", 1.0),)
        assert route(topo, tm, "shortest").link_loads[("a", "m1")] == 0.8
        ecmp = build_tables(topo, "ecmp")
        assert ecmp.next_hops("a", "b") == (("m1", 1.0), ("m2", 1.0))
        loads = route(topo, tm, "ecmp").link_loads
        assert loads[("a", "m1")] == loads[("a", "m2")] == 0.4


# ----------------------------------------------------------------------
# Power aggregation
# ----------------------------------------------------------------------


class TestNetworkPower:
    def test_single_node_bit_identical_to_standalone(self):
        # ports=8 and demand=0.3*8 make the per-access-port division
        # exact, so the derived scenario *is* the standalone scenario.
        spec = NetworkSpec(
            name="solo",
            topology=single(ports=8),
            matrix=TrafficMatrix((Demand("r0", "r0", 0.3 * 8),)),
            base=FAST,
        )
        model = NetworkPowerModel()
        (name, scenario), = model.scenarios(spec)
        assert scenario.load == 0.3  # uniform vector collapsed to scalar
        record = model.run(spec)
        standalone = PowerModel().run(
            Scenario("crossbar", 8, 0.3, **FAST)
        )
        row = record.node("r0")
        assert row["fabric_power_w"] == standalone.total_power_w
        assert row["throughput"] == standalone.throughput
        assert row["switch_power_w"] == standalone.switch_power_w
        assert row["wire_power_w"] == standalone.wire_power_w
        assert row["buffer_power_w"] == standalone.buffer_power_w
        assert record.totals["fabric_power_w"] == standalone.total_power_w

    def test_single_node_shares_cache_with_standalone(self, tmp_path):
        # Same content hash -> the network run is served from a store
        # warmed by the equivalent *standalone* scenario (a user's own
        # `repro batch` run), not just by a previous network run.
        spec = NetworkSpec(
            name="solo",
            topology=single(ports=8),
            matrix=TrafficMatrix((Demand("r0", "r0", 0.3 * 8),)),
            base=FAST,
        )
        model = NetworkPowerModel()
        (_, derived), = model.scenarios(spec)
        standalone = Scenario("crossbar", 8, 0.3, **FAST)
        assert derived.content_hash() == standalone.content_hash()
        store = RunRecordStore(tmp_path / "records.jsonl")
        PowerModel().run_batch([standalone], store=store)
        store2 = RunRecordStore(tmp_path / "records.jsonl")
        model.run(spec, store=store2)
        assert store2.stats()["misses"] == 0

    def test_identical_routers_share_one_cache_entry(self, tmp_path):
        # The three left leaves of the dumbbell are identically
        # configured and identically loaded -> one store entry each run.
        spec = get_network("dumbbell_switchoff")
        store = RunRecordStore(tmp_path / "records.jsonl")
        record = NetworkPowerModel().run(spec, store=store)
        assert len(record.nodes) == 8
        assert store.stats()["entries"] < 8

    def test_identical_routers_share_one_scenario_instance(self):
        # fat_tree_k16: 320 routers, 3 distinct scenarios, one instance
        # each; every router still has its own (node, scenario) pair.
        spec = get_network("fat_tree_k16")
        model = NetworkPowerModel()
        routing = model.route(spec)
        pairs = model.scenarios(spec, routing)
        scenarios = [scenario for _, scenario in pairs]
        assert [name for name, _ in pairs] == list(spec.topology.node_names)
        assert len({id(s) for s in scenarios}) == len(
            {s.content_hash() for s in scenarios}
        )
        shared = {}
        for node, scenario in zip(spec.topology.nodes, scenarios):
            key = (node.architecture, node.ports, node.tech,
                   routing.ingress_loads[node.name])
            assert shared.setdefault(key, scenario) is scenario

    def test_run_batch_gets_one_listing_per_router(self):
        listed = []

        class Listing(PowerModel):
            def run_batch(self, scenarios, **batch):
                listed.append(list(scenarios))
                return super().run_batch(scenarios, **batch)

        spec = get_network("dumbbell_switchoff").replace(
            base=dict(backend="estimate"))
        NetworkPowerModel(Listing()).run(spec)
        assert [len(batch) for batch in listed] == [8]
        assert len({id(s) for s in listed[0]}) < 8

    def test_idle_router_with_bursty_traffic_runs(self):
        # An all-idle router keeps the vector load spelling under
        # bursty traffic (the scalar bursty contract rejects load 0).
        spec = get_network("dumbbell_switchoff").replace(
            base=dict(traffic="bursty", **FAST)
        )
        record = run_network(spec)  # r1/r2 are fully idle
        assert record.node("r1")["mean_load"] == 0.0
        assert record.node("r1")["throughput"] == 0.0
        assert record.node("r0")["throughput"] > 0.0

    def test_network_total_sums_nodes(self):
        record = run_network(small_spec())
        assert record.totals["fabric_power_w"] == pytest.approx(
            sum(row["fabric_power_w"] for row in record.nodes)
        )
        assert record.totals["power_w"] == pytest.approx(
            sum(row["power_w"] for row in record.nodes)
        )
        assert record.totals["nodes"] == 3

    def test_switch_off_monotone_and_fabric_invariant(self):
        base = small_spec(port_power_w=0.01)
        on = run_network(base.replace(switch_off=True))
        off = run_network(base)
        # Idling unused ports never increases power, and never touches
        # the fabric component.
        assert on.totals["power_w"] <= off.totals["power_w"]
        assert on.totals["fabric_power_w"] == off.totals["fabric_power_w"]
        saved = on.totals["switch_off_delta_w"]
        assert saved == pytest.approx(
            off.totals["port_power_w"] - on.totals["port_power_w"]
        )
        assert saved > 0.0  # the reverse-direction links are idle
        assert off.totals["switch_off_delta_w"] == 0.0

    def test_link_rows_and_port_power_attribution(self):
        record = run_network(small_spec(port_power_w=0.01))
        # Without switch-off every port is powered.
        assert record.totals["powered_ports"] == record.totals["total_ports"]
        # Link power halves across the two directions of each cable, so
        # summing directed rows never double counts a port.
        cable_ports = sum(
            row["power_w"] for row in record.links
        )
        # line(3): 2 cables -> 4 cable ports at 0.01 W.
        assert cable_ports == pytest.approx(0.04)

    def test_propagation_power_scales_with_length_and_load(self):
        # One 1 km cable at load 0.4: each direction burns
        # load x line rate x J/bit/m x length = 0.4 * 100e6 * 1e-12 * 1000.
        topo = NetworkTopology(
            name="pair",
            nodes=[RouterNode("a", 2), RouterNode("b", 2)],
            links=[Link("a", "b", length_m=1000.0),
                   Link("b", "a", length_m=1000.0)],
        )
        spec = NetworkSpec(
            name="prop",
            topology=topo,
            matrix=TrafficMatrix((Demand("a", "b", 0.4),)),
            base=dict(backend="estimate"),
            propagation_j_per_bit_m=1e-12,
        )
        record = run_network(spec)
        forward = next(
            r for r in record.links if (r["src"], r["dst"]) == ("a", "b")
        )
        reverse = next(
            r for r in record.links if (r["src"], r["dst"]) == ("b", "a")
        )
        assert forward["propagation_power_w"] == pytest.approx(0.04)
        assert reverse["propagation_power_w"] == 0.0  # no reverse load
        assert record.totals["propagation_power_w"] == pytest.approx(0.04)
        assert record.totals["power_w"] == pytest.approx(
            record.totals["fabric_power_w"]
            + record.totals["port_power_w"]
            + 0.04
        )

    def test_link_rows_exact_with_one_way_cable_and_switch_off(self):
        # a <-> b is a two-way cable whose reverse link b -> a is idle;
        # b -> c is a one-way cable (one direction carries its ports'
        # power alone); c <-> d is an idle cable whose ports switch off.
        topo = NetworkTopology(
            name="exact",
            nodes=[RouterNode("a", 3), RouterNode("b", 3),
                   RouterNode("c", 3), RouterNode("d", 2)],
            links=[Link("a", "b", length_m=1000.0),
                   Link("b", "a", length_m=1000.0),
                   Link("b", "c", length_m=500.0),
                   Link("c", "d"), Link("d", "c")],
        )
        spec = NetworkSpec(
            name="exact",
            topology=topo,
            matrix=TrafficMatrix((Demand("a", "c", 0.4),)),
            base=dict(backend="estimate"),
            switch_off=True,
            port_power_w=0.01,
            propagation_j_per_bit_m=1e-12,
        )
        record = run_network(spec)
        # load x line rate (0.18um: 100e6 bit/s) x J/bit/m x length
        p_ab = 0.4 * 100e6 * 1e-12 * 1000.0
        p_bc = 0.4 * 100e6 * 1e-12 * 500.0
        # (src, dst, powered endpoints, directions of the cable, propagation)
        expected = [
            ("a", "b", 2, 2, p_ab),
            ("b", "a", 2, 2, 0.0),
            ("b", "c", 2, 1, p_bc),
            ("c", "d", 0, 2, 0.0),
            ("d", "c", 0, 2, 0.0),
        ]
        assert len(record.links) == len(expected)
        for row, (src, dst, endpoints, share, propagation) in zip(
            record.links, expected
        ):
            assert list(row) == list(LINK_COLUMNS)
            assert (row["src"], row["dst"]) == (src, dst)
            assert row["propagation_power_w"] == propagation
            assert row["power_w"] == endpoints * 0.01 / share + propagation
        assert record.totals["propagation_power_w"] == (
            0.0 + p_ab + 0.0 + p_bc + 0.0 + 0.0
        )
        # c's and d's ends of the idle cable, d's and b's access ports
        assert record.totals["idle_ports"] == 4

    def test_propagation_default_keeps_hashes_and_totals(self):
        # The 0.0 default is omitted from dicts, so pre-existing spec
        # hashes and records are untouched by the new field.
        spec = small_spec()
        explicit = small_spec(propagation_j_per_bit_m=0.0)
        assert "propagation_j_per_bit_m" not in spec.to_dict()
        assert explicit.content_hash() == spec.content_hash()
        record = run_network(spec.replace(base=dict(backend="estimate")))
        assert record.totals["propagation_power_w"] == 0.0
        with pytest.raises(ConfigurationError, match="propagation"):
            small_spec(propagation_j_per_bit_m=-1e-12)

    def test_estimate_backend_uses_scalar_mean(self):
        spec = small_spec(base=dict(backend="estimate"))
        model = NetworkPowerModel()
        for _, scenario in model.scenarios(spec):
            assert isinstance(scenario.load, float)
        record = model.run(spec)
        assert record.totals["power_w"] > 0.0

    def test_spec_round_trip_and_validation(self):
        spec = get_network("dumbbell_switchoff")
        back = NetworkSpec.from_json(spec.to_json())
        assert back == spec
        assert back.content_hash() == spec.content_hash()
        assert spec.scaled(0.5).content_hash() != spec.content_hash()
        with pytest.raises(ConfigurationError, match="derived"):
            small_spec(base=dict(ports=8))
        with pytest.raises(ConfigurationError, match="trace"):
            small_spec(base=dict(traffic="trace"))
        with pytest.raises(ConfigurationError, match="unknown nodes"):
            small_spec(matrix=TrafficMatrix((Demand("zz", "r0", 0.1),)))

    def test_record_round_trip(self):
        record = run_network(small_spec(port_power_w=0.002))
        back = NetworkRecord.from_json(record.to_json())
        assert back.to_csv() == record.to_csv()
        assert back.links_to_csv() == record.links_to_csv()
        assert back.totals == record.totals
        assert back.detail is None

    def test_figure_store_serves_without_session(self, tmp_path):
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        spec = small_spec()
        first = run_network(spec, figures=figures)
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_network(spec, figures=warm)
        assert warm.stats() == {
            "entries": 1, "hits": 1, "misses": 0, "skipped_lines": 0,
            "quarantined": 0,
        }
        assert second.to_csv() == first.to_csv()

    def test_run_network_accepts_preset_name_and_scale(self):
        record = run_network(
            "dumbbell_switchoff", scale=0.5,
        )
        assert record.totals["max_link_utilization"] == pytest.approx(0.375)


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------


class TestNetworkCampaigns:
    def test_presets_registered(self):
        from repro.campaigns import campaign_names, get_campaign

        names = campaign_names()
        assert "fat_tree_k4_sweep" in names
        assert "dumbbell_switchoff" in names
        campaign = get_campaign("dumbbell_switchoff")
        assert campaign.kind == "network"
        assert campaign.size() == 18  # 2 scales x (8 nodes + total row)

    def test_campaign_round_trip(self):
        from repro.campaigns import Campaign, get_campaign

        campaign = get_campaign("fat_tree_k4_sweep")
        back = Campaign.from_json(campaign.to_json())
        assert back.content_hash() == campaign.content_hash()
        assert back.network_scales() == (0.25, 0.5, 0.75, 1.0)

    def test_campaign_plan_routes_without_running(self):
        from repro.campaigns import campaign_plan, get_campaign

        campaign = get_campaign("dumbbell_switchoff")
        plan = campaign_plan(campaign)
        # Plan and size agree: 2 scales x (8 nodes + the total row).
        assert len(plan) == campaign.size() == 18
        assert {p["scale"] for p in plan} == {0.5, 1.0}

    def test_campaign_run_and_report(self, tmp_path):
        from repro.campaigns import (
            Campaign,
            NETWORK_TOTAL_NODE,
            render_report,
            run_campaign,
        )

        campaign = Campaign(
            name="net",
            kind="network",
            params={
                "spec": small_spec(port_power_w=0.001,
                                   switch_off=True).to_dict(),
                "scales": [0.5, 1.0],
            },
        )
        record = run_campaign(campaign)
        assert len(record.points) == 8  # 2 scales x (3 nodes + total)
        totals = record.select(node=NETWORK_TOTAL_NODE)
        assert len(totals) == 2
        assert totals[0]["power_w"] <= totals[1]["power_w"]
        report = render_report(record)
        assert "demand scale 0.5" in report and "switch-off saved" in report

    def test_campaign_figures_cache(self, tmp_path):
        from repro.campaigns import Campaign, run_campaign

        campaign = Campaign(
            name="net",
            kind="network",
            params={"spec": small_spec().to_dict()},
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        first = run_campaign(campaign, figures=figures)
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_campaign(campaign, figures=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert second.to_csv() == first.to_csv()

    def test_figures_miss_when_named_preset_changes(self, tmp_path,
                                                    monkeypatch):
        # A campaign that names a preset resolves it at run time; the
        # figure key mixes the resolved spec in, so editing the preset
        # misses the cache instead of serving the pre-edit record.
        from repro.campaigns import Campaign, run_campaign
        from repro.network import presets as network_presets

        spec_a = small_spec()
        spec_b = small_spec(
            matrix=TrafficMatrix((Demand("r0", "r2", 0.6),))
        )
        monkeypatch.setitem(
            network_presets.NETWORK_PRESETS, "tmp_net", lambda: spec_a
        )
        campaign = Campaign(
            name="net", kind="network", params={"network": "tmp_net"},
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        first = run_campaign(campaign, figures=figures)
        monkeypatch.setitem(
            network_presets.NETWORK_PRESETS, "tmp_net", lambda: spec_b
        )
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_campaign(campaign, figures=warm)
        assert warm.misses >= 1  # the edited preset did not hit
        assert second.to_csv() != first.to_csv()

    def test_grid_campaign_figures_cache(self, tmp_path):
        # The derived-figure store works for classic grid campaigns too
        # (the ROADMAP open item): a warm report needs no execution.
        from repro.campaigns import Campaign, run_campaign

        campaign = Campaign(
            name="mini",
            architectures=("crossbar",),
            ports=(4,),
            loads=(0.2,),
            base=FAST,
        )
        figures = DerivedRecordStore(tmp_path / "figs.jsonl")
        first = run_campaign(campaign, figures=figures)
        warm = DerivedRecordStore(tmp_path / "figs.jsonl")
        second = run_campaign(campaign, figures=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert second.to_csv() == first.to_csv()

    def test_network_campaign_validation(self):
        from repro.campaigns import Campaign

        with pytest.raises(ConfigurationError, match="exactly one"):
            Campaign(name="x", kind="network")
        with pytest.raises(ConfigurationError, match="exactly one"):
            Campaign(
                name="x", kind="network",
                params={"network": "fat_tree_k4",
                        "spec": small_spec().to_dict()},
            )
        # [true] would run as scale 1.0 under another content hash, and
        # [NaN] would pass construction and print a --dry-run plan.
        for scale in (0.0, True, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="positive"):
                Campaign(
                    name="x", kind="network",
                    params={"network": "fat_tree_k4", "scales": [scale]},
                )
        # A bare number is not iterable, and a string would be refused
        # one character at a time.
        for scales in (2, "12"):
            with pytest.raises(ConfigurationError,
                               match=f"must be a list .*got {scales!r}"):
                Campaign(
                    name="x", kind="network",
                    params={"network": "fat_tree_k4", "scales": scales},
                )
        with pytest.raises(ConfigurationError, match="unknown network"):
            Campaign(
                name="x", kind="network", params={"network": "nope"},
            )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestNetworkCli:
    def test_list(self, capsys):
        assert main(["network", "list"]) == 0
        out = capsys.readouterr().out
        for name in network_names():
            assert name in out

    def test_dry_run(self, capsys):
        assert main(["network", "run", "dumbbell_switchoff",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "8 routers" in out
        assert "link hub_l->hub_r" in out

    def test_run_report_and_warm_cache(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec(port_power_w=0.001).to_json())
        cache = tmp_path / "records.jsonl"
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        assert main(["network", "run", str(spec_file),
                     "--cache", str(cache), "--csv", str(csv_a),
                     "--links-csv", str(tmp_path / "links.csv"),
                     "--json", str(tmp_path / "rec.json"),
                     "--format", "csv"]) == 0
        capsys.readouterr()
        # Warm cache: zero misses, byte-identical exports.
        assert main(["network", "run", str(spec_file),
                     "--cache", str(cache), "--csv", str(csv_b),
                     "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert " 0 misses" in captured.err
        assert csv_a.read_bytes() == csv_b.read_bytes()
        # Stdout csv matches the exported file byte for byte.
        assert captured.out.encode() == csv_b.read_bytes()
        payload = json.loads((tmp_path / "rec.json").read_text())
        assert payload["totals"]["nodes"] == 3

    def test_report_command(self, capsys):
        assert main(["network", "report", "dumbbell_switchoff",
                     "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "per-router power" in out and "switch-off saved" in out

    def test_figures_round_trip(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec().to_json())
        figs = tmp_path / "figs.jsonl"
        assert main(["network", "run", str(spec_file),
                     "--figures", str(figs), "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["network", "run", str(spec_file),
                     "--figures", str(figs), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert "1 hits" in captured.err
        assert captured.out == first

    def test_campaign_cli_knows_network_presets(self, capsys):
        assert main(["campaign", "run", "dumbbell_switchoff",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "18 points" in out

    def test_unknown_network_errors_cleanly(self, capsys):
        assert main(["network", "run", "nope"]) == 2
        assert "known networks" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_table_prints_a_hole_as_dashes(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [
            {"kind": "transient", "unit": 0, "attempts": [1, 2, 3]}
        ]}))
        assert main(["network", command, "fat_tree_k4", "--retries", "0",
                     "--fault-plan", str(plan)]) == 0
        captured = capsys.readouterr()
        assert "1 failures" in captured.err
        rows = {
            cells[0]: cells
            for line in captured.out.splitlines()
            if (cells := [c.strip() for c in line.split("|")[1:-1]])
        }
        assert rows["core0"] == [
            "core0", "crossbar", "4/4", "0.420", "-", "-", "0.0000", "-",
        ]
        assert "-" not in rows["core1"]
