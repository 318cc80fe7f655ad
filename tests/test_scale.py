"""Scale suite: network runs at 80 to 1000 routers.

The scale tier (the ``fat_tree(k)``/``isp`` generators and the k=8,
k=16 and ISP presets) runs every router of a network as one batch and
aggregates the records in node order.  This suite locks it down:

* **Conservation properties** — over ~50 seeded random topologies and
  random feasible matrices, ``sum(link loads) == sum(demand x hops)``
  for shortest-path and ECMP routing, and infeasible matrices always
  raise.
* **Resilience at scale** — injected faults surface as explicit holes
  on the record (``FaultPlan`` unit ``i`` is the ``i``-th router), and
  retries and a journal resume converge to byte-identical fault-free
  exports.
* **Bounded memory** — a 1000-router run stays under a fixed
  tracemalloc peak (tracemalloc rather than RSS: deterministic,
  allocator- and platform-independent).

The ``full_presets`` and ``preset_exports`` golden keys pin every
preset's exports.
"""

import json
import math
import random
import tracemalloc

import pytest

from repro.api.model import PowerModel
from repro.errors import ConfigurationError
from repro.network import (
    Demand,
    GENERATORS,
    NetworkPowerModel,
    NetworkSpec,
    TrafficMatrix,
    edge_nodes,
    fat_tree,
    get_network,
    isp,
    line,
    mesh,
    network_names,
    route,
    single,
    star,
)
from repro.resilience import (
    BatchReport,
    CampaignJournal,
    Fault,
    FaultPlan,
    RetryPolicy,
)

#: Fast measurement window for specs built inside tests.
FAST_BASE = dict(arrival_slots=80, warmup_slots=10, seed=7)

#: Analytical backend: the closed form keeps 1000-router runs instant.
SCALE_BASE = dict(FAST_BASE, backend="estimate")


def exports(record):
    """Every deterministic export surface of a record, as bytes."""
    return (
        record.to_json().encode(),
        record.to_csv().encode(),
        record.links_to_csv().encode(),
    )


def ring_spec(
    topology, demand: float, name: str, base=None, **overrides
) -> NetworkSpec:
    """A sparse O(n) cyclic matrix over the topology's edge nodes."""
    endpoints = edge_nodes(topology)
    n = len(endpoints)
    matrix = TrafficMatrix(
        tuple(
            Demand(endpoints[i], endpoints[(i + 1) % n], demand)
            for i in range(n)
        ),
        name="ring",
    )
    return NetworkSpec(
        name=name,
        topology=topology,
        matrix=matrix,
        base=base if base is not None else SCALE_BASE,
        **overrides,
    )


def distinct_line_spec(n: int = 12) -> NetworkSpec:
    """A line network whose per-router scenarios are all distinct
    (distinct load vectors), so execution units map 1:1 onto routers
    and fault unit indices are predictable."""
    topology = line(n, access_ports=2)
    demands = tuple(
        Demand(f"r{i}", f"r{n - 1 - i}", 0.05 + 0.013 * i)
        for i in range(n // 2)
    )
    return NetworkSpec(
        name=f"line{n}_distinct",
        topology=topology,
        matrix=TrafficMatrix(demands, name="distinct"),
        base=SCALE_BASE,
    )


# ----------------------------------------------------------------------
# Property-based routing conservation
# ----------------------------------------------------------------------


def random_topology(rng: random.Random):
    """A seeded random topology from a mix of generators, with random
    link capacities."""
    capacity = round(rng.uniform(0.3, 1.0), 3)
    shape = rng.randrange(5)
    if shape == 0:
        return line(rng.randrange(3, 10), access_ports=rng.randrange(1, 3),
                    capacity=capacity)
    if shape == 1:
        return star(rng.randrange(3, 9), capacity=capacity)
    if shape == 2:
        return mesh(rng.randrange(3, 6), capacity=capacity)
    if shape == 3:
        return fat_tree(rng.choice((4, 6)), capacity=capacity)
    return isp(
        rng.randrange(10, 40),
        seed=rng.randrange(10_000),
        capacity=capacity,
        core_capacity=capacity,
    )


def random_feasible_matrix(rng: random.Random, topology) -> TrafficMatrix:
    """Random demands whose *total* stays below the smallest link
    capacity — feasible on any connected topology by construction
    (no link, and no access-port group, can carry more than the total).
    """
    endpoints = edge_nodes(topology)
    min_capacity = min(
        (link.capacity for link in topology.links), default=1.0
    )
    count = rng.randrange(1, min(6, len(endpoints) + 1))
    budget = 0.9 * min_capacity / count
    demands = {}
    for _ in range(count):
        src = rng.choice(endpoints)
        dst = rng.choice(endpoints)
        demands[(src, dst)] = round(budget * rng.uniform(0.2, 1.0), 6)
    return TrafficMatrix(
        tuple(
            Demand(src, dst, cells)
            for (src, dst), cells in sorted(demands.items())
        ),
        name="random",
    )


CONSERVATION_SEEDS = list(range(50))


class TestRoutingConservation:
    @pytest.mark.parametrize("seed", CONSERVATION_SEEDS)
    def test_link_load_equals_demand_times_hops(self, seed):
        rng = random.Random(seed)
        topology = random_topology(rng)
        matrix = random_feasible_matrix(rng, topology)
        for mode in ("shortest", "ecmp"):
            result = route(topology, matrix, mode=mode)
            expected = sum(
                d.cells_per_slot * result.demand_hops[(d.src, d.dst)]
                for d in matrix.demands
            )
            assert math.isclose(
                result.total_link_load, expected,
                rel_tol=1e-9, abs_tol=1e-9,
            ), f"mode={mode}"

    @pytest.mark.parametrize("seed", CONSERVATION_SEEDS[::5])
    def test_infeasible_matrices_always_raise(self, seed):
        rng = random.Random(seed + 9000)
        topology = random_topology(rng)
        matrix = random_feasible_matrix(rng, topology)
        overloaded = matrix.scaled(1e6)
        for mode in ("shortest", "ecmp"):
            with pytest.raises(ConfigurationError):
                route(topology, matrix=overloaded, mode=mode)

    @pytest.mark.parametrize("seed", CONSERVATION_SEEDS[::10])
    def test_sharded_run_preserves_conservation(self, seed):
        """The end-to-end invariant: a run's record totals carry the
        same conserved link load the router would compute."""
        rng = random.Random(seed + 4000)
        topology = random_topology(rng)
        matrix = random_feasible_matrix(rng, topology)
        spec = NetworkSpec(
            name=f"prop{seed}",
            topology=topology,
            matrix=matrix,
            base=SCALE_BASE,
        )
        record = NetworkPowerModel(PowerModel()).run(spec)
        routing = route(topology, matrix)
        assert record.totals["total_link_load"] == routing.total_link_load


# ----------------------------------------------------------------------
# Resilience at scale
# ----------------------------------------------------------------------

#: One-shot supervision: no retries, failures become explicit holes.
RECORD_HOLES = RetryPolicy(
    max_attempts=1, backoff_s=0.001, on_failure="record"
)

#: Real retries with negligible backoff.
RETRY_FAST = RetryPolicy(max_attempts=3, backoff_s=0.001)


class TestResilienceStreaming:
    def run_k8(self, **kwargs):
        spec = get_network("fat_tree_k8")
        return NetworkPowerModel(PowerModel()).run(
            spec, **kwargs
        )

    def test_fault_holes_surface_on_sharded_record(self):
        """All the routers run as one batch, so FaultPlan unit 0 is the
        first router and leaves exactly one hole."""
        clean = self.run_k8()
        faulty = self.run_k8(
            retry=RECORD_HOLES,
            faults=FaultPlan(faults=(Fault("transient", 0),)),
        )
        assert len(faulty.failures) == 1
        holes = [r["node"] for r in faulty.nodes if r["power_w"] is None]
        assert holes == [faulty.spec.topology.nodes[0].name]
        assert faulty.totals["power_w"] < clean.totals["power_w"]
        payload = json.loads(faulty.to_json())
        assert payload["failures"]  # holes are exported, never hidden

    def test_transient_fault_retries_to_byte_identical(self):
        clean = self.run_k8()
        recovered = self.run_k8(
            retry=RETRY_FAST,
            faults=FaultPlan(faults=(Fault("transient", 2),)),
        )
        assert not recovered.failures
        assert exports(recovered) == exports(clean)

    def test_crash_fault_retries_to_byte_identical(self):
        clean = self.run_k8()
        recovered = self.run_k8(
            retry=RETRY_FAST,
            faults=FaultPlan(faults=(Fault("crash", 1),)),
        )
        assert not recovered.failures
        assert exports(recovered) == exports(clean)

    def test_hang_fault_times_out_and_recovers(self):
        spec = distinct_line_spec(8)

        def run(**kwargs):
            return NetworkPowerModel(PowerModel()).run(
                spec, **kwargs
            )

        clean = run()
        recovered = run(
            retry=RETRY_FAST.replace(timeout_s=0.25),
            faults=FaultPlan(
                faults=(Fault("hang", 0, attempts=(1,), hang_s=1.5),)
            ),
        )
        assert not recovered.failures
        assert exports(recovered) == exports(clean)

    def test_resume_from_journal_is_byte_identical(self, tmp_path):
        spec = get_network("fat_tree_k8")
        key = spec.content_hash()
        path = tmp_path / "journal.jsonl"

        def run(journal, **kwargs):
            return NetworkPowerModel(PowerModel()).run(
                spec, journal=journal, **kwargs
            )

        clean = NetworkPowerModel(PowerModel()).run(spec)
        faulty = run(
            CampaignJournal(path, key),
            retry=RECORD_HOLES,
            faults=FaultPlan(
                faults=(Fault("transient", 0), Fault("transient", 3))
            ),
        )
        assert faulty.failures
        assert exports(faulty) != exports(clean)
        # --resume: replay the journal, no faults — the holes heal and
        # the exports converge to the fault-free bytes.
        report = BatchReport()
        resumed = run(
            CampaignJournal(path, key, replay=True), report=report
        )
        assert not resumed.failures
        assert report.replayed > 0
        assert exports(resumed) == exports(clean)

    def test_journal_replay_counts_as_replayed_not_rerun(self, tmp_path):
        spec = distinct_line_spec(10)
        key = spec.content_hash()
        path = tmp_path / "journal.jsonl"
        NetworkPowerModel(PowerModel()).run(
            spec, journal=CampaignJournal(path, key)
        )
        report = BatchReport()
        NetworkPowerModel(PowerModel()).run(
            spec,
            journal=CampaignJournal(path, key, replay=True),
            report=report,
        )
        assert report.replayed == len(spec.topology.nodes)


# ----------------------------------------------------------------------
# Bounded memory
# ----------------------------------------------------------------------


class TestBoundedMemory:
    #: tracemalloc peak bound for a 1000-router run.  Measured ~3.5 MB;
    #: the bound leaves ~10x headroom while still catching any O(n^2)
    #: aggregation regression or a record leak (a distinct RunRecord
    #: per router of a simulate-backend fabric would blow past it).
    PEAK_BOUND_BYTES = 48 * 1024 * 1024

    def isp1000(self):
        return ring_spec(
            isp(1000, seed=11), demand=0.005, name="isp1000_ring"
        )

    def test_streamed_1000_router_run_stays_bounded(self):
        spec = self.isp1000()
        model = NetworkPowerModel(PowerModel())
        tracemalloc.start()
        try:
            record = model.run(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.totals["nodes"] == 1000
        # The bound holds with every router's record kept in detail.
        assert set(record.detail) == {"records", "routing"}
        assert len(record.detail["records"]) == 1000
        assert peak < self.PEAK_BOUND_BYTES, f"peak {peak} bytes"

# ----------------------------------------------------------------------
# The isp generator
# ----------------------------------------------------------------------


class TestIspGenerator:
    def test_deterministic_in_seed(self):
        assert isp(60, seed=3).content_hash() == isp(60, seed=3).content_hash()
        assert isp(60, seed=3).content_hash() != isp(60, seed=4).content_hash()

    def test_connected(self):
        topology = isp(150, seed=5)
        adj = topology.out_neighbors()
        start = topology.nodes[0].name
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for peer in adj[node]:
                if peer not in seen:
                    seen.add(peer)
                    stack.append(peer)
        assert len(seen) == len(topology.nodes)

    def test_two_tiers_and_access_ports(self):
        topology = isp(100, seed=9, core_fraction=0.1)
        cores = [n for n in topology.node_names if n.startswith("core")]
        edges = [n for n in topology.node_names if n.startswith("edge")]
        assert len(cores) == 10 and len(edges) == 90
        port_map = topology.port_map()
        assert all(not port_map[c].access_ports for c in cores)
        assert set(edge_nodes(topology)) == set(edges)

    def test_cable_count_tracks_degree_target(self):
        topology = isp(400, seed=2, degree=3.0)
        cables = len(topology.links) // 2
        assert cables >= 399  # at least the spanning tree
        assert cables <= 400 * 3.0  # bounded by the attempt budget

    def test_registered_generator(self):
        assert GENERATORS["isp"] is isp

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least 2"):
            isp(1)
        with pytest.raises(ConfigurationError, match="degree"):
            isp(10, degree=1.0)
        with pytest.raises(ConfigurationError, match="core_fraction"):
            isp(10, core_fraction=1.0)
        with pytest.raises(ConfigurationError, match="access"):
            isp(10, access_ports=0)


# ----------------------------------------------------------------------
# fat_tree at arbitrary even k
# ----------------------------------------------------------------------


class TestFatTreeScale:
    @pytest.mark.parametrize(
        "k,switches", [(4, 20), (8, 80), (16, 320)]
    )
    def test_switch_count(self, k, switches):
        topology = fat_tree(k)
        assert len(topology.nodes) == switches
        assert all(node.ports == k for node in topology.nodes)
        # k/2 access ports per edge switch, none elsewhere.
        port_map = topology.port_map()
        for name in topology.node_names:
            expected = k // 2 if name.startswith("edge") else 0
            assert len(port_map[name].access_ports) == expected

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigurationError, match="even"):
            fat_tree(5)

    def test_lookup_index_matches_linear_scan(self):
        topology = fat_tree(8)
        assert topology.node("core3") is topology.nodes[3]
        link = topology.link("agg0_0", "edge0_1")
        assert (link.src, link.dst) == ("agg0_0", "edge0_1")
        with pytest.raises(ConfigurationError, match="unknown node"):
            topology.node("agg9_9")
        with pytest.raises(ConfigurationError, match="no link"):
            topology.link("core0", "core1")

    def test_index_caches_stay_out_of_serialisation(self):
        topology = fat_tree(4)
        before = topology.content_hash()
        topology.node("core0")
        topology.link("agg0_0", "edge0_0")
        topology.port_map()
        assert topology.content_hash() == before
        assert "_node_index_cache" not in topology.to_dict()
        again = type(topology).from_json(topology.to_json())
        assert again.content_hash() == before


# ----------------------------------------------------------------------
# Scale presets
# ----------------------------------------------------------------------


class TestScalePresets:
    def test_registered(self):
        for name in ("fat_tree_k8", "fat_tree_k16", "isp200_ring"):
            assert name in network_names()

    @pytest.mark.parametrize(
        "name,routers", [("fat_tree_k8", 80), ("fat_tree_k16", 320),
                         ("isp200_ring", 200)]
    )
    def test_preset_shape_and_feasibility(self, name, routers):
        spec = get_network(name)
        assert len(spec.topology.nodes) == routers
        assert spec.base_dict["backend"] == "estimate"
        routing = NetworkPowerModel(PowerModel()).route(spec)
        assert max(
            row["utilization"] for row in routing.link_rows()
        ) <= 1.0

    def test_k16_completes_sharded(self):
        spec = get_network("fat_tree_k16")
        record = NetworkPowerModel(PowerModel()).run(spec)
        assert record.totals["nodes"] == 320
        assert not record.failures
        assert record.totals["power_w"] > 0.0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestScaleCli:
    @pytest.mark.parametrize(
        "flag", [["--shards", "2"], ["--detail", "none"]],
        ids=["shards", "detail"],
    )
    def test_network_run_refuses_shards_and_detail(self, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["network", "run", "dumbbell_switchoff", *flag])
        assert exc.value.code == 2

    def test_dry_run_reports_router_count(self, capsys):
        from repro.cli import main

        assert main(["network", "run", "fat_tree_k8", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "80 routers" in out

    @pytest.mark.parametrize(
        "param", [("shards", 2), ("detail", "none")], ids=["shards", "detail"]
    )
    def test_campaign_params_refuse_shards_and_detail(self, param):
        from repro.campaigns import Campaign

        with pytest.raises(ConfigurationError, match="unknown network"):
            Campaign(
                name="scaled",
                kind="network",
                params=(("network", "dumbbell_switchoff"), param),
            )
