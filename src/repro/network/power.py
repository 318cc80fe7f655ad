"""Network-level data-plane power: per-router scenarios, aggregated.

:class:`NetworkPowerModel` composes everything the per-router stack
already provides: routing derives one per-port ingress load vector per
router, each router becomes one :class:`~repro.api.Scenario`, the
scenarios execute through a shared :meth:`repro.api.PowerModel.
run_batch` (inline or a process pool, :class:`~repro.api.store.
RunRecordStore` JSONL cache), and the :class:`RunRecord` results
aggregate into one :class:`NetworkRecord` — per-node, per-link, and
total power, with deterministic CSV/JSON/markdown export mirroring
:class:`~repro.campaigns.comparison.ComparisonRecord` conventions.

The interesting network-level knob (Giroire et al.) is the **switch-off
policy**: ports that carry no routed traffic are powered down.  Fabric
power is unaffected (the same load vectors drive the same scenarios);
what changes is the per-port interface overhead ``port_power_w``, so
switching off can only ever *reduce* total power (the monotonicity
``tests/test_network.py`` pins).

A one-node network degenerates exactly to the per-router machinery: the
derived scenario of a single router with uniform access load is the
same scenario a standalone session run would use, so the
:class:`NetworkRecord` total is bit-identical to that run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.serial import (
    Spec,
    check_fields,
    check_scalars,
    csv_table,
    dumps_indented,
    markdown_table,
    parse_json,
)
from repro.tech.presets import get_technology

from repro.api.model import PowerModel, check_batch_options, default_session
from repro.api.records import RunRecord
from repro.api.scenario import Scenario, _freeze_params, _thaw_value
from repro.resilience.records import BatchReport, FailureRecord

from repro.network.routing import ROUTING_MODES, RoutingResult, route
from repro.network.topology import NetworkTopology, RouterNode
from repro.network.traffic_matrix import TrafficMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.figstore import DerivedRecordStore

#: Scenario fields a network spec derives itself and therefore rejects
#: in :attr:`NetworkSpec.base`.
_DERIVED_FIELDS = ("architecture", "ports", "load", "tech", "name")

#: Valid values of the ``detail`` retention knob (what the runtime-only
#: :attr:`NetworkRecord.detail` payload keeps after aggregation).
DETAIL_LEVELS = ("none", "summary", "full")


def shard_bounds(count: int, shards: int | None) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` shard boundaries over ``count`` items.

    Shards partition the per-router scenario list *in node order* into
    near-equal contiguous chunks (sizes differ by at most one, larger
    chunks first).  Contiguity is what makes sharded execution
    bit-identical to the monolithic path: the streaming fold consumes
    results in exactly the same node order either way, so every float
    accumulation happens in the same order.  ``shards=None`` means one
    shard (the monolithic path); empty shards are dropped.
    """
    if count < 0:
        raise ConfigurationError("shard_bounds needs a count >= 0")
    n = 1 if shards is None else shards
    if n < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards!r}")
    n = min(n, count) if count else 1
    base, rem = divmod(count, n)
    bounds = []
    start = 0
    for i in range(n):
        size = base + (1 if i < rem else 0)
        if size:
            bounds.append((start, start + size))
        start += size
    return bounds

#: Per-node CSV columns of :meth:`NetworkRecord.to_csv` (axis columns
#: first, then metrics — the ComparisonRecord convention).
NODE_COLUMNS = (
    "node",
    "architecture",
    "ports",
    "powered_ports",
    "mean_load",
    "throughput",
    "fabric_power_w",
    "switch_power_w",
    "wire_power_w",
    "buffer_power_w",
    "port_power_w",
    "power_w",
)

#: Per-link CSV columns of :meth:`NetworkRecord.links_to_csv`.
LINK_COLUMNS = (
    "src",
    "dst",
    "capacity",
    "load",
    "utilization",
    "active",
    "propagation_power_w",
    "power_w",
)


@dataclass(frozen=True)
class NetworkSpec(Spec):
    """A frozen, JSON round-trippable network experiment.

    Attributes
    ----------
    name:
        Identifier used by presets, the CLI, and derived scenario
        labels (``"<name>:<node>"``).
    topology / matrix:
        The network and its workload.
    routing:
        ``"shortest"`` (one deterministic path) or ``"ecmp"`` (equal
        split over all shortest paths).
    switch_off:
        Power down ports that carry no routed traffic (fabric power is
        unaffected; only the per-port overhead drops).
    port_power_w:
        Interface overhead per powered port in watts (line card,
        SerDes, ...).  0.0 keeps the record pure fabric power.
    propagation_j_per_bit_m:
        Per-link propagation energy in joules per bit per metre,
        multiplied by each link's ``length_m`` and carried bit rate
        (load x the endpoint technology's line rate).  The default 0.0
        is omitted from :meth:`to_dict`, so existing spec hashes and
        records are unchanged.
    grid_intensity_gco2_per_kwh:
        Carbon intensity of the electricity feeding the network, in
        grams of CO2 per kWh.  When non-zero the record totals gain a
        derived ``carbon_gco2_per_h`` rate (total power x intensity);
        the default 0.0 is omitted from :meth:`to_dict`, so existing
        spec hashes and cached figures are unchanged.
    base:
        Extra :class:`~repro.api.Scenario` fields shared by every
        derived per-router scenario (``backend``, ``traffic``,
        ``arrival_slots``, ``seed``, ...), stored as a sorted tuple of
        pairs.  Fields the network derives (architecture, ports, load,
        tech, name) are rejected.
    """

    name: str
    topology: NetworkTopology
    matrix: TrafficMatrix
    routing: str = "shortest"
    switch_off: bool = False
    port_power_w: float = 0.0
    base: tuple[tuple[str, Any], ...] = ()
    propagation_j_per_bit_m: float = 0.0
    grid_intensity_gco2_per_kwh: float = 0.0

    noun = "network-spec"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a network spec needs a name")
        check_scalars(self)
        object.__setattr__(
            self, "topology", NetworkTopology.coerce(self.topology, "topology")
        )
        object.__setattr__(
            self, "matrix", TrafficMatrix.coerce(self.matrix, "matrix")
        )
        if self.routing not in ROUTING_MODES:
            raise ConfigurationError(
                f"routing must be one of {ROUTING_MODES}, got "
                f"{self.routing!r}"
            )
        if self.port_power_w < 0.0:
            raise ConfigurationError("port_power_w must be >= 0")
        if self.propagation_j_per_bit_m < 0.0:
            raise ConfigurationError("propagation_j_per_bit_m must be >= 0")
        if self.grid_intensity_gco2_per_kwh < 0.0:
            raise ConfigurationError(
                "grid_intensity_gco2_per_kwh must be >= 0"
            )
        base = dict(_freeze_params(self.base))
        object.__setattr__(self, "base", _freeze_params(base))
        bad = set(base) & set(_DERIVED_FIELDS)
        if bad:
            raise ConfigurationError(
                f"base may not set derived scenario fields {sorted(bad)}; "
                "they come from the topology/routing"
            )
        unknown = set(base) - {f.name for f in fields(Scenario)}
        if unknown:
            raise ConfigurationError(
                f"unknown scenario fields in base: {sorted(unknown)}"
            )
        if base.get("traffic") == "trace":
            raise ConfigurationError(
                "network scenarios cannot use trace traffic (loads are "
                "derived from routing, not scripted)"
            )
        unknown_nodes = [
            n for n in self.matrix.nodes()
            if n not in set(self.topology.node_names)
        ]
        if unknown_nodes:
            raise ConfigurationError(
                f"traffic matrix names unknown nodes: {unknown_nodes}"
            )

    @property
    def base_dict(self) -> dict[str, Any]:
        return {k: _thaw_value(v) for k, v in self.base}

    def scaled(self, factor: float) -> "NetworkSpec":
        """A copy with every demand multiplied by ``factor``."""
        return self.replace(matrix=self.matrix.scaled(factor))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it exactly."""
        out = {
            "name": self.name,
            "topology": self.topology.to_dict(),
            "matrix": self.matrix.to_dict(),
            "routing": self.routing,
            "switch_off": self.switch_off,
            "port_power_w": self.port_power_w,
            "base": self.base_dict,
        }
        if self.propagation_j_per_bit_m:
            out["propagation_j_per_bit_m"] = self.propagation_j_per_bit_m
        if self.grid_intensity_gco2_per_kwh:
            out["grid_intensity_gco2_per_kwh"] = (
                self.grid_intensity_gco2_per_kwh
            )
        return out


@dataclass
class NetworkRecord:
    """Aggregate result of one executed network spec.

    Attributes
    ----------
    spec:
        The network spec that produced the record.
    nodes / links:
        One dict per router / per directed link (see
        :data:`NODE_COLUMNS` / :data:`LINK_COLUMNS`).
    totals:
        Network-wide aggregates: ``power_w`` (fabric + port overhead),
        ``fabric_power_w``, ``port_power_w``, ``switch_off_delta_w``
        (overhead saved by the switch-off policy vs powering every
        port), port counts, link-utilization stats, total demand.
    detail:
        Runtime-only payload (not serialised): ``{"records": {node:
        RunRecord}, "routing": RoutingResult}``; ``None`` after a JSON
        round-trip.
    failures:
        :class:`~repro.resilience.records.FailureRecord` list for
        routers whose scenario the supervisor gave up on
        (``on_failure="record"``).  Their node rows carry ``None``
        fabric metrics and the totals cover only completed routers —
        explicit holes, never silently shrunk aggregates presented as
        complete.  Empty on a clean run and omitted from the JSON form,
        so clean exports (and old cached records) are unchanged.
    """

    spec: NetworkSpec
    nodes: list[dict[str, Any]] = field(default_factory=list)
    links: list[dict[str, Any]] = field(default_factory=list)
    totals: dict[str, Any] = field(default_factory=dict)
    detail: Any = None
    failures: list[FailureRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def node(self, name: str) -> dict[str, Any]:
        for row in self.nodes:
            if row["node"] == name:
                return row
        raise ConfigurationError(f"no node {name!r} in the record")

    @property
    def total_power_w(self) -> float:
        return self.totals["power_w"]

    # ------------------------------------------------------------------
    # Export (deterministic: floats at full repr precision)
    # ------------------------------------------------------------------

    def to_csv(self) -> str:
        """Per-node CSV (axis column ``node`` first, then metrics)."""
        return csv_table(NODE_COLUMNS, self.nodes)

    def links_to_csv(self) -> str:
        """Per-link CSV."""
        return csv_table(LINK_COLUMNS, self.links)

    def to_markdown(self, float_format: str = "{:.6g}") -> str:
        """A GitHub-flavoured pipe table of the node rows plus totals."""
        return (
            markdown_table(NODE_COLUMNS, self.nodes, float_format)
            + "\n\n"
            f"**Total**: {float_format.format(self.totals['power_w'])} W "
            f"(fabric {float_format.format(self.totals['fabric_power_w'])}, "
            f"ports {float_format.format(self.totals['port_power_w'])}; "
            "switch-off saved "
            f"{float_format.format(self.totals['switch_off_delta_w'])})"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it (minus
        :attr:`detail`).  ``failures`` appears only when nonempty so
        clean exports are byte-identical to pre-resilience ones."""
        out = {
            "spec": self.spec.to_dict(),
            "nodes": [dict(row) for row in self.nodes],
            "links": [dict(row) for row in self.links],
            "totals": dict(self.totals),
        }
        if self.failures:
            out["failures"] = [f.to_dict() for f in self.failures]
        return out

    def to_json(self) -> str:
        return dumps_indented(self.to_dict())

    @classmethod
    def from_dict(cls, data: Any) -> "NetworkRecord":
        data = check_fields(data, "network-record",
                            ("spec", "nodes", "links", "totals"),
                            ("failures",))
        return cls(
            spec=NetworkSpec.from_dict(data["spec"]),
            nodes=[dict(row) for row in data["nodes"]],
            links=[dict(row) for row in data["links"]],
            totals=dict(data["totals"]),
            failures=[
                FailureRecord.from_dict(f) for f in data.get("failures", ())
            ],
        )

    @classmethod
    def from_json(cls, text: str) -> "NetworkRecord":
        return cls.from_dict(parse_json(text, "network-record"))


class NetworkPowerModel:
    """Runs network specs by driving a shared per-router session.

    >>> from repro.network import NetworkPowerModel, presets
    >>> model = NetworkPowerModel()
    >>> record = model.run(presets.get_network("dumbbell_switchoff"))
    ... # doctest: +SKIP

    The session (and therefore every cached wire model, LUT and buffer
    model) is shared across runs; pass ``store=`` to also share the
    scenario-level JSONL cache and ``figures=`` to cache whole
    :class:`NetworkRecord` results keyed by spec content hash.
    """

    def __init__(self, session: PowerModel | None = None) -> None:
        self.session = session if session is not None else default_session()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def route(self, spec: NetworkSpec) -> RoutingResult:
        """Route the spec's matrix over its topology."""
        return route(spec.topology, spec.matrix, mode=spec.routing)

    def node_scenario(
        self, spec: NetworkSpec, node: RouterNode, loads: tuple[float, ...]
    ) -> Scenario:
        """The per-router scenario of one node given its port loads.

        The scenario carries no ``name`` and a uniform load vector
        collapses to the scalar spelling, so the derived scenario of a
        uniformly loaded router is *identical* (content hash included)
        to the standalone scenario a session user would write —
        network runs share :class:`~repro.api.store.RunRecordStore`
        entries with standalone runs, and identically configured
        routers within one network share one cache entry and one run
        (a batch runs each distinct scenario once).  The analytical
        backend gets the scalar mean (it models one uniform load by
        construction).

        One exception to the scalar collapse: a fully idle router under
        ``bursty`` traffic keeps the vector spelling, because the
        bursty *scalar* contract rejects load 0 (historical bit-stable
        path) while the per-port calibration simply never turns an idle
        port on.
        """
        base = spec.base_dict
        backend = base.get("backend", "simulate")
        load: Any
        if len(set(loads)) == 1:
            load = loads[0]
            if load == 0.0 and base.get("traffic") == "bursty":
                load = list(loads)
        elif backend == "estimate":
            load = sum(loads) / len(loads)
        else:
            load = list(loads)
        return Scenario(
            architecture=node.architecture,
            ports=node.ports,
            load=load,
            tech=node.tech,
            **base,
        )

    def scenarios(
        self, spec: NetworkSpec, routing: RoutingResult | None = None
    ) -> list[tuple[str, Scenario]]:
        """One (node name, scenario) pair per router, in node order."""
        if routing is None:
            routing = self.route(spec)
        return [
            (
                node.name,
                self.node_scenario(
                    spec, node, routing.ingress_loads[node.name]
                ),
            )
            for node in spec.topology.nodes
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        spec: NetworkSpec,
        *,
        figures: "DerivedRecordStore | None" = None,
        shards: int | None = None,
        detail: str = "full",
        **batch: Any,
    ) -> NetworkRecord:
        """Execute the spec into a :class:`NetworkRecord`.

        ``**batch`` goes unchanged to
        :meth:`repro.api.PowerModel.run_batch`.  ``figures``
        short-circuits the whole run when the spec's content hash is
        already in the derived-figure store.  A record with failures
        (explicit holes) is never figure-cached — a later clean run must
        not be served the holes.  ``shards`` / ``detail`` stream the
        aggregation (see :meth:`run_routed`); neither affects the
        exported record, so every setting of them shares one
        figure-store entry.
        """
        check_batch_options("NetworkPowerModel.run", batch)
        if figures is not None:
            cached = figures.get(spec.content_hash(), "network")
            if cached is not None:
                return NetworkRecord.from_dict(cached)
        record = self.run_routed(
            spec, self.route(spec), shards=shards, detail=detail, **batch
        )
        if figures is not None and not record.failures:
            figures.put(spec.content_hash(), "network", record.to_dict())
        return record

    def run_routed(
        self,
        spec: NetworkSpec,
        routing: RoutingResult,
        *,
        shards: int | None = None,
        detail: str = "full",
        **batch: Any,
    ) -> NetworkRecord:
        """Execute the spec under an externally supplied routing.

        The energy-aware control plane (:mod:`repro.control`) routes on
        a pruned topology, projects the link loads back onto the full
        port map, and evaluates the result here — same per-router
        scenarios, same ``run_batch`` caches, no figure-store entry
        (the routing is not derivable from the spec alone).  ``**batch``
        goes unchanged to :meth:`repro.api.PowerModel.run_batch`, with a
        fresh ``report`` when none is given, from which each shard's
        failures are read.

        ``shards`` partitions the per-router scenario grid into that
        many contiguous node-order chunks, each executed as its own
        :meth:`~repro.api.PowerModel.run_batch` call and folded into
        the record incrementally (:class:`_NetworkFold`), so peak
        memory stays bounded by the largest shard rather than the
        topology size.  Exports are bit-identical to the monolithic
        path by construction.  Note that :class:`FaultPlan` unit
        indices are per ``run_batch`` call, so under sharding a fault
        at unit 0 targets the first execution unit of *every* shard.

        ``detail`` controls what the runtime-only
        :attr:`NetworkRecord.detail` payload retains: ``"full"`` (the
        default, today's behavior) keeps every per-router
        :class:`RunRecord` plus the routing; ``"summary"`` keeps only
        the routing; ``"none"`` keeps nothing — the knob that lets a
        1000-router streamed run drop each shard's records as soon as
        they are folded.
        """
        pairs = self.scenarios(spec, routing)
        fold = _NetworkFold(spec, routing, detail=detail)
        if batch.get("report") is None:
            batch["report"] = BatchReport()
        report = batch["report"]
        nodes = spec.topology.nodes
        for start, stop in shard_bounds(len(pairs), shards):
            before = len(report.failures)
            records = self.session.run_batch(
                [scenario for _, scenario in pairs[start:stop]], **batch
            )
            for node, rec in zip(nodes[start:stop], records):
                fold.add(node, rec)
            fold.add_failures(report.failures[before:])
        return fold.finish()


class _NetworkFold:
    """Streaming aggregation of per-router results into one record.

    Both the monolithic and the sharded execution paths push their
    :class:`RunRecord` results through this fold in topology node
    order, so every float accumulation (fabric/port totals, node rows)
    happens in exactly the same order — byte-identical exports are a
    property of the fold, not of the sharding.  Per-router
    records are retained only under ``detail="full"``; otherwise each
    record is dropped as soon as its row is folded, which is what keeps
    a streamed 1000-router run's peak memory bounded.
    """

    def __init__(
        self,
        spec: NetworkSpec,
        routing: RoutingResult,
        detail: str = "full",
    ) -> None:
        if detail not in DETAIL_LEVELS:
            raise ConfigurationError(
                f"detail must be one of {DETAIL_LEVELS}, got {detail!r}"
            )
        self.spec = spec
        self.routing = routing
        self.detail = detail
        self.node_rows: list[dict[str, Any]] = []
        self.fabric_total = 0.0
        self.port_total = 0.0
        self.powered_total = 0
        self.by_node: dict[str, "RunRecord | None"] | None = (
            {} if detail == "full" else None
        )
        self.failures: list[FailureRecord] = []

    def add(self, node: RouterNode, rec: "RunRecord | None") -> None:
        """Fold one router's result (``None`` = supervisor-recorded
        failure: an explicit hole — the row keeps its topology-derived
        columns, fabric metrics stay None, and the totals cover only
        completed routers; the failures list says which)."""
        spec, routing = self.spec, self.routing
        active = routing.active_ports[node.name]
        powered = sum(active) if spec.switch_off else node.ports
        port_power = powered * spec.port_power_w
        loads = routing.ingress_loads[node.name]
        if rec is None:
            self.node_rows.append(
                {
                    "node": node.name,
                    "architecture": node.architecture,
                    "ports": node.ports,
                    "powered_ports": powered,
                    "mean_load": sum(loads) / len(loads),
                    "throughput": None,
                    "fabric_power_w": None,
                    "switch_power_w": None,
                    "wire_power_w": None,
                    "buffer_power_w": None,
                    "port_power_w": port_power,
                    "power_w": None,
                }
            )
        else:
            self.node_rows.append(
                {
                    "node": node.name,
                    "architecture": node.architecture,
                    "ports": node.ports,
                    "powered_ports": powered,
                    "mean_load": sum(loads) / len(loads),
                    "throughput": rec.throughput,
                    "fabric_power_w": rec.total_power_w,
                    "switch_power_w": rec.switch_power_w,
                    "wire_power_w": rec.wire_power_w,
                    "buffer_power_w": rec.buffer_power_w,
                    "port_power_w": port_power,
                    "power_w": rec.total_power_w + port_power,
                }
            )
            self.fabric_total += rec.total_power_w
        self.port_total += port_power
        self.powered_total += powered
        if self.by_node is not None:
            self.by_node[node.name] = rec

    def add_failures(self, failures: list[FailureRecord]) -> None:
        self.failures.extend(failures)

    def finish(self) -> NetworkRecord:
        spec, routing = self.spec, self.routing
        # Per-link rows: interface power of the cable's endpoint ports,
        # split across the directed links sharing the cable so link
        # powers sum without double counting, plus the directed link's
        # own propagation power (load x line rate x J/bit/m x length).
        directions: dict[frozenset, int] = {}
        for link in spec.topology.links:
            cable = frozenset((link.src, link.dst))
            directions[cable] = directions.get(cable, 0) + 1
        port_map = spec.topology.port_map()
        link_rows = []
        propagation_total = 0.0
        for row in routing.link_rows():
            src, dst = row["src"], row["dst"]
            endpoints = 0
            for a, b in ((src, dst), (dst, src)):
                port = port_map[a].peers[b]
                if not spec.switch_off or routing.active_ports[a][port]:
                    endpoints += 1
            share = directions[frozenset((src, dst))]
            propagation = 0.0
            if spec.propagation_j_per_bit_m:
                length = spec.topology.link(src, dst).length_m
                if length:
                    line_rate = get_technology(
                        spec.topology.node(src).tech
                    ).line_rate_bps
                    propagation = (
                        row["load"]
                        * line_rate
                        * spec.propagation_j_per_bit_m
                        * length
                    )
            propagation_total += propagation
            link_rows.append(
                {
                    **row,
                    "propagation_power_w": propagation,
                    "power_w": (
                        endpoints * spec.port_power_w / share + propagation
                    ),
                }
            )
        total_ports = sum(n.ports for n in spec.topology.nodes)
        idle_ports = routing.idle_port_count()
        delta = (
            idle_ports * spec.port_power_w if spec.switch_off else 0.0
        )
        utils = [row["utilization"] for row in link_rows]
        totals = {
            "power_w": (
                self.fabric_total + self.port_total + propagation_total
            ),
            "fabric_power_w": self.fabric_total,
            "port_power_w": self.port_total,
            "propagation_power_w": propagation_total,
            "switch_off_delta_w": delta,
            "nodes": len(self.node_rows),
            "links": len(link_rows),
            "total_ports": total_ports,
            "powered_ports": self.powered_total,
            "idle_ports": idle_ports,
            "total_demand": spec.matrix.total(),
            "total_link_load": routing.total_link_load,
            "mean_link_utilization": (
                sum(utils) / len(utils) if utils else 0.0
            ),
            "max_link_utilization": max(utils) if utils else 0.0,
        }
        if spec.grid_intensity_gco2_per_kwh:
            # W -> kW x gCO2/kWh = gCO2/h; only emitted when an
            # intensity is configured, so existing exports are
            # unchanged byte for byte.
            totals["carbon_gco2_per_h"] = (
                totals["power_w"] / 1000.0
                * spec.grid_intensity_gco2_per_kwh
            )
        if self.detail == "full":
            detail_payload: Any = {
                "records": self.by_node,
                "routing": routing,
            }
        elif self.detail == "summary":
            detail_payload = {"routing": routing}
        else:
            detail_payload = None
        return NetworkRecord(
            spec=spec,
            nodes=self.node_rows,
            links=link_rows,
            totals=totals,
            detail=detail_payload,
            failures=self.failures,
        )


def run_network(
    spec: "NetworkSpec | str",
    session: PowerModel | None = None,
    *,
    figures: "DerivedRecordStore | None" = None,
    scale: float = 1.0,
    shards: int | None = None,
    detail: str = "full",
    **batch: Any,
) -> NetworkRecord:
    """Execute a network spec (or preset name) into a record.

    ``scale`` multiplies every demand before running (the load-sweep
    knob network campaigns use); the scaled spec hashes differently, so
    cached figures per scale never collide.  ``**batch`` goes unchanged
    to :meth:`repro.api.PowerModel.run_batch`.  ``shards``/``detail``
    stream the aggregation without changing any exported byte (see
    :meth:`NetworkPowerModel.run_routed`).
    """
    if isinstance(spec, str):
        from repro.network.presets import get_network

        spec = get_network(spec)
    if scale != 1.0:
        spec = spec.scaled(scale)
    return NetworkPowerModel(session).run(
        spec, figures=figures, shards=shards, detail=detail, **batch
    )


def render_network_report(record: NetworkRecord) -> str:
    """Human-readable report: node table, link table, totals."""
    from repro.analysis.report import format_table
    from repro.units import to_mW

    spec = record.spec
    header = (
        f"network {spec.name}: {len(record.nodes)} routers, "
        f"{len(record.links)} links, routing={spec.routing}, "
        f"switch_off={'on' if spec.switch_off else 'off'}"
    )
    node_rows = [
        [
            row["node"],
            row["architecture"],
            f"{row['powered_ports']}/{row['ports']}",
            f"{row['mean_load']:.3f}",
            f"{row['throughput']:.3f}",
            f"{to_mW(row['fabric_power_w']):.4f}",
            f"{to_mW(row['port_power_w']):.4f}",
            f"{to_mW(row['power_w']):.4f}",
        ]
        for row in record.nodes
    ]
    sections = [
        format_table(
            ["node", "arch", "ports", "load", "throughput", "fabric mW",
             "ports mW", "total mW"],
            node_rows,
            title="per-router power",
        )
    ]
    if record.links:
        link_rows = [
            [
                f"{row['src']}->{row['dst']}",
                f"{row['capacity']:.2f}",
                f"{row['load']:.3f}",
                f"{row['utilization']:.1%}",
                "yes" if row["active"] else "idle",
            ]
            for row in record.links
        ]
        sections.append(
            format_table(
                ["link", "capacity", "load", "utilization", "active"],
                link_rows,
                title="per-link load",
            )
        )
    totals = record.totals
    sections.append(
        f"total: {to_mW(totals['power_w']):.4f} mW "
        f"(fabric {to_mW(totals['fabric_power_w']):.4f} mW, "
        f"ports {to_mW(totals['port_power_w']):.4f} mW) | "
        f"powered ports {totals['powered_ports']}/{totals['total_ports']} | "
        f"switch-off saved {to_mW(totals['switch_off_delta_w']):.4f} mW | "
        f"max link utilization {totals['max_link_utilization']:.1%}"
    )
    return "\n\n".join([header] + sections)
