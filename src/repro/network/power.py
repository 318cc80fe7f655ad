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
        entries with standalone runs.  :meth:`scenarios` calls it once
        per distinct router; identically configured routers share that
        instance, one cache entry and one run.  The analytical
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
        """One (node name, scenario) pair per router, in node order;
        routers with equal (architecture, ports, tech, ingress loads)
        share one :class:`Scenario`, so it is built and hashed once."""
        if routing is None:
            routing = self.route(spec)
        built: dict[tuple, Scenario] = {}
        pairs = []
        for node in spec.topology.nodes:
            loads = routing.ingress_loads[node.name]
            key = (node.architecture, node.ports, node.tech, loads)
            if key not in built:
                built[key] = self.node_scenario(spec, node, loads)
            pairs.append((node.name, built[key]))
        return pairs

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        spec: NetworkSpec,
        *,
        figures: "DerivedRecordStore | None" = None,
        **batch: Any,
    ) -> NetworkRecord:
        """Execute the spec into a :class:`NetworkRecord`.

        ``**batch`` goes unchanged to
        :meth:`repro.api.PowerModel.run_batch`.  ``figures``
        short-circuits the whole run when the spec's content hash is
        already in the derived-figure store.  A record with failures
        (explicit holes) is never figure-cached — a later clean run must
        not be served the holes.
        """
        check_batch_options("NetworkPowerModel.run", batch)
        if figures is not None:
            cached = figures.get(spec.content_hash(), "network")
            if cached is not None:
                return NetworkRecord.from_dict(cached)
        record = self.run_routed(spec, self.route(spec), **batch)
        if figures is not None and not record.failures:
            figures.put(spec.content_hash(), "network", record.to_dict())
        return record

    def run_routed(
        self, spec: NetworkSpec, routing: RoutingResult, **batch: Any
    ) -> NetworkRecord:
        """Execute the spec under an externally supplied routing.

        The energy-aware control plane (:mod:`repro.control`) routes on
        a pruned topology, projects the link loads back onto the full
        port map, and evaluates the result here — same per-router
        scenarios, same ``run_batch`` caches, no figure-store entry
        (the routing is not derivable from the spec alone).  All the
        routers run as one :meth:`~repro.api.PowerModel.run_batch` call,
        one listing per router in node order, so :class:`FaultPlan` unit
        ``i`` is the ``i``-th router.  ``**batch`` goes unchanged to
        ``run_batch``, with a fresh ``report`` when none is given, from
        which the batch's failures are read.
        """
        if batch.get("report") is None:
            batch["report"] = BatchReport()
        report = batch["report"]
        before = len(report.failures)
        records = self.session.run_batch(
            [scenario for _, scenario in self.scenarios(spec, routing)],
            **batch,
        )
        return _network_record(
            spec, routing, records, report.failures[before:]
        )


def _network_record(
    spec: NetworkSpec,
    routing: RoutingResult,
    records: list["RunRecord | None"],
    failures: list[FailureRecord],
) -> NetworkRecord:
    """Aggregate one result per router, in node order, into a record.

    A ``None`` result is a supervisor-recorded failure: an explicit
    hole — the row keeps its topology-derived columns, fabric metrics
    stay None, and the totals cover only completed routers; the
    failures list says which.
    """
    node_rows = []
    by_node = {}
    fabric_total = 0.0
    port_total = 0.0
    powered_total = 0
    for node, rec in zip(spec.topology.nodes, records):
        active = routing.active_ports[node.name]
        powered = sum(active) if spec.switch_off else node.ports
        port_power = powered * spec.port_power_w
        loads = routing.ingress_loads[node.name]
        row = {
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
        if rec is not None:
            row["throughput"] = rec.throughput
            row["fabric_power_w"] = rec.total_power_w
            row["switch_power_w"] = rec.switch_power_w
            row["wire_power_w"] = rec.wire_power_w
            row["buffer_power_w"] = rec.buffer_power_w
            row["power_w"] = rec.total_power_w + port_power
            fabric_total += rec.total_power_w
        node_rows.append(row)
        port_total += port_power
        powered_total += powered
        by_node[node.name] = rec
    # Per-link rows: interface power of the cable's endpoint ports,
    # split across the directed links sharing the cable so link
    # powers sum without double counting, plus the directed link's
    # own propagation power (load x line rate x J/bit/m x length).
    loads, active = routing.link_loads, routing.active_ports
    peers = {n: pm.peers for n, pm in spec.topology.port_map().items()}
    link_rows = routing.link_rows()
    propagation_total = 0.0
    for row in link_rows:
        src, dst = row["src"], row["dst"]
        endpoints = 2
        if spec.switch_off:
            endpoints = (active[src][peers[src][dst]]
                         + active[dst][peers[dst][src]])
        # A cable has two directions if its reverse link exists.
        share = 2 if (dst, src) in loads else 1
        propagation = 0.0
        if spec.propagation_j_per_bit_m:
            length = spec.topology.link(src, dst).length_m
            if length:
                tech = get_technology(spec.topology.node(src).tech)
                propagation = (row["load"] * tech.line_rate_bps
                               * spec.propagation_j_per_bit_m * length)
        propagation_total += propagation
        row["propagation_power_w"] = propagation
        row["power_w"] = (
            endpoints * spec.port_power_w / share + propagation
        )
    total_ports = sum(n.ports for n in spec.topology.nodes)
    idle_ports = routing.idle_port_count()
    delta = (
        idle_ports * spec.port_power_w if spec.switch_off else 0.0
    )
    utils = [row["utilization"] for row in link_rows]
    totals = {
        "power_w": fabric_total + port_total + propagation_total,
        "fabric_power_w": fabric_total,
        "port_power_w": port_total,
        "propagation_power_w": propagation_total,
        "switch_off_delta_w": delta,
        "nodes": len(node_rows),
        "links": len(link_rows),
        "total_ports": total_ports,
        "powered_ports": powered_total,
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
    return NetworkRecord(
        spec=spec,
        nodes=node_rows,
        links=link_rows,
        totals=totals,
        detail={"records": by_node, "routing": routing},
        failures=failures,
    )


def run_network(
    spec: "NetworkSpec | str",
    session: PowerModel | None = None,
    *,
    figures: "DerivedRecordStore | None" = None,
    scale: float = 1.0,
    **batch: Any,
) -> NetworkRecord:
    """Execute a network spec (or preset name) into a record.

    ``scale`` multiplies every demand before running (the load-sweep
    knob network campaigns use); the scaled spec hashes differently, so
    cached figures per scale never collide.  ``**batch`` goes unchanged
    to :meth:`repro.api.PowerModel.run_batch`.
    """
    if isinstance(spec, str):
        from repro.network.presets import get_network

        spec = get_network(spec)
    if scale != 1.0:
        spec = spec.scaled(scale)
    return NetworkPowerModel(session).run(spec, figures=figures, **batch)


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

    def mw(watts: float | None) -> str:
        # A failed router's row holds None in its fabric columns.
        return "-" if watts is None else f"{to_mW(watts):.4f}"

    node_rows = [
        [
            row["node"],
            row["architecture"],
            f"{row['powered_ports']}/{row['ports']}",
            f"{row['mean_load']:.3f}",
            "-" if row["throughput"] is None else f"{row['throughput']:.3f}",
            mw(row["fabric_power_w"]),
            mw(row["port_power_w"]),
            mw(row["power_w"]),
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
