"""Declarative experiment descriptions.

A :class:`Scenario` is a frozen, validated, JSON-serialisable record of
*one operating point* of the paper's evaluation grid: which fabric, how
many ports, which technology node, what traffic at what load, how wires
are charged, how cells are shaped, and how the run is seeded.  It is
the input vocabulary of :class:`repro.api.PowerModel` — both the
closed-form estimator and the bit-accurate simulator consume the same
scenario, which is what makes mixed analytical/simulated batch files
possible.

Construction helpers mirror how the paper's figures are built:

* :meth:`Scenario.grid` expands architecture/ports/load/tech axes into
  the full Cartesian scenario list (Fig. 9 is one call).
* :func:`preset` / :func:`preset_scenarios` name the paper's canonical
  experiments ("fig9", "fig10") and the extended workloads ("tcpip",
  "bursty", "hotspot").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, Sequence

from repro.core.estimator import ARCHITECTURES
from repro.errors import ConfigurationError
from repro.fabrics.registry import canonical_architecture
from repro.router.cells import CellFormat
from repro.router.traffic import (
    MAX_PORTS,
    RNG_STREAM_V1,
    per_port_loads,
    scalar_load,
    BernoulliUniformTraffic,
    BurstyTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TraceEntry,
    TraceTraffic,
    TrafficGenerator,
    TrimodalPacketTraffic,
)
from repro.serial import Spec, build, check_fields, check_scalars, parse_json
from repro.sim.engine import ENGINES
from repro.tech import Technology
from repro.tech.presets import PRESETS as TECH_PRESETS
from repro.tech.presets import get_technology
from repro.wire_modes import WireMode

#: Valid values of :attr:`Scenario.backend`.
BACKENDS = ("estimate", "simulate")

#: Valid values of :attr:`Scenario.queueing`.
QUEUEING_KINDS = ("fifo", "voq")

#: Traffic generator classes by scenario ``traffic`` name; ``trace``
#: builds its generator from ``traffic_params["entries"]``.
_GENERATORS = {
    "bernoulli": BernoulliUniformTraffic,
    "hotspot": HotspotTraffic,
    "bursty": BurstyTraffic,
    "trimodal": TrimodalPacketTraffic,
    "permutation": PermutationTraffic,
}

#: Valid values of :attr:`Scenario.traffic`.
TRAFFIC_KINDS = (*_GENERATORS, "trace")


def _freeze_value(value: Any) -> Any:
    """Recursively convert lists (e.g. trace entry rows) to tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    return value


def _thaw_value(value: Any) -> Any:
    """Inverse of :func:`_freeze_value` for JSON export."""
    if isinstance(value, tuple):
        return [_thaw_value(v) for v in value]
    return value


def _freeze_params(params: Any) -> tuple[tuple[str, Any], ...]:
    """Canonicalise traffic params to a sorted, hashable tuple of pairs."""
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = tuple(params)
    frozen = []
    for key, value in sorted(items):
        frozen.append((str(key), _freeze_value(value)))
    return tuple(frozen)


@dataclass(frozen=True)
class Scenario(Spec):
    """One fully-specified experiment (frozen and JSON round-trippable).

    Attributes
    ----------
    architecture:
        Fabric name; resolved through :mod:`repro.fabrics.registry`,
        so aliases canonicalise and custom registered fabrics validate
        like the built-ins.
    ports:
        Number of ingress (= egress) ports.
    load:
        Operating point in [0, 1].  For the simulated backend this is
        the offered load (cells per port-slot); for the analytical
        backend it is the egress throughput the closed forms assume.
        One name, one axis — the ``throughput`` vs ``load`` split of the
        legacy entry points is gone.  The simulated backend also
        accepts a per-port vector (one load per ingress port, stored as
        a tuple) for every traffic kind — ``bursty`` calibrates its
        on/off dwell per port; the analytical backend needs a scalar.
    backend:
        ``"simulate"`` (bit-accurate, default) or ``"estimate"``
        (closed-form).  :meth:`repro.api.PowerModel.run` dispatches on
        this; ``estimate()``/``simulate()`` override it.
    engine:
        Slot-loop implementation for the simulated backend:
        ``"vectorized"`` (array-based, default) or ``"reference"``
        (the object-based oracle).  Both produce bit-identical seeded
        results; the analytical backend ignores this field.
    queueing:
        Input discipline for the simulated backend: ``"fifo"`` (the
        paper's HOL-blocked input queues, default) or ``"voq"``
        (per-destination virtual output queues matched by iSLIP).
    islip_iterations:
        iSLIP match iterations per slot (VOQ only; K >= 1).
    rng_stream:
        RNG-consumption contract version.  Its only value is 1
        (slot-at-a-time draws, bit-stable with every recorded seed);
        stream 2 was removed.  The tag stays a field because it is part
        of :meth:`to_dict`, so of every :meth:`content_hash` (the key of
        the run store, the figure store and the journal) and of every
        record export.
    tech:
        Technology node: a preset name (``"0.18um"``) or a
        :class:`~repro.tech.Technology` instance (serialised by value
        when not a preset).
    wire_mode:
        A :class:`~repro.wire_modes.WireMode` (or its string spelling),
        translated per backend automatically.
    flip_fraction:
        Analytical-only: fraction of wire bits flipping polarity.
    traffic:
        Workload family, one of :data:`TRAFFIC_KINDS`.  The analytical
        backend models Bernoulli traffic; other kinds are
        simulate-only.
    traffic_params:
        Extra keyword arguments of the traffic generator (e.g.
        ``{"hotspot_fraction": 0.5}``), stored as a sorted tuple of
        pairs so scenarios stay hashable.
    bus_width / cell_words:
        Cell geometry (:class:`~repro.router.cells.CellFormat`).
    buffer_memory / buffer_bits_per_switch / buffer_charge_granularity:
        Banyan buffer configuration (ignored by bufferless fabrics).
    ingress_queue_cells:
        Input-queue capacity override (None = unbounded).
    arrival_slots / warmup_slots / drain:
        Simulated measurement window.
    seed:
        RNG seed for payload bits and arrivals: a non-negative int, or
        None for fresh OS entropy (not reproducible).
    name:
        Optional label carried through to results and reports.
    """

    architecture: str
    ports: int
    load: float | tuple[float, ...]
    backend: str = "simulate"
    engine: str = "vectorized"
    queueing: str = "fifo"
    islip_iterations: int = 1
    rng_stream: int = 1
    tech: str | Technology = "0.18um"
    wire_mode: WireMode = WireMode.WORST_CASE
    flip_fraction: float = 0.5
    traffic: str = "bernoulli"
    traffic_params: tuple[tuple[str, Any], ...] = ()
    bus_width: int = 32
    cell_words: int = 16
    buffer_memory: str = "sram"
    buffer_bits_per_switch: int | None = None
    buffer_charge_granularity: str = "word"
    ingress_queue_cells: int | None = None
    arrival_slots: int = 1000
    warmup_slots: int = 100
    drain: bool = True
    seed: int | None = 12345
    name: str = ""

    noun = "scenario"

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "architecture", canonical_architecture(self.architecture)
        )
        object.__setattr__(self, "wire_mode", WireMode.parse(self.wire_mode))
        object.__setattr__(
            self, "traffic_params", _freeze_params(self.traffic_params)
        )
        # An int field that took a float would fail inside the run, and
        # a bool or an equal float would run under another content hash.
        check_scalars(self)
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.queueing not in QUEUEING_KINDS:
            raise ConfigurationError(
                f"queueing must be one of {QUEUEING_KINDS}, "
                f"got {self.queueing!r}"
            )
        if self.islip_iterations < 1:
            raise ConfigurationError("islip_iterations must be >= 1")
        if self.queueing != "voq" and self.islip_iterations != 1:
            raise ConfigurationError(
                "islip_iterations is a VOQ parameter; set queueing='voq'"
            )
        if self.rng_stream != RNG_STREAM_V1:
            raise ConfigurationError(
                f"rng_stream must be {RNG_STREAM_V1}, the only RNG stream "
                f"since stream 2 was removed; got {self.rng_stream!r}"
            )
        if self.ports < 2:
            raise ConfigurationError("a scenario needs at least 2 ports")
        if self.ports > MAX_PORTS:
            raise ConfigurationError(
                f"a scenario has at most {MAX_PORTS} ports, got {self.ports}"
            )
        # Shared scalar/vector validation (length + [0, 1] range) —
        # the same rules the traffic layer enforces at build time.
        if isinstance(self.load, tuple):
            per_port_loads(self.load, self.ports)
        else:
            scalar_load(self.load)
        if not 0.0 <= self.flip_fraction <= 1.0:
            raise ConfigurationError("flip_fraction must be in [0, 1]")
        if self.traffic not in TRAFFIC_KINDS:
            raise ConfigurationError(
                f"unknown traffic {self.traffic!r}; expected one of "
                f"{TRAFFIC_KINDS}"
            )
        if self.backend == "estimate":
            if self.traffic != "bernoulli":
                raise ConfigurationError(
                    f"traffic {self.traffic!r} is simulate-only: the "
                    "analytical backend models Bernoulli arrivals "
                    "(use backend='simulate' for this workload)"
                )
            if isinstance(self.load, tuple):
                raise ConfigurationError(
                    "per-port load vectors are simulate-only: the "
                    "analytical backend assumes one uniform load"
                )
            if self.queueing != "fifo":
                raise ConfigurationError(
                    "queueing='voq' is simulate-only: the analytical "
                    "backend models the paper's FIFO input queues"
                )
            if self.architecture not in ARCHITECTURES:
                raise ConfigurationError(
                    f"architecture {self.architecture!r} has no closed "
                    "forms; use backend='simulate'"
                )
        if self.arrival_slots < 1:
            raise ConfigurationError("arrival_slots must be >= 1")
        if self.warmup_slots < 0:
            raise ConfigurationError("warmup_slots must be >= 0")
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative int or None, got {self.seed!r}"
            )
        if isinstance(self.tech, str):
            get_technology(self.tech)  # fail fast on unknown preset names
        elif not isinstance(self.tech, Technology):
            raise ConfigurationError(
                f"tech must be a preset name or Technology, got {self.tech!r}"
            )
        # CellFormat validates bus_width/cell_words.
        CellFormat(bus_width=self.bus_width, words=self.cell_words)

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------

    @property
    def technology(self) -> Technology:
        """The resolved :class:`~repro.tech.Technology` instance."""
        if isinstance(self.tech, Technology):
            return self.tech
        return get_technology(self.tech)

    @property
    def cell_format(self) -> CellFormat:
        return CellFormat(bus_width=self.bus_width, words=self.cell_words)

    @property
    def mean_load(self) -> float:
        """The load as one scalar (mean of a per-port vector)."""
        if isinstance(self.load, tuple):
            return sum(self.load) / len(self.load)
        return self.load

    @property
    def label(self) -> str:
        """Report label: the explicit name or a synthesised one."""
        if self.name:
            return self.name
        return (
            f"{self.architecture}-{self.ports}x{self.ports}"
            f"@{self.mean_load:.2f}-{self.backend}"
        )

    def build_traffic(self) -> TrafficGenerator:
        """Instantiate this scenario's traffic generator.

        A ``traffic_params`` entry the generator's constructor rejects
        (an unknown keyword, a value of the wrong type) raises
        :class:`ConfigurationError` naming the traffic kind.
        """
        params = dict(self.traffic_params)
        if self.traffic == "trace":
            entries = params.pop("entries", None)
            if entries is None:
                raise ConfigurationError(
                    'trace traffic needs traffic_params["entries"]: a list '
                    "of [slot, src, dest, size_bits] rows"
                )
            if params:
                raise ConfigurationError(
                    f"unknown trace traffic params: {sorted(params)}"
                )
            try:
                parsed = [TraceEntry(*map(int, row)) for row in entries]
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"bad trace entry rows (expected [slot, src, dest, "
                    f"size_bits]): {exc}"
                ) from exc
            return TraceTraffic(self.ports, parsed, bus_width=self.bus_width)
        bits = (
            "cell_payload_bits" if self.traffic == "trimodal" else "packet_bits"
        )
        params.setdefault(bits, self.cell_format.payload_bits_per_cell)
        load = list(self.load) if isinstance(self.load, tuple) else self.load
        try:
            return _GENERATORS[self.traffic](
                ports=self.ports, load=load, bus_width=self.bus_width, **params
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"invalid {self.traffic} traffic_params: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; ``from_dict`` round-trips it exactly."""
        out: dict[str, Any] = {name: getattr(self, name) for name in _FIELDS}
        if isinstance(self.load, tuple):
            out["load"] = list(self.load)
        tech = self.tech
        if isinstance(tech, Technology):
            if tech.name in TECH_PRESETS and TECH_PRESETS[tech.name] == tech:
                out["tech"] = tech.name
            else:
                out["tech"] = dataclasses.asdict(tech)
        out["wire_mode"] = self.wire_mode.value
        out["traffic_params"] = {
            k: _thaw_value(v) for k, v in self.traffic_params
        }
        return out

    def content_hash(self) -> str:
        """:meth:`Spec.content_hash`, computed once per instance: every
        field is frozen, and :meth:`replace` builds a new instance."""
        cached = self.__dict__.get("_content_hash_cache")
        if cached is None:
            cached = super().content_hash()
            object.__setattr__(self, "_content_hash_cache", cached)
        return cached

    @classmethod
    def from_dict(cls, data: Any) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (or hand-written
        JSON); unknown keys raise so typos in scenario files fail loud.
        A ``tech`` object is a :class:`~repro.tech.Technology` by value,
        checked field by field like the scenario itself."""
        tech = data.get("tech") if isinstance(data, Mapping) else None
        if isinstance(tech, Mapping):
            data = dict(data, tech=build(Technology, tech, "technology"))
        return super().from_dict(data)

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------

    @classmethod
    def grid(
        cls,
        architectures: Sequence[str] = ("crossbar",),
        ports: Sequence[int] = (16,),
        loads: Sequence[float] = (0.3,),
        techs: Sequence[str | Technology] = ("0.18um",),
        **common: Any,
    ) -> list["Scenario"]:
        """Cartesian expansion of the four evaluation axes.

        Returns ``len(architectures) * len(techs) * len(ports) *
        len(loads)`` scenarios in deterministic (arch, tech, ports,
        load) nesting order.  ``common`` supplies the remaining fields
        of every scenario (backend, seed, traffic, ...).
        """
        scenarios = []
        for arch in architectures:
            for tech in techs:
                for n in ports:
                    for load in loads:
                        scenarios.append(
                            cls(
                                architecture=arch,
                                ports=n,
                                load=load,
                                tech=tech,
                                **common,
                            )
                        )
        return scenarios


#: :class:`Scenario`'s field names, in :meth:`Scenario.to_dict` order.
_FIELDS = tuple(f.name for f in fields(Scenario))


def load_scenarios(source: str | Iterable[Mapping[str, Any]]) -> list[Scenario]:
    """Parse a scenario list from JSON text or an iterable of dicts.

    Accepts either a bare JSON array or ``{"scenarios": [...]}`` — the
    format consumed by ``python -m repro batch``; anything else raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(source, str):
        data = parse_json(source, "scenario file")
    else:
        data = source
    if isinstance(data, Mapping):
        data = check_fields(data, "scenario file", ("scenarios",))
        data = data["scenarios"]
    if isinstance(data, (str, Mapping)) or not isinstance(data, Iterable):
        raise ConfigurationError(
            'a scenario file holds a JSON array or {"scenarios": [...]}, '
            f"not {type(data).__name__}"
        )
    items = list(data)
    if not items:
        raise ConfigurationError("scenario list is empty")
    return [Scenario.from_dict(item) for item in items]


# ----------------------------------------------------------------------
# Named presets
# ----------------------------------------------------------------------

#: Paper's Fig. 9 measurement grid: all fabrics, 32 ports, 10-55% load.
_FIG9_LOADS = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55)
#: Paper's Fig. 10 measurement grid: all fabrics vs port count at 50%.
_FIG10_PORTS = (4, 8, 16, 32)


def _fig9() -> list[Scenario]:
    return Scenario.grid(
        architectures=ARCHITECTURES,
        ports=(32,),
        loads=_FIG9_LOADS,
        arrival_slots=1200,
        warmup_slots=200,
        name="fig9",
    )


def _fig10() -> list[Scenario]:
    return Scenario.grid(
        architectures=ARCHITECTURES,
        ports=_FIG10_PORTS,
        loads=(0.50,),
        arrival_slots=1200,
        warmup_slots=200,
        name="fig10",
    )


def _tcpip() -> list[Scenario]:
    return [
        Scenario(
            architecture="banyan",
            ports=16,
            load=0.30,
            traffic="trimodal",
            name="tcpip",
        )
    ]


def _bursty() -> list[Scenario]:
    return [
        Scenario(
            architecture="crossbar",
            ports=16,
            load=0.30,
            traffic="bursty",
            traffic_params={"burst_len": 8.0},
            name="bursty",
        )
    ]


def _hotspot() -> list[Scenario]:
    return [
        Scenario(
            architecture="batcher_banyan",
            ports=16,
            load=0.30,
            traffic="hotspot",
            traffic_params={"hotspot_fraction": 0.5},
            name="hotspot",
        )
    ]


#: Factories for the named experiment presets.
PRESET_SCENARIOS = {
    "fig9": _fig9,
    "fig10": _fig10,
    "tcpip": _tcpip,
    "bursty": _bursty,
    "hotspot": _hotspot,
}


def preset_scenarios(name: str) -> list[Scenario]:
    """Scenario list of a named preset experiment."""
    try:
        factory = PRESET_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(PRESET_SCENARIOS))
        raise ConfigurationError(
            f"unknown preset {name!r}; known presets: {known}"
        ) from None
    return factory()


def preset(name: str) -> Scenario:
    """The single scenario of a scalar preset (``tcpip``/``bursty``/...).

    Raises for grid presets (``fig9``/``fig10``) — use
    :func:`preset_scenarios` for those.
    """
    scenarios = preset_scenarios(name)
    if len(scenarios) != 1:
        raise ConfigurationError(
            f"preset {name!r} expands to {len(scenarios)} scenarios; "
            "use preset_scenarios()"
        )
    return scenarios[0]
