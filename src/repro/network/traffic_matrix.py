"""Traffic matrices: per src→dst node demand in cells/slot.

A :class:`TrafficMatrix` is the workload of a network run the way a
scenario's ``load`` is the workload of a router run: frozen, JSON
round-trippable, hashable by content.  Demands are expressed in
cells/slot — the same unit as link capacities and per-port loads, so a
routed matrix maps directly onto :class:`~repro.api.Scenario` per-port
load vectors.

Presets mirror the classic evaluation workloads:

* :meth:`TrafficMatrix.uniform` — every ordered pair of endpoints
  exchanges the same demand (the paper's uniform destinations, lifted
  to the network level).
* :meth:`TrafficMatrix.gravity` — demand proportional to the product of
  endpoint weights (the standard WAN traffic model).
* :meth:`TrafficMatrix.hotspot` — every endpoint sends to one target
  (plus optional uniform background), the network-level sibling of
  :class:`repro.router.traffic.HotspotTraffic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.serial import Spec, build, check_scalars


@dataclass(frozen=True)
class Demand:
    """One matrix entry: ``src`` sends ``cells_per_slot`` to ``dst``.

    ``src == dst`` is legal and means locally switched traffic: it
    enters and leaves the router through its access ports without
    touching any link (a one-node network is driven entirely by it).
    """

    src: str
    dst: str
    cells_per_slot: float

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise ConfigurationError("a demand needs src and dst node names")
        check_scalars(self)
        if self.cells_per_slot < 0.0:
            raise ConfigurationError(
                f"demand {self.src!r} -> {self.dst!r} must be >= 0, got "
                f"{self.cells_per_slot!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "cells_per_slot": self.cells_per_slot,
        }


def _coerce_demand(value: Any) -> Demand:
    if isinstance(value, Demand):
        return value
    if isinstance(value, Mapping):
        return build(Demand, value, "demand")
    if isinstance(value, Sequence) and len(value) == 3:
        return Demand(str(value[0]), str(value[1]), value[2])
    raise ConfigurationError(
        f"expected a Demand, mapping, or [src, dst, cells] row, got "
        f"{value!r}"
    )


@dataclass(frozen=True)
class TrafficMatrix(Spec):
    """A frozen set of demands, canonically sorted by (src, dst).

    >>> tm = TrafficMatrix.uniform(("a", "b", "c"), 0.2)
    >>> tm.originated("a")
    0.4
    """

    demands: tuple[Demand, ...]
    name: str = ""

    noun = "traffic-matrix"

    def __post_init__(self) -> None:
        demands = tuple(
            sorted(
                (_coerce_demand(d) for d in self.demands),
                key=lambda d: (d.src, d.dst),
            )
        )
        object.__setattr__(self, "demands", demands)
        seen = set()
        for d in demands:
            key = (d.src, d.dst)
            if key in seen:
                raise ConfigurationError(
                    f"duplicate demand {d.src!r} -> {d.dst!r} "
                    "(merge into one entry)"
                )
            seen.add(key)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _endpoint_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Lazy one-pass ``(originated, terminated)`` totals per node.

        Accumulation follows the canonical (src, dst) demand order, so
        each per-node float sum is bit-identical to the linear-scan sum
        it replaces — at thousands of nodes the per-call scans made
        :func:`~repro.network.routing.derive_port_loads` quadratic.
        """
        cached = self.__dict__.get("_endpoint_totals_cache")
        if cached is None:
            originated: dict[str, float] = {}
            terminated: dict[str, float] = {}
            for d in self.demands:
                originated[d.src] = (
                    originated.get(d.src, 0.0) + d.cells_per_slot
                )
                terminated[d.dst] = (
                    terminated.get(d.dst, 0.0) + d.cells_per_slot
                )
            cached = (originated, terminated)
            object.__setattr__(self, "_endpoint_totals_cache", cached)
        return cached

    def demand(self, src: str, dst: str) -> float:
        index = self.__dict__.get("_demand_index_cache")
        if index is None:
            index = {(d.src, d.dst): d.cells_per_slot for d in self.demands}
            object.__setattr__(self, "_demand_index_cache", index)
        return index.get((src, dst), 0.0)

    def nodes(self) -> tuple[str, ...]:
        """Every node named by any demand, sorted."""
        out = set()
        for d in self.demands:
            out.add(d.src)
            out.add(d.dst)
        return tuple(sorted(out))

    def originated(self, node: str) -> float:
        """Total demand sourced at ``node`` (including local traffic)."""
        return self._endpoint_totals()[0].get(node, 0.0)

    def terminated(self, node: str) -> float:
        """Total demand sinking at ``node`` (including local traffic)."""
        return self._endpoint_totals()[1].get(node, 0.0)

    def total(self) -> float:
        return sum(d.cells_per_slot for d in self.demands)

    def scaled(self, factor: float) -> "TrafficMatrix":
        """Every demand multiplied by ``factor`` (a load sweep knob)."""
        if factor < 0.0:
            raise ConfigurationError("scale factor must be >= 0")
        return TrafficMatrix(
            demands=tuple(
                Demand(d.src, d.dst, d.cells_per_slot * factor)
                for d in self.demands
            ),
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @classmethod
    def uniform(
        cls,
        nodes: Sequence[str],
        demand: float,
        include_self: bool = False,
        name: str = "uniform",
    ) -> "TrafficMatrix":
        """Every ordered pair of ``nodes`` exchanges ``demand``."""
        if len(nodes) < 1:
            raise ConfigurationError("uniform matrix needs nodes")
        out = []
        for src in nodes:
            for dst in nodes:
                if src == dst and not include_self:
                    continue
                out.append(Demand(src, dst, demand))
        if not out:
            raise ConfigurationError(
                "uniform matrix over one node needs include_self=True"
            )
        return cls(tuple(out), name=name)

    @classmethod
    def gravity(
        cls,
        weights: Mapping[str, float],
        total_demand: float,
        name: str = "gravity",
    ) -> "TrafficMatrix":
        """Demand proportional to the product of endpoint weights.

        ``d(u, v) = total_demand * w_u * w_v / sum_{a != b} w_a w_b`` —
        the off-diagonal demands sum exactly to ``total_demand``.
        """
        if total_demand < 0.0:
            raise ConfigurationError("total_demand must be >= 0")
        names = sorted(weights)
        if len(names) < 2:
            raise ConfigurationError("gravity matrix needs >= 2 nodes")
        for node in names:
            if weights[node] < 0.0:
                raise ConfigurationError(
                    f"gravity weight of {node!r} must be >= 0"
                )
        norm = sum(
            weights[u] * weights[v]
            for u in names
            for v in names
            if u != v
        )
        if norm <= 0.0:
            raise ConfigurationError(
                "gravity matrix needs at least two positive weights"
            )
        out = [
            Demand(u, v, total_demand * weights[u] * weights[v] / norm)
            for u in names
            for v in names
            if u != v
        ]
        return cls(tuple(out), name=name)

    @classmethod
    def hotspot(
        cls,
        nodes: Sequence[str],
        target: str,
        demand: float,
        background: float = 0.0,
        name: str = "hotspot",
    ) -> "TrafficMatrix":
        """Every non-target node sends ``demand`` to ``target``; all
        other ordered pairs carry ``background``."""
        if target not in nodes:
            raise ConfigurationError(
                f"hotspot target {target!r} is not among the nodes"
            )
        out = []
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                cells = demand if dst == target else background
                if cells > 0.0:
                    out.append(Demand(src, dst, cells))
        if not out:
            raise ConfigurationError("hotspot matrix has no positive demand")
        return cls(tuple(out), name=name)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it exactly."""
        return {
            "name": self.name,
            "demands": [d.to_dict() for d in self.demands],
        }
