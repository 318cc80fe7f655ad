"""Declarative paper-reproduction campaigns.

A :class:`Campaign` is the multi-point sibling of
:class:`repro.api.Scenario`: where a scenario pins *one* operating
point, a campaign declares a whole cross-configuration comparison —
the paper's figures and tables — as frozen axis definitions over
backend x traffic x architecture x technology x ports x load.  The
derived scenario grid (:meth:`Campaign.scenarios`) feeds straight into
:meth:`repro.api.PowerModel.run_batch`, so a campaign executes in
parallel and caches per point like any other batch.

Campaigns JSON round-trip (:meth:`to_dict` / :meth:`from_dict`), so a
campaign file is as declarative as a scenario file — the built-in
presets for Fig. 9, Fig. 10, Table 1 and Table 2 live in
:mod:`repro.campaigns.presets`, and ``repro campaign run`` accepts
either a preset name or a campaign JSON file.

Three non-grid kinds exist.  ``kind="table1"`` re-characterises the
node switches at gate level (:func:`repro.gatesim.characterize.
regenerate_table1`) and ``kind="table2"`` evaluates the banked-SRAM
buffer model (:class:`repro.memmodel.SramMacro`) — the paper's tables
are not simulation sweeps.  ``kind="network"`` sweeps a
:class:`~repro.network.power.NetworkSpec` over demand scales: params
name a network preset (``{"network": "fat_tree_k4"}``) or carry an
inline ``{"spec": {...}}`` dict, plus ``{"scales": [...]}``; every
scale executes the network through the shared session and the per-node
rows land in the record under (scale, node) axes.  ``kind="control"``
runs an energy-aware control-plane series (:class:`~repro.control.spec.
ControlSpec`): params name a control preset (``{"control":
"fat_tree_diurnal"}``) or carry an inline ``{"spec": {...}}`` dict, and
the per-epoch rows land in the record under an epoch axis.
``kind="surrogate_eval"`` carries the same six grid axes as ``"grid"``
but scores the surrogate layer instead of just executing: the grid is
simulated (cached like any batch), a
:class:`~repro.surrogate.train.SurrogateModel` is trained on the
executed records with a held-out slice, and every point reports
surrogate-vs-simulation error.  All kinds produce the same
:class:`~repro.campaigns.comparison.ComparisonRecord` result shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

from repro.core.tables import TABLE1_ENTRIES
from repro.errors import ConfigurationError
from repro.fabrics.registry import canonical_architecture
from repro.serial import Spec
from repro.tech.presets import get_technology
from repro.wire_modes import WireMode

from repro.api.scenario import (
    BACKENDS,
    Scenario,
    TRAFFIC_KINDS,
    _freeze_params,
    _thaw_value,
)

#: Valid values of :attr:`Campaign.kind`.
CAMPAIGN_KINDS = (
    "grid", "table1", "table2", "network", "control", "surrogate_eval"
)

#: Scenario fields that are campaign axes and therefore may not appear
#: in :attr:`Campaign.base`.
_AXIS_FIELDS = ("architecture", "ports", "load", "backend", "tech", "traffic")

#: Axis column names of a grid campaign's points, in nesting order
#: (outermost first) — also the key columns of the CSV export.
GRID_AXES = ("backend", "traffic", "architecture", "tech", "ports", "load")


def _freeze_axis(value: Any) -> tuple:
    """One axis as a tuple (accepting a scalar as a 1-tuple)."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class Campaign(Spec):
    """A frozen, JSON round-trippable multi-configuration experiment.

    Attributes
    ----------
    name:
        Identifier used by the CLI, the presets registry and result
        exports.
    kind:
        ``"grid"`` (a scenario grid run through ``run_batch``; the
        figures) or ``"table1"`` / ``"table2"`` (the paper's tables,
        regenerated by their dedicated models).
    title:
        One-line human description shown by ``repro campaign list``.
    architectures / techs / ports / loads / backends / traffics:
        The grid axes.  Every combination in nesting order
        ``backend -> traffic -> architecture -> tech -> ports -> load``
        becomes one :class:`~repro.api.Scenario`.  ``techs`` entries are
        preset names (strings) so campaigns stay JSON-clean; ``loads``
        entries may be per-port vectors where the scenario layer allows
        them.  Table kinds leave all six axes empty.
    base:
        Extra :class:`~repro.api.Scenario` fields shared by every grid
        point (``seed``, ``arrival_slots``, ``wire_mode``, ...), stored
        as a sorted tuple of pairs like ``traffic_params``.  Axis
        fields are rejected here — an axis has exactly one spelling.
    params:
        Kind-specific knobs: ``table1`` takes ``cycles``/``seed``,
        ``table2`` takes ``ports`` (row list), grid campaigns may
        carry ``target_throughput`` (Fig. 10's read-off point, consumed
        by :meth:`~repro.campaigns.comparison.ComparisonRecord.
        interpolated_power` and the report renderer), and ``network``
        campaigns take ``network`` (preset name) *or* ``spec`` (inline
        :class:`~repro.network.power.NetworkSpec` dict) plus optional
        ``scales`` (demand multipliers, default ``[1.0]``), and
        ``control`` campaigns take ``control`` (preset name) *or*
        ``spec`` (inline :class:`~repro.control.spec.ControlSpec`
        dict), and ``surrogate_eval`` campaigns take optional
        ``holdout_modulus`` (1-in-N validation split, default 4) and
        ``ridge_lambda`` (regularisation, default 1e-6).
    """

    name: str
    kind: str = "grid"
    title: str = ""
    architectures: tuple[str, ...] = ()
    techs: tuple[str, ...] = ("0.18um",)
    ports: tuple[int, ...] = ()
    loads: tuple[Any, ...] = ()
    backends: tuple[str, ...] = ("simulate",)
    traffics: tuple[str, ...] = ("bernoulli",)
    base: tuple[tuple[str, Any], ...] = ()
    params: tuple[tuple[str, Any], ...] = ()

    noun = "campaign"

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a campaign needs a name")
        if self.kind not in CAMPAIGN_KINDS:
            raise ConfigurationError(
                f"kind must be one of {CAMPAIGN_KINDS}, got {self.kind!r}"
            )
        for axis in (
            "architectures", "techs", "ports", "loads", "backends",
            "traffics",
        ):
            object.__setattr__(self, axis, _freeze_axis(getattr(self, axis)))
        object.__setattr__(
            self,
            "loads",
            tuple(
                tuple(load) if isinstance(load, (list, tuple)) else load
                for load in self.loads
            ),
        )
        base = dict(_freeze_params(self.base))
        if "wire_mode" in base:
            base["wire_mode"] = WireMode.parse(base["wire_mode"]).value
        object.__setattr__(self, "base", _freeze_params(base))
        object.__setattr__(self, "params", _freeze_params(self.params))
        if self.kind in ("grid", "surrogate_eval"):
            if not (self.architectures and self.ports and self.loads):
                raise ConfigurationError(
                    f"a {self.kind} campaign needs non-empty architectures, "
                    "ports and loads axes"
                )
            for arch in self.architectures:
                canonical_architecture(arch)
            for tech in self.techs:
                if not isinstance(tech, str):
                    raise ConfigurationError(
                        "campaign techs are preset names (strings); got "
                        f"{tech!r}"
                    )
                get_technology(tech)
            for backend in self.backends:
                if backend not in BACKENDS:
                    raise ConfigurationError(
                        f"backend must be one of {BACKENDS}, got {backend!r}"
                    )
            for traffic in self.traffics:
                if traffic not in TRAFFIC_KINDS:
                    raise ConfigurationError(
                        f"unknown traffic {traffic!r}; expected one of "
                        f"{TRAFFIC_KINDS}"
                    )
            bad = set(base) & set(_AXIS_FIELDS)
            if bad:
                raise ConfigurationError(
                    f"base may not set axis fields {sorted(bad)}; use the "
                    "corresponding campaign axis"
                )
            unknown = set(base) - {
                f.name for f in fields(Scenario)
            }
            if unknown:
                raise ConfigurationError(
                    f"unknown scenario fields in base: {sorted(unknown)}"
                )
            if self.kind == "surrogate_eval":
                params = self.params_dict
                modulus = params.get("holdout_modulus", 4)
                if isinstance(modulus, bool) or not isinstance(
                    modulus, int
                ) or modulus < 2:
                    raise ConfigurationError(
                        f"holdout_modulus must be an integer >= 2, "
                        f"got {modulus!r}"
                    )
                lam = params.get("ridge_lambda", 1e-6)
                if not isinstance(lam, (int, float)) or lam <= 0:
                    raise ConfigurationError(
                        f"ridge_lambda must be > 0, got {lam!r}"
                    )
                unknown = set(params) - {"holdout_modulus", "ridge_lambda"}
                if unknown:
                    raise ConfigurationError(
                        f"unknown surrogate_eval params: {sorted(unknown)}"
                    )
            # Fail fast on incompatible base fields (a bad combination
            # should not surface N-scenarios deep into a batch).
            self.scenarios()
        else:
            for axis in (
                "architectures", "ports", "loads",
            ):
                if getattr(self, axis):
                    raise ConfigurationError(
                        f"{self.kind!r} campaigns take no {axis} axis "
                        "(configure rows via params)"
                    )
            if self.kind == "network":
                params = self.params_dict
                if ("network" in params) == ("spec" in params):
                    raise ConfigurationError(
                        'a network campaign needs exactly one of params'
                        '["network"] (preset name) or params["spec"] '
                        "(inline NetworkSpec dict)"
                    )
                scales = params.get("scales", (1.0,))
                if not isinstance(scales, (list, tuple)):
                    raise ConfigurationError(
                        "network scales must be a list of positive "
                        f"numbers, got {scales!r}"
                    )
                for scale in scales:
                    if (
                        isinstance(scale, bool)
                        or not isinstance(scale, (int, float))
                        or not 0 < scale < math.inf
                    ):
                        raise ConfigurationError(
                            f"network scales must be positive numbers, "
                            f"got {scale!r}"
                        )
                unknown = set(params) - {"network", "spec", "scales"}
                if unknown:
                    raise ConfigurationError(
                        f"unknown network params: {sorted(unknown)}"
                    )
                # Fail fast on a bad preset name / malformed inline spec.
                self.network_spec()
            if self.kind == "control":
                params = self.params_dict
                if ("control" in params) == ("spec" in params):
                    raise ConfigurationError(
                        'a control campaign needs exactly one of params'
                        '["control"] (preset name) or params["spec"] '
                        "(inline ControlSpec dict)"
                    )
                unknown = set(params) - {"control", "spec"}
                if unknown:
                    raise ConfigurationError(
                        f"unknown control params: {sorted(unknown)}"
                    )
                # Fail fast on a bad preset name / malformed inline spec.
                self.control_spec()

    def network_spec(self):
        """The resolved :class:`~repro.network.power.NetworkSpec` of a
        ``network`` campaign (raises for other kinds)."""
        if self.kind != "network":
            raise ConfigurationError(
                f"{self.kind!r} campaigns have no network spec"
            )
        from repro.network.power import NetworkSpec
        from repro.network.presets import get_network

        params = self.params_dict
        if "network" in params:
            return get_network(params["network"])
        return NetworkSpec.from_dict(params["spec"])

    def control_spec(self):
        """The resolved :class:`~repro.control.spec.ControlSpec` of a
        ``control`` campaign (raises for other kinds)."""
        if self.kind != "control":
            raise ConfigurationError(
                f"{self.kind!r} campaigns have no control spec"
            )
        from repro.control.presets import get_control
        from repro.control.spec import ControlSpec

        params = self.params_dict
        if "control" in params:
            return get_control(params["control"])
        return ControlSpec.from_dict(params["spec"])

    def network_scales(self) -> tuple[float, ...]:
        """The demand-scale sweep of a ``network`` campaign."""
        if self.kind != "network":
            raise ConfigurationError(
                f"{self.kind!r} campaigns have no network scales"
            )
        return tuple(
            float(s) for s in self.params_dict.get("scales", (1.0,))
        )

    # ------------------------------------------------------------------
    # Derived grid
    # ------------------------------------------------------------------

    @property
    def base_dict(self) -> dict[str, Any]:
        return {k: _thaw_value(v) for k, v in self.base}

    @property
    def params_dict(self) -> dict[str, Any]:
        return {k: _thaw_value(v) for k, v in self.params}

    def scenarios(self) -> list[Scenario]:
        """The derived scenario grid, in deterministic nesting order
        (``backend -> traffic -> architecture -> tech -> ports ->
        load``, innermost fastest).  Raises for table kinds."""
        if self.kind not in ("grid", "surrogate_eval"):
            raise ConfigurationError(
                f"{self.kind!r} campaigns have no scenario grid"
            )
        base = self.base_dict
        out = []
        for backend in self.backends:
            for traffic in self.traffics:
                for arch in self.architectures:
                    for tech in self.techs:
                        for ports in self.ports:
                            for load in self.loads:
                                out.append(
                                    Scenario(
                                        architecture=arch,
                                        ports=ports,
                                        load=load,
                                        backend=backend,
                                        traffic=traffic,
                                        tech=tech,
                                        name=self.name,
                                        **base,
                                    )
                                )
        return out

    def size(self) -> int:
        """Number of points the campaign will produce."""
        if self.kind in ("grid", "surrogate_eval"):
            return (
                len(self.backends) * len(self.traffics)
                * len(self.architectures) * len(self.techs)
                * len(self.ports) * len(self.loads)
            )
        if self.kind == "table2":
            return len(self.params_dict.get("ports", (4, 8, 16, 32, 64, 128)))
        if self.kind == "network":
            # One row per (scale, node) plus one total row per scale.
            nodes = len(self.network_spec().topology.nodes)
            return len(self.network_scales()) * (nodes + 1)
        if self.kind == "control":
            # One row per epoch plus one series-total row.
            return self.control_spec().series.epochs + 1
        return len(TABLE1_ENTRIES)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` round-trips it exactly."""
        return {
            "name": self.name,
            "kind": self.kind,
            "title": self.title,
            "architectures": list(self.architectures),
            "techs": list(self.techs),
            "ports": list(self.ports),
            "loads": [_thaw_value(load) for load in self.loads],
            "backends": list(self.backends),
            "traffics": list(self.traffics),
            "base": self.base_dict,
            "params": self.params_dict,
        }
