"""Fast, simulation-free switch-fabric power estimator.

Combines the closed-form equations (Eq. 3-6), the Table 1/2 energy
models and the Patel contention recurrence into a single call:

>>> from repro.core.estimator import estimate_power
>>> est = estimate_power("banyan", ports=32, throughput=0.3)
>>> est.total_power_w  # doctest: +SKIP

The estimator derates the worst-case equations with two activity
factors:

* ``flip_fraction`` — fraction of wire bits that flip polarity
  (0.5 for the paper's random payloads);
* per-stage input-vector mixing from the Patel stage loads (a 2x2
  switch serving two cells costs ``E[1,1]/2`` per bit instead of
  ``E[0,1]``).

It is the quick-look companion of the bit-accurate simulator in
:mod:`repro.sim`; the ``bench_analytical_vs_sim`` bench quantifies the
gap between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import contention, tables
from repro.core.analytical import (
    banyan_wire_grids,
    batcher_stage_count,
    batcher_wire_grids,
)
from repro.core.bit_energy import (
    BufferEnergyModel,
    MuxEnergyLUT,
    SwitchEnergyLUT,
)
from repro.errors import ConfigurationError
from repro.fabrics import registry
from repro.tech import TECH_180NM, Technology
from repro.tech.wires import WireModel
from repro.wire_modes import ANALYTICAL_MODES, WireMode

#: The paper's four architectures, the ones the closed forms model.
ARCHITECTURES = registry.BUILTIN_ARCHITECTURES


def canonical_architecture(name: str) -> str:
    """Normalise an architecture name to one of :data:`ARCHITECTURES`."""
    arch = registry.canonical_architecture(name)
    if arch not in ARCHITECTURES:
        raise ConfigurationError(
            f"architecture {arch!r} has no closed forms; expected one of "
            f"{ARCHITECTURES}"
        )
    return arch


@dataclass(frozen=True)
class AnalyticalPowerEstimate:
    """Result of :func:`estimate_power`.

    Attributes
    ----------
    architecture: canonical fabric name.
    ports: N.
    throughput: per-port egress utilisation the estimate assumes.
    bit_energy_j: expected energy per delivered payload bit.
    switch_energy_j / wire_energy_j / buffer_energy_j:
        per-bit component breakdown (sums to ``bit_energy_j``).
    delivered_bps: aggregate delivered bits per second.
    total_power_w: ``bit_energy_j * delivered_bps``.
    """

    architecture: str
    ports: int
    throughput: float
    bit_energy_j: float
    switch_energy_j: float
    wire_energy_j: float
    buffer_energy_j: float
    delivered_bps: float

    @property
    def total_power_w(self) -> float:
        return self.bit_energy_j * self.delivered_bps

    @property
    def switch_power_w(self) -> float:
        return self.switch_energy_j * self.delivered_bps

    @property
    def wire_power_w(self) -> float:
        return self.wire_energy_j * self.delivered_bps

    @property
    def buffer_power_w(self) -> float:
        return self.buffer_energy_j * self.delivered_bps

    @property
    def dominant_component(self) -> str:
        parts = {
            "switches": self.switch_energy_j,
            "wires": self.wire_energy_j,
            "buffers": self.buffer_energy_j,
        }
        return max(parts, key=parts.get)


def _mixed_2x2_energy_per_bit(
    lut: SwitchEnergyLUT, other_input_load: float
) -> float:
    """Expected per-transported-bit energy of a 2x2 switch.

    Our cell is present; the other input is independently busy with
    probability ``other_input_load``.  Two simultaneous cells share the
    whole-switch energy, so the dual-occupancy per-bit cost is halved.
    """
    single = lut.lookup((0, 1))
    dual = lut.lookup((1, 1)) / 2.0
    return (1.0 - other_input_load) * single + other_input_load * dual


def compute_estimate(
    architecture: str,
    ports: int,
    throughput: float,
    tech: Technology = TECH_180NM,
    flip_fraction: float = 0.5,
    wire_mode: str = "worst_case",
    buffer_model: BufferEnergyModel | None = None,
    switch_lut: SwitchEnergyLUT | None = None,
    sorting_lut: SwitchEnergyLUT | None = None,
    wire_model: WireModel | None = None,
) -> AnalyticalPowerEstimate:
    """The closed-form physics behind :func:`estimate_power`.

    All component models are injectable so callers holding cached
    instances (:class:`repro.api.PowerModel`) never rebuild them; any
    left as ``None`` is constructed from the paper defaults.

    Parameters
    ----------
    architecture:
        ``"crossbar"``, ``"fully_connected"``, ``"banyan"`` or
        ``"batcher_banyan"`` (aliases accepted).
    ports:
        Number of ingress (= egress) ports.
    throughput:
        Per-port egress utilisation in [0, 1] — the x-axis of Fig. 9.
    tech:
        Process node (supplies ``E_T`` and the line rate).
    flip_fraction:
        Fraction of wire bits flipping polarity; 0.5 for random
        payloads.
    wire_mode:
        ``"worst_case"`` charges the Eq. 5/6 longest-wire lengths for
        every bit; ``"expected"`` charges banyan-style stages the mean
        of the straight (4-grid) and cross (4*2^i-grid) paths.  (This
        is the analytical-backend vocabulary; use
        :class:`repro.wire_modes.WireMode` to translate the unified
        spellings.)
    buffer_model:
        Banyan buffer energy; defaults to the Table 2 SRAM model for
        ``ports`` (interpolating via :class:`repro.memmodel` is the
        caller's choice).
    switch_lut / sorting_lut:
        Override the Table 1 LUTs (e.g. with gatesim-characterised
        ones).
    wire_model:
        Reuse an existing :class:`WireModel` for ``tech``.
    """
    arch = canonical_architecture(architecture)
    if not 0.0 <= throughput <= 1.0:
        raise ConfigurationError("throughput must be in [0, 1]")
    if not 0.0 <= flip_fraction <= 1.0:
        raise ConfigurationError("flip_fraction must be in [0, 1]")
    if wire_mode not in ANALYTICAL_MODES:
        wire_mode = WireMode.parse(wire_mode).analytical

    if wire_model is None:
        wire_model = WireModel(tech)
    e_t = wire_model.grid_flip_energy_j
    delivered_bps = ports * throughput * tech.line_rate_bps

    switch_j = 0.0
    wire_j = 0.0
    buffer_j = 0.0

    if arch == "crossbar":
        lut = switch_lut or SwitchEnergyLUT.crossbar_crosspoint()
        switch_j = ports * lut.lookup((1,))
        wire_j = flip_fraction * 8 * ports * e_t
    elif arch == "fully_connected":
        lut = switch_lut or MuxEnergyLUT(ports)
        switch_j = lut.energy_per_bit(1)
        wire_j = flip_fraction * 0.5 * ports * ports * e_t
    elif arch == "banyan":
        lut = switch_lut or SwitchEnergyLUT.banyan_binary()
        if buffer_model is None:
            buffer_model = default_estimator_buffer(ports)
        loads = contention.banyan_stage_loads(ports, throughput)
        n = contention.stages(ports)
        for k in range(n):
            switch_j += _mixed_2x2_energy_per_bit(lut, loads[k])
        wire_j = flip_fraction * _banyan_wire_grids(ports, wire_mode) * e_t
        blocks = contention.banyan_blocking_probability(ports, throughput)
        per_buffering = (
            buffer_model.effective_bit_energy_j
            * buffer_model.accesses_per_buffering
        )
        buffer_j = sum(blocks) * per_buffering
    else:  # batcher_banyan
        sort = sorting_lut or SwitchEnergyLUT.batcher_sorting()
        binary = switch_lut or SwitchEnergyLUT.banyan_binary()
        n = contention.stages(ports)
        sorter_stages = batcher_stage_count(ports)
        # Load through the sorter stays at the admitted rate; after
        # sorting the banyan is contention free with the same load.
        switch_j = sorter_stages * _mixed_2x2_energy_per_bit(sort, throughput)
        switch_j += n * _mixed_2x2_energy_per_bit(binary, throughput)
        grids = batcher_wire_grids(ports) + banyan_wire_grids(ports)
        if wire_mode == "expected":
            grids = (grids + _expected_grid_floor(ports)) / 2.0
        wire_j = flip_fraction * grids * e_t

    total = switch_j + wire_j + buffer_j
    return AnalyticalPowerEstimate(
        architecture=arch,
        ports=ports,
        throughput=throughput,
        bit_energy_j=total,
        switch_energy_j=switch_j,
        wire_energy_j=wire_j,
        buffer_energy_j=buffer_j,
        delivered_bps=delivered_bps,
    )


def estimate_power(
    architecture: str,
    ports: int,
    throughput: float,
    tech: Technology = TECH_180NM,
    flip_fraction: float = 0.5,
    wire_mode: str = "worst_case",
    buffer_model: BufferEnergyModel | None = None,
    switch_lut: SwitchEnergyLUT | None = None,
    sorting_lut: SwitchEnergyLUT | None = None,
) -> AnalyticalPowerEstimate:
    """Analytically estimate switch-fabric power at a given throughput.

    Compatibility shim: delegates to the shared
    :class:`repro.api.PowerModel` session, so repeated calls (sweep
    loops) reuse cached ``WireModel``/LUT/buffer instances instead of
    rebuilding them.  New code should use
    :meth:`repro.api.PowerModel.estimate` with a
    :class:`repro.api.Scenario`; the numbers are identical.  See
    :func:`compute_estimate` for the parameter semantics (``wire_mode``
    additionally accepts the unified :class:`repro.wire_modes.WireMode`
    spellings).
    """
    from repro.api.model import default_session

    return default_session().analytical(
        architecture,
        ports,
        throughput,
        tech=tech,
        flip_fraction=flip_fraction,
        wire_mode=wire_mode,
        buffer_model=buffer_model,
        switch_lut=switch_lut,
        sorting_lut=sorting_lut,
    )


def _banyan_wire_grids(ports: int, wire_mode: str) -> float:
    """Banyan end-to-end wire grids under the chosen accounting mode."""
    worst = banyan_wire_grids(ports)
    if wire_mode == "worst_case":
        return float(worst)
    # Expected: each stage is a coin flip between the straight path
    # (4 grids) and the cross path (4 * 2^i grids).
    n = contention.stages(ports)
    return sum(0.5 * 4 + 0.5 * 4 * 2**i for i in range(n))


def _expected_grid_floor(ports: int) -> float:
    """Straight-path-only wire grids of a batcher-banyan (lower bound)."""
    n = contention.stages(ports)
    stages_total = batcher_stage_count(ports) + n
    return 4.0 * stages_total


def default_estimator_buffer(ports: int) -> BufferEnergyModel:
    """Table 2 buffer model, falling back to the nearest table entry."""
    if ports in tables.BANYAN_BUFFER_ENERGY_BY_PORTS:
        return BufferEnergyModel.from_table2(ports)
    known = sorted(tables.BANYAN_BUFFER_ENERGY_BY_PORTS)
    nearest = min(known, key=lambda k: abs(k - ports))
    return BufferEnergyModel(
        access_energy_j=tables.BANYAN_BUFFER_ENERGY_BY_PORTS[nearest]
    )


def estimate_all_architectures(
    ports: int,
    throughput: float,
    tech: Technology = TECH_180NM,
    **kwargs,
) -> dict[str, AnalyticalPowerEstimate]:
    """Convenience: estimate all four fabrics at one operating point."""
    return {
        arch: estimate_power(arch, ports, throughput, tech, **kwargs)
        for arch in ARCHITECTURES
    }
