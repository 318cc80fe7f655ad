"""Input-vector characterisation: netlist -> SwitchEnergyLUT.

Reproduces the paper's pre-calculation flow (Section 5.1): for every
input-occupancy vector of a node switch, drive the active inputs with
random payload streams, simulate, estimate energy from switching
activity, and average it per bit-slot.  The result plugs straight into
the dynamic simulator as a :class:`~repro.core.bit_energy.SwitchEnergyLUT`.

Normalisation: Table 1's "bit energy" is the whole-switch energy per
bit-slot (one bus lane for one cycle), so
``E_S(vector) = E_total / (cycles * bus_width)``.

Calibration: our capacitance-only cell model knows nothing about the
authors' drive strengths, cell internals or local wiring, so raw joules
sit below Table 1 by a roughly constant factor.  :func:`calibrate_scale`
computes the single least-squares factor aligning a characterised LUT
set with Table 1; the Table 1 bench reports raw, factor and calibrated
values side by side.  The *structure* (zeros at rest, dual < 2x single,
sorter > binary, MUX growing with N) needs no calibration.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import tables
from repro.core.bit_energy import MuxEnergyLUT, SwitchEnergyLUT
from repro.errors import CharacterizationError, ConfigurationError
from repro.gatesim.cells import CellLibrary
from repro.gatesim.circuits import (
    build_banyan_switch,
    build_crosspoint,
    build_mux_tree,
    build_sorting_switch,
)
from repro.gatesim.netlist import Netlist
from repro.gatesim.power import estimate_energy
from repro.gatesim.simulate import (
    constant_stream,
    held_random_stream,
    random_bit_stream,
    simulate,
)

#: Cycles a packet's control signals (routing bit, destination key) are
#: held: one 512-bit cell on a 32-bit bus.
PACKET_HOLD_CYCLES = 16

#: MUX sizes characterised for Table 1's N-input rows.
TABLE1_MUX_SIZES = (4, 8, 16, 32)

#: Every Table 1 entry :func:`regenerate_table1` characterises, keyed
#: the same way as its ``raw``/``calibrated``/``reference`` dicts.  The
#: campaign layer (``repro.campaigns``) sizes and plans the ``table1``
#: campaign from this tuple, so extending the characterisation extends
#: the campaign automatically.
TABLE1_ENTRIES = (
    "crossbar[1]",
    "banyan[0,1]",
    "banyan[1,1]",
    "batcher[0,1]",
    "batcher[1,1]",
) + tuple(f"mux{n}" for n in TABLE1_MUX_SIZES)
from repro.tech import TECH_180NM, Technology


def _energy_per_bit_slot(
    netlist: Netlist,
    stimulus: dict[str, np.ndarray],
    cycles: int,
    bus_width: int,
    active: bool = True,
) -> float:
    """Simulate, estimate, normalise to whole-switch J per bit-slot.

    ``active=False`` (the all-idle input vector) gates the clock off, so
    a resting switch reports exactly zero — Table 1's [0]/[0,0] rows.
    """
    trace = simulate(netlist, stimulus, cycles, settle_cycles=4)
    report = estimate_energy(
        netlist, trace, clock_active_cycles=cycles if active else 0
    )
    return report.total_j / (cycles * bus_width)


def _bus_stimulus(
    netlist: Netlist,
    bus: str,
    width: int,
    cycles: int,
    rng: np.random.Generator,
    active: bool,
    activity: float = 0.5,
) -> dict[str, np.ndarray]:
    out = {}
    for lane in range(width):
        name = f"{bus}[{lane}]"
        if name not in netlist.inputs:
            raise CharacterizationError(f"netlist has no input {name}")
        if active:
            out[name] = random_bit_stream(rng, cycles, activity)
        else:
            out[name] = constant_stream(cycles, 0)
    return out


def characterize_crosspoint(
    tech: Technology = TECH_180NM,
    bus_width: int = 32,
    cycles: int = 256,
    seed: int = 1,
) -> SwitchEnergyLUT:
    """Crossbar crosspoint LUT: vectors (0,) and (1,)."""
    library = CellLibrary(tech)
    netlist = build_crosspoint(library, bus_width)
    rng = np.random.default_rng(seed)
    table: dict[tuple[int, ...], float] = {}
    for active in (0, 1):
        stim = _bus_stimulus(netlist, "in", bus_width, cycles, rng, bool(active))
        stim["enable"] = constant_stream(cycles, active)
        table[(active,)] = _energy_per_bit_slot(
            netlist, stim, cycles, bus_width, active=bool(active)
        )
    return SwitchEnergyLUT(1, table, name="gatesim-crosspoint")


def characterize_switch(
    kind: str,
    tech: Technology = TECH_180NM,
    bus_width: int = 32,
    cycles: int = 256,
    seed: int = 1,
) -> SwitchEnergyLUT:
    """2x2 switch LUT for ``kind`` in {"banyan", "batcher"}.

    All four occupancy vectors are characterised; routing bits / keys
    are random per cycle so arbitration and comparator logic toggles
    realistically.
    """
    library = CellLibrary(tech)
    if kind == "banyan":
        netlist = build_banyan_switch(library, bus_width)
    elif kind == "batcher":
        netlist = build_sorting_switch(library, bus_width)
    else:
        raise CharacterizationError(f"kind must be 'banyan' or 'batcher', got {kind!r}")
    rng = np.random.default_rng(seed)
    table: dict[tuple[int, ...], float] = {}
    for v0 in (0, 1):
        for v1 in (0, 1):
            stim: dict[str, np.ndarray] = {}
            stim.update(
                _bus_stimulus(netlist, "in0", bus_width, cycles, rng, bool(v0))
            )
            stim.update(
                _bus_stimulus(netlist, "in1", bus_width, cycles, rng, bool(v1))
            )
            stim["valid0"] = constant_stream(cycles, v0)
            stim["valid1"] = constant_stream(cycles, v1)
            # Control signals change per packet, not per clock.
            if kind == "banyan":
                stim["route0"] = (
                    held_random_stream(rng, cycles, PACKET_HOLD_CYCLES)
                    if v0
                    else constant_stream(cycles, 0)
                )
                stim["route1"] = (
                    held_random_stream(rng, cycles, PACKET_HOLD_CYCLES)
                    if v1
                    else constant_stream(cycles, 0)
                )
            else:
                key_bits = sum(
                    1 for name in netlist.inputs if name.startswith("key0[")
                )
                for b in range(key_bits):
                    stim[f"key0[{b}]"] = (
                        held_random_stream(rng, cycles, PACKET_HOLD_CYCLES)
                        if v0
                        else constant_stream(cycles, 0)
                    )
                    stim[f"key1[{b}]"] = (
                        held_random_stream(rng, cycles, PACKET_HOLD_CYCLES)
                        if v1
                        else constant_stream(cycles, 0)
                    )
                stim["up"] = constant_stream(cycles, 1)
            table[(v0, v1)] = _energy_per_bit_slot(
                netlist, stim, cycles, bus_width, active=bool(v0 or v1)
            )
    name = f"gatesim-{kind}-2x2"
    return SwitchEnergyLUT(2, table, name=name)


def characterize_mux(
    n_inputs: int,
    tech: Technology = TECH_180NM,
    bus_width: int = 32,
    cycles: int = 128,
    seed: int = 1,
    background_activity: float = 0.25,
) -> float:
    """Energy per bit-slot of an N-input MUX forwarding one stream.

    Idle inputs toggle at ``background_activity``: in the fabric every
    input bus carries its own traffic to *other* MUXes, so the leaf
    muxes of non-selected inputs switch too — this is what makes MUX
    energy grow near-linearly with N, as Table 1 shows.  The default
    0.25 (a half-loaded fabric with 0.5-activity payloads) reproduces
    Table 1's 5.8x growth from N=4 to N=32.
    """
    library = CellLibrary(tech)
    netlist = build_mux_tree(library, n_inputs, bus_width)
    rng = np.random.default_rng(seed)
    cyc = cycles
    stim: dict[str, np.ndarray] = {}
    for k in range(n_inputs):
        stim.update(
            _bus_stimulus(
                netlist,
                f"in{k}",
                bus_width,
                cyc,
                rng,
                active=True,
                activity=0.5 if k == 0 else background_activity,
            )
        )
    levels = n_inputs.bit_length() - 1
    for b in range(levels):
        stim[f"sel[{b}]"] = constant_stream(cyc, 0)  # select input 0
    return _energy_per_bit_slot(netlist, stim, cyc, bus_width)


def calibrate_scale(
    raw: dict[str, float], reference: dict[str, float]
) -> float:
    """Single scale factor aligning raw with reference values.

    Geometric mean of per-point ratios, i.e. the least-squares fit in
    log space: balances *relative* error across entries spanning an
    order of magnitude (crosspoint 220 fJ to MUX32 2515 fJ) instead of
    letting the largest entry dominate.
    """
    keys = [k for k in raw if k in reference and raw[k] > 0 and reference[k] > 0]
    if not keys:
        raise CharacterizationError("no overlapping characterisation points")
    log_sum = sum(math.log(reference[k] / raw[k]) for k in keys)
    return math.exp(log_sum / len(keys))


def regenerate_table1(
    tech: Technology = TECH_180NM,
    bus_width: int = 32,
    cycles: int = 192,
    seed: int = 1,
) -> dict[str, dict]:
    """Characterise every Table 1 entry; return raw + calibrated values.

    Returns a dict with per-switch raw LUTs, the single calibration
    factor against the paper's Table 1, and calibrated entries keyed the
    same way as :mod:`repro.core.tables`.  Raises
    :class:`~repro.errors.ConfigurationError` for fewer than one cycle.
    """
    if cycles < 1:
        raise ConfigurationError(
            f"table1 characterisation needs at least 1 cycle, got {cycles}"
        )
    crosspoint = characterize_crosspoint(tech, bus_width, cycles, seed)
    banyan = characterize_switch("banyan", tech, bus_width, cycles, seed)
    batcher = characterize_switch("batcher", tech, bus_width, cycles, seed)
    mux_raw = {
        n: characterize_mux(n, tech, bus_width, max(cycles // 2, 64), seed)
        for n in TABLE1_MUX_SIZES
    }

    raw_points = {
        "crossbar[1]": crosspoint.lookup((1,)),
        "banyan[0,1]": banyan.lookup((0, 1)),
        "banyan[1,1]": banyan.lookup((1, 1)),
        "batcher[0,1]": batcher.lookup((0, 1)),
        "batcher[1,1]": batcher.lookup((1, 1)),
        **{f"mux{n}": e for n, e in mux_raw.items()},
    }
    reference = {
        "crossbar[1]": tables.CROSSBAR_SWITCH_ENERGY[(1,)],
        "banyan[0,1]": tables.BANYAN_SWITCH_ENERGY[(0, 1)],
        "banyan[1,1]": tables.BANYAN_SWITCH_ENERGY[(1, 1)],
        "batcher[0,1]": tables.BATCHER_SWITCH_ENERGY[(0, 1)],
        "batcher[1,1]": tables.BATCHER_SWITCH_ENERGY[(1, 1)],
        **{f"mux{n}": e for n, e in tables.MUX_ENERGY_BY_PORTS.items()},
    }
    scale = calibrate_scale(raw_points, reference)
    calibrated = {k: v * scale for k, v in raw_points.items()}
    return {
        "luts": {"crossbar": crosspoint, "banyan": banyan, "batcher": batcher},
        "mux_raw": mux_raw,
        "raw": raw_points,
        "reference": reference,
        "scale": scale,
        "calibrated": calibrated,
    }


def calibrated_luts(tech: Technology = TECH_180NM, **kwargs) -> dict[str, object]:
    """Characterised LUTs rescaled to Table 1 magnitude.

    Drop-in replacements for the Table 1 defaults: keys ``"crossbar"``,
    ``"banyan"``, ``"batcher"`` map to :class:`SwitchEnergyLUT` and
    ``"mux"`` to ``{n_inputs: MuxEnergyLUT}``.  Pass them into
    :class:`repro.core.bit_energy.EnergyModelSet` to run the dynamic
    simulator entirely on first-principles switch energies.
    """
    result = regenerate_table1(tech, **kwargs)
    scale = result["scale"]
    out: dict[str, object] = {}
    for name, lut in result["luts"].items():
        table = {vec: energy * scale for vec, energy in lut.items()}
        out[name] = SwitchEnergyLUT(lut.n_inputs, table, name=f"{lut.name}-cal")
    out["mux"] = {
        n: MuxEnergyLUT(n, energy * scale)
        for n, energy in result["mux_raw"].items()
    }
    return out
