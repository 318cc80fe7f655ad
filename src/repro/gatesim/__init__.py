"""Gate-level switch characterisation (Power Compiler substitute).

Paper Section 5.1: "the bit energy is pre-calculated from Synopsys
Power Compiler simulation.  We build each of the node switches with
0.18 um libraries, apply different input vectors and calculate the
average energy consumption on each bit."

This package reproduces that flow end to end:

* :mod:`~repro.gatesim.cells` — a small standard-cell library with
  capacitance-based switching energy per cell.
* :mod:`~repro.gatesim.netlist` — gate netlists with zero-delay
  evaluation, DFF state, and combinational-loop detection.
* :mod:`~repro.gatesim.simulate` — cycle simulation with per-net toggle
  counting.
* :mod:`~repro.gatesim.power` — switching-activity energy estimation
  (the "Power Compiler" step).
* :mod:`~repro.gatesim.circuits` — generators for the paper's four node
  switch types (crossbar crosspoint, Banyan 2x2 binary switch, Batcher
  2x2 sorting switch, N-input MUX).
* :mod:`~repro.gatesim.characterize` — the input-vector sweep producing
  a :class:`~repro.core.bit_energy.SwitchEnergyLUT`.

Absolute joules depend on the calibration constants; the *structure* of
Table 1 (zero energy at rest, state dependence with
``E[1,1] < 2 E[0,1]``, sorting switch > binary switch, MUX energy
growing with N) is reproduced from first principles — see the Table 1
bench.
"""

# Eager, unlike the other packages: the export ``simulate`` shares its
# name with a submodule, whose import would bind over a lazy export.
from repro.gatesim.cells import CellLibrary, CellType
from repro.gatesim.netlist import Gate, Net, Netlist
from repro.gatesim.simulate import SimulationTrace, simulate
from repro.gatesim.power import EnergyReport, estimate_energy
from repro.gatesim.characterize import (
    characterize_mux,
    characterize_switch,
    regenerate_table1,
)

__all__ = [
    "CellLibrary",
    "CellType",
    "Netlist",
    "Net",
    "Gate",
    "simulate",
    "SimulationTrace",
    "EnergyReport",
    "estimate_energy",
    "characterize_switch",
    "characterize_mux",
    "regenerate_table1",
]
