"""Cycle simulation with per-net toggle counting.

Zero-delay semantics: each cycle, primary inputs take their new values,
combinational gates evaluate in topological order, then DFFs capture
their D inputs for the next cycle.  Every net records how many times its
value changed — the switching-activity input to the power step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CharacterizationError
from repro.gatesim.netlist import Netlist


@dataclass
class SimulationTrace:
    """Switching activity of one simulation run.

    Attributes
    ----------
    cycles: number of simulated cycles.
    net_toggles: per-net toggle counts (value changes cycle to cycle).
    output_values: per primary output, the value at each cycle.
    """

    cycles: int
    net_toggles: np.ndarray
    output_values: dict[str, np.ndarray]

    def toggles(self, net_index: int) -> int:
        return int(self.net_toggles[net_index])

    @property
    def total_toggles(self) -> int:
        return int(self.net_toggles.sum())


def simulate(
    netlist: Netlist,
    stimulus: dict[str, np.ndarray],
    cycles: int | None = None,
    settle_cycles: int = 0,
) -> SimulationTrace:
    """Run ``cycles`` of the netlist under per-input bit streams.

    Parameters
    ----------
    netlist: the circuit (finalised automatically).
    stimulus: input name -> 0/1 array of per-cycle values.  Every
        primary input must be covered and all arrays equally long.
    cycles: defaults to the stimulus length.
    settle_cycles: initial cycles evaluated with the first stimulus
        values but *not* counted — suppresses the power-on transient
        (e.g. inverters rising from the all-zero reset state), so an
        idle circuit reports exactly zero toggles.
    """
    order = netlist.finalize()
    missing = set(netlist.inputs) - set(stimulus)
    if missing:
        raise CharacterizationError(f"missing stimulus for inputs: {sorted(missing)}")
    lengths = {len(v) for v in stimulus.values()}
    if len(lengths) != 1:
        raise CharacterizationError("stimulus arrays must be equally long")
    stim_len = lengths.pop()
    if cycles is None:
        cycles = stim_len
    if cycles > stim_len:
        raise CharacterizationError(
            f"requested {cycles} cycles but stimulus has {stim_len}"
        )

    n_nets = len(netlist.nets)
    values = np.zeros(n_nets, dtype=np.int8)
    toggles = np.zeros(n_nets, dtype=np.int64)
    ff_gates = netlist.sequential_gates
    ff_state = {g.index: 0 for g in ff_gates}
    output_values = {
        name: np.zeros(cycles, dtype=np.int8) for name in netlist.outputs
    }
    input_items = [(netlist.inputs[name], np.asarray(stimulus[name]))
                   for name in netlist.inputs]
    gates = netlist.gates

    def advance(cycle: int, count_toggles: bool) -> None:
        nonlocal values, toggles
        new_values = values.copy()
        for net_idx, stream in input_items:
            new_values[net_idx] = 1 if stream[cycle] else 0
        for gate in ff_gates:
            new_values[gate.output] = ff_state[gate.index]
        for gate_index in order:
            gate = gates[gate_index]
            ins = tuple(int(new_values[i]) for i in gate.inputs)
            new_values[gate.output] = gate.cell.evaluate(ins)
        if count_toggles:
            toggles += new_values != values
        values = new_values
        for gate in ff_gates:
            ff_state[gate.index] = int(values[gate.inputs[0]])

    for _ in range(settle_cycles):
        advance(0, count_toggles=False)
    for cycle in range(cycles):
        advance(cycle, count_toggles=True)
        for name, net_idx in netlist.outputs.items():
            output_values[name][cycle] = values[net_idx]

    return SimulationTrace(
        cycles=cycles, net_toggles=toggles, output_values=output_values
    )


def random_bit_stream(
    rng: np.random.Generator, cycles: int, activity: float = 0.5
) -> np.ndarray:
    """Random 0/1 stream with P(bit=1) = activity (payload stimulus)."""
    if not 0.0 <= activity <= 1.0:
        raise CharacterizationError("activity must be in [0, 1]")
    return (rng.random(cycles) < activity).astype(np.int8)


def constant_stream(cycles: int, value: int) -> np.ndarray:
    """All-zero or all-one stimulus (idle inputs, enables)."""
    return np.full(cycles, 1 if value else 0, dtype=np.int8)


def held_random_stream(
    rng: np.random.Generator, cycles: int, hold: int
) -> np.ndarray:
    """Random bits held constant for ``hold`` cycles at a time.

    Models per-packet control signals (routing bits, destination keys):
    a new random value appears at each packet boundary, not every clock.
    """
    if hold < 1:
        raise CharacterizationError("hold must be >= 1")
    n_values = -(-cycles // hold)
    values = (rng.random(n_values) < 0.5).astype(np.int8)
    return np.repeat(values, hold)[:cycles]
