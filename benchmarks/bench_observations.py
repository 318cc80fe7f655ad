"""The paper's Section 6 observations, measured end to end.

Observation 1 — the 32x32 banyan is the cheapest fabric below a
crossover throughput in the mid-30s percent, above which the buffer
penalty hands the lead to the crossbar (the paper reads 35% off its
Fig. 9).

Observation 2 — node switches dominate small fabrics; interconnect
wires dominate large ones.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_comparison, format_series
from repro.api import Scenario, default_session
from repro.sim.runner import run_simulation

LOADS = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50]
SLOTS = dict(arrival_slots=700, warmup_slots=140, seed=31415)


def _crossover_sweep():
    records = default_session().run_batch(
        Scenario.grid(
            architectures=("banyan", "crossbar"), ports=(32,), loads=LOADS,
            **SLOTS,
        )
    )
    return records[:len(LOADS)], records[len(LOADS):]


def _power_at(grid, records):
    """Total power interpolated at each grid throughput (``np.interp``
    needs the measured throughputs in increasing order)."""
    series = sorted(records, key=lambda r: r.throughput)
    return np.interp(
        grid,
        [r.throughput for r in series],
        [r.total_power_w for r in series],
    )


def test_observation1_banyan_crossover_at_32_ports(once):
    banyan, crossbar = once(_crossover_sweep)

    print()
    for label, records in (("banyan 32x32", banyan),
                           ("crossbar 32x32", crossbar)):
        print(
            format_series(
                label,
                [r.throughput for r in records],
                [r.total_power_w for r in records],
                "throughput",
                "W",
            )
        )

    # Interpolate both power curves on a common throughput grid and
    # find where the banyan stops being cheapest.
    grid = np.linspace(0.10, min(max(r.throughput for r in banyan), 0.42), 33)
    cheaper = _power_at(grid, banyan) < _power_at(grid, crossbar)
    assert cheaper[0], "banyan must win at low throughput"
    if cheaper.all():
        crossover = grid[-1]
    else:
        crossover = float(grid[np.argmin(cheaper)])
    print(format_comparison("banyan/crossbar crossover throughput", 0.35, crossover))
    # The paper reads ~35%; accept the mid-20s to mid-40s band.
    assert 0.25 <= crossover <= 0.45


def _dominance_runs():
    out = {}
    for arch in ("fully_connected", "batcher_banyan"):
        for ports in (4, 32):
            out[(arch, ports)] = run_simulation(
                arch, ports, load=0.4, arrival_slots=500, warmup_slots=100,
                seed=27,
            )
    return out


def test_observation2_component_domination_shift(once):
    runs = once(_dominance_runs)

    print()
    for (arch, ports), result in sorted(runs.items()):
        e = result.energy
        print(
            f"{arch:16s} {ports:2d} ports: switch {e.fraction('switch'):.2f} "
            f"wire {e.fraction('wire'):.2f} buffer {e.fraction('buffer'):.2f} "
            f"-> dominant {e.dominant}"
        )

    # Small fully-connected fabric: switches dominate; at 32: wires.
    assert runs[("fully_connected", 4)].energy.dominant == "switch"
    assert runs[("fully_connected", 32)].energy.dominant == "wire"
    # Wire share grows with size for Batcher-Banyan too.
    assert (
        runs[("batcher_banyan", 32)].energy.fraction("wire")
        > runs[("batcher_banyan", 4)].energy.fraction("wire")
    )
