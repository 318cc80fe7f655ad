#!/usr/bin/env python
"""Compare all four switch-fabric architectures (a mini Fig. 9 + 10).

Sweeps offered load on an 8x8 router for each architecture and prints
the power-vs-throughput series plus the ranking at 50% throughput —
the same analysis the paper's evaluation section performs.

Run:  python examples/architecture_comparison.py [ports]
"""

import sys

from repro import ARCHITECTURES, PowerModel, Scenario
from repro.analysis.report import format_table, sparkline
from repro.units import to_mW

LOADS = [0.1, 0.2, 0.3, 0.4, 0.5]


def main(ports: int = 8) -> None:
    # One session: wire models and LUTs are built once and shared by
    # all four sweeps.
    session = PowerModel()
    power = {}
    for arch in ARCHITECTURES:
        print(f"sweeping {arch} ...")
        records = session.run_batch(
            Scenario.grid(
                architectures=(arch,), ports=(ports,), loads=LOADS,
                arrival_slots=600, warmup_slots=120, seed=7,
            )
        )
        power[arch] = [r.total_power_w for r in records]

    rows = []
    for i, load in enumerate(LOADS):
        row = [f"{load:.1f}"]
        for arch in ARCHITECTURES:
            row.append(f"{to_mW(power[arch][i]):.3f}")
        rows.append(row)
    print()
    print(
        format_table(
            ["load"] + [f"{a} mW" for a in ARCHITECTURES],
            rows,
            title=f"Power vs offered load, {ports}x{ports} (paper Fig. 9)",
        )
    )

    print()
    print("Shape of each curve (power over load):")
    for arch in ARCHITECTURES:
        series = power[arch]
        print(f"  {arch:16s} {sparkline(series, width=len(series))}")

    final = {arch: power[arch][-1] for arch in ARCHITECTURES}
    ranking = sorted(final, key=final.get)
    print()
    print(f"Ranking at 50% offered load ({ports}x{ports}):")
    for i, arch in enumerate(ranking, 1):
        print(f"  {i}. {arch:16s} {to_mW(final[arch]):.3f} mW")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
