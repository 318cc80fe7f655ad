"""Slot-loop engine benchmark: vectorized vs reference slots/sec.

The acceptance benchmark of the vectorized engine: run each of the four
fabrics at 32 ports, 0.9 offered load and FIFO ingress through both
engines, verify the seeded results are bit-identical, and report
slots/sec plus the speedup.  The top-level fields and the >= 5x gate
are the 32-port banyan's; ``fabrics`` holds every fabric's figures.

Run as a script (what CI does) to write the machine-readable artifact::

    PYTHONPATH=src python benchmarks/bench_slotloop.py \
        --output BENCH_slotloop.json

It exits 1 if any fabric's engines diverge or the banyan speedup is
below 5x.  Or run it through pytest alongside the other benches::

    pytest benchmarks/bench_slotloop.py -s
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_router
from repro.sim.vector_engine import VectorizedEngine

ARCH = "banyan"
FABRICS = ("crossbar", "fully_connected", "banyan", "batcher_banyan")
PORTS = 32
LOAD = 0.9
SEED = 2002

_ENGINES = {
    "reference": SimulationEngine,
    "vectorized": VectorizedEngine,
}


def run_engine(engine: str, arch: str, slots: int, warmup: int):
    """One timed run; returns (slots_per_sec, seconds, result)."""
    router = build_router(arch, PORTS, load=LOAD)
    eng = _ENGINES[engine](router, seed=SEED)
    timed_slots = slots + warmup
    start = time.perf_counter()
    result = eng.run(slots, warmup_slots=warmup, drain=False)
    seconds = time.perf_counter() - start
    return timed_slots / seconds, seconds, result


def run_fabric(arch: str, slots: int, warmup: int, repeats: int):
    """Both engines on one fabric; returns (engines report, results).

    Each engine runs ``repeats`` times and reports its best (minimum
    wall-clock) repetition — the standard way to strip scheduler noise
    from a throughput figure.
    """
    engines = {}
    results = {}
    for engine in ("reference", "vectorized"):
        best = None
        for _ in range(repeats):
            slots_per_sec, seconds, result = run_engine(
                engine, arch, slots, warmup
            )
            if best is None or seconds < best[1]:
                best = (slots_per_sec, seconds, result)
        results[engine] = best[2]
        engines[engine] = {
            "slots_per_sec": round(best[0], 1),
            "seconds": round(best[1], 4),
        }
    return engines, results


def run_benchmark(slots: int = 600, warmup: int = 100, repeats: int = 3) -> dict:
    """Both engines on every fabric's operating point; returns the report."""
    report = {
        "benchmark": "slotloop",
        "architecture": ARCH,
        "ports": PORTS,
        "load": LOAD,
        "seed": SEED,
        "arrival_slots": slots,
        "warmup_slots": warmup,
        "repeats": repeats,
        "python": platform.python_version(),
        "fabrics": {},
    }
    for arch in FABRICS:
        engines, results = run_fabric(arch, slots, warmup, repeats)
        speedup = round(
            engines["vectorized"]["slots_per_sec"]
            / engines["reference"]["slots_per_sec"],
            2,
        )
        identical = results["reference"] == results["vectorized"]
        report["fabrics"][arch] = {
            "reference_slots_per_sec": engines["reference"]["slots_per_sec"],
            "vectorized_slots_per_sec": engines["vectorized"]["slots_per_sec"],
            "speedup": speedup,
            "identical_results": identical,
        }
        if arch == ARCH:
            report["engines"] = engines
            report["speedup"] = speedup
            report["identical_results"] = identical
            report["energy_total_j"] = results["vectorized"].energy.total_j
            report["throughput"] = results["vectorized"].throughput
    return report


def all_identical(report: dict) -> bool:
    return all(f["identical_results"] for f in report["fabrics"].values())


def test_slotloop_speedup_and_equivalence():
    """Pytest entry: >= 5x on the 32-port banyan, every fabric identical."""
    report = run_benchmark(slots=400, warmup=50)
    print()
    print(json.dumps(report, indent=2))
    assert all_identical(report), "engines diverged on seeded results"
    assert report["speedup"] >= 5.0, (
        f"vectorized engine is only {report['speedup']}x the reference "
        "(needs >= 5x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_slotloop.json", help="report path"
    )
    parser.add_argument("--slots", type=int, default=600)
    parser.add_argument("--warmup", type=int, default=100)
    args = parser.parse_args(argv)
    report = run_benchmark(slots=args.slots, warmup=args.warmup)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for arch, f in report["fabrics"].items():
        print(
            f"{arch} {PORTS}x{PORTS} @ load {LOAD}: reference "
            f"{f['reference_slots_per_sec']:.0f} slots/s, vectorized "
            f"{f['vectorized_slots_per_sec']:.0f} slots/s ({f['speedup']}x), "
            f"identical={f['identical_results']}"
        )
    print(f"-> {args.output}")
    return 0 if all_identical(report) and report["speedup"] >= 5 else 1


if __name__ == "__main__":
    raise SystemExit(main())
