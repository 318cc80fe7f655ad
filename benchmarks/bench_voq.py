"""VOQ/iSLIP slot-loop benchmark: vectorized vs reference slots/sec.

The acceptance benchmark of the vectorized VOQ path: run the 32-port
crossbar with VOQ ingress and 2-iteration iSLIP at 0.9 offered load
through both engines, verify the seeded results are bit-identical, and
report slots/sec plus the speedup.  This is the workload class the
paper's contention argument cares about most — and the one that ran
reference-only before the vectorized VOQ core.  The top-level fields
are that point's; ``fabrics`` holds the perfbench ``saturation`` point
(32 ports, load 0.9, K=4) for the crossbar and for the banyan, the only
VOQ path whose fabric admission blocks ports.  The script exits 1 if
any of them diverges.

Run as a script (what CI does) to write the machine-readable artifact::

    PYTHONPATH=src python benchmarks/bench_voq.py --output BENCH_voq.json

or through pytest alongside the other benches::

    pytest benchmarks/bench_voq.py -s
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_router
from repro.sim.vector_engine import VectorizedEngine

ARCH = "crossbar"
PORTS = 32
LOAD = 0.9
SEED = 2002
ISLIP_ITERATIONS = 2
FABRICS = ("crossbar", "banyan")
FABRIC_ITERATIONS = 4

_ENGINES = {
    "reference": SimulationEngine,
    "vectorized": VectorizedEngine,
}


def run_engine(
    engine: str,
    slots: int,
    warmup: int,
    arch: str = ARCH,
    iterations: int = ISLIP_ITERATIONS,
):
    """One timed run; returns (slots_per_sec, seconds, result)."""
    router = build_router(
        arch,
        PORTS,
        load=LOAD,
        queueing="voq",
        islip_iterations=iterations,
    )
    eng = _ENGINES[engine](router, seed=SEED)
    timed_slots = slots + warmup
    start = time.perf_counter()
    result = eng.run(slots, warmup_slots=warmup, drain=False)
    seconds = time.perf_counter() - start
    return timed_slots / seconds, seconds, result


def run_point(
    arch: str, iterations: int, slots: int, warmup: int, repeats: int
):
    """Both engines on one operating point; returns (engines, results).

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
                engine, slots, warmup, arch, iterations
            )
            if best is None or seconds < best[1]:
                best = (slots_per_sec, seconds, result)
        results[engine] = best[2]
        engines[engine] = {
            "slots_per_sec": round(best[0], 1),
            "seconds": round(best[1], 4),
        }
    return engines, results


def speedup(engines: dict) -> float:
    return round(
        engines["vectorized"]["slots_per_sec"]
        / engines["reference"]["slots_per_sec"],
        2,
    )


def run_benchmark(slots: int = 600, warmup: int = 100, repeats: int = 3) -> dict:
    """Both engines on the acceptance and saturation points; the report."""
    report = {
        "benchmark": "voq",
        "architecture": ARCH,
        "ports": PORTS,
        "load": LOAD,
        "queueing": "voq",
        "islip_iterations": ISLIP_ITERATIONS,
        "seed": SEED,
        "arrival_slots": slots,
        "warmup_slots": warmup,
        "repeats": repeats,
        "python": platform.python_version(),
    }
    engines, results = run_point(
        ARCH, ISLIP_ITERATIONS, slots, warmup, repeats
    )
    report["engines"] = engines
    report["speedup"] = speedup(engines)
    report["identical_results"] = results["reference"] == results["vectorized"]
    report["energy_total_j"] = results["vectorized"].energy.total_j
    report["throughput"] = results["vectorized"].throughput
    report["fabrics"] = {}
    for arch in FABRICS:
        engines, results = run_point(
            arch, FABRIC_ITERATIONS, slots, warmup, repeats
        )
        report["fabrics"][arch] = {
            "islip_iterations": FABRIC_ITERATIONS,
            "reference_slots_per_sec": engines["reference"]["slots_per_sec"],
            "vectorized_slots_per_sec": engines["vectorized"]["slots_per_sec"],
            "speedup": speedup(engines),
            "identical_results": (
                results["reference"] == results["vectorized"]
            ),
        }
    return report


def all_identical(report: dict) -> bool:
    return report["identical_results"] and all(
        f["identical_results"] for f in report["fabrics"].values()
    )


def test_voq_speedup_and_equivalence():
    """Pytest entry: >= 2x on the 32-port VOQ crossbar, identical results."""
    report = run_benchmark(slots=400, warmup=50)
    print()
    print(json.dumps(report, indent=2))
    assert report["identical_results"], "engines diverged on seeded results"
    assert report["speedup"] >= 2.0, (
        f"vectorized VOQ path is only {report['speedup']}x the reference "
        "(needs >= 2x)"
    )
    # VOQ + iSLIP must clear the FIFO HOL ceiling at this load.
    assert report["throughput"] > 0.8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_voq.json", help="report path"
    )
    parser.add_argument("--slots", type=int, default=600)
    parser.add_argument("--warmup", type=int, default=100)
    args = parser.parse_args(argv)
    report = run_benchmark(slots=args.slots, warmup=args.warmup)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    ref = report["engines"]["reference"]["slots_per_sec"]
    vec = report["engines"]["vectorized"]["slots_per_sec"]
    print(
        f"{ARCH} {PORTS}x{PORTS} VOQ/iSLIP-{ISLIP_ITERATIONS} @ load {LOAD}: "
        f"reference {ref:.0f} slots/s, vectorized {vec:.0f} slots/s "
        f"({report['speedup']}x), identical={report['identical_results']}"
    )
    for arch, f in report["fabrics"].items():
        print(
            f"{arch} {PORTS}x{PORTS} VOQ/iSLIP-{FABRIC_ITERATIONS} @ load "
            f"{LOAD}: reference {f['reference_slots_per_sec']:.0f} slots/s, "
            f"vectorized {f['vectorized_slots_per_sec']:.0f} slots/s "
            f"({f['speedup']}x), identical={f['identical_results']}"
        )
    print(f"-> {args.output}")
    # CI gate: every point identical, and the vectorized path never
    # slower than the reference on the acceptance point.
    return 0 if all_identical(report) and report["speedup"] >= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
