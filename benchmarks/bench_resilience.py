"""Supervisor overhead benchmark: resilience must be ~free when idle.

Every batch now runs its execution units under the
:class:`~repro.resilience.supervisor.Supervisor` (retry ladder,
deadlines, checkpoint hooks).  The gate: on a fault-free run of the
VOQ workload the supervised batch costs at most 3% over executing the
same per-scenario units directly, and its results are bit-identical.  A
fault-injected pass (transient error, recovered by retry) is also
checked for bit-identical results — the recovery path is exercised,
not just the happy path.

Run as a script (what CI does) to write the machine-readable artifact::

    PYTHONPATH=src python benchmarks/bench_resilience.py \
        --output BENCH_resilience.json

or through pytest alongside the other benches::

    pytest benchmarks/bench_resilience.py -s
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.api import PowerModel, Scenario
from repro.resilience import BatchReport, Fault, FaultPlan, RetryPolicy

ARCH = "crossbar"
PORTS = 16
LOADS = (0.3, 0.5, 0.7, 0.9)
SEED = 2002
OVERHEAD_GATE = 0.03


def scenarios(slots: int, warmup: int) -> list[Scenario]:
    return [
        Scenario(
            ARCH,
            PORTS,
            load,
            queueing="voq",
            islip_iterations=2,
            arrival_slots=slots,
            warmup_slots=warmup,
            seed=SEED,
        )
        for load in LOADS
    ]


def run_direct(slots: int, warmup: int):
    """The unsupervised floor: execute each scenario's unit directly."""
    session = PowerModel()
    batch = scenarios(slots, warmup)
    start = time.perf_counter()
    records = [session._run_unit([s])[0] for s in batch]
    return time.perf_counter() - start, records


def run_supervised(slots: int, warmup: int, faults=None):
    """The same units through run_batch under a real retry policy."""
    session = PowerModel()
    report = BatchReport()
    retry = RetryPolicy(max_attempts=3, backoff_s=0.001)
    start = time.perf_counter()
    records = session.run_batch(
        scenarios(slots, warmup),
        retry=retry,
        faults=faults,
        report=report,
    )
    return time.perf_counter() - start, records, report


def run_benchmark(
    slots: int = 600, warmup: int = 100, repeats: int = 3
) -> dict:
    """Direct vs supervised on the VOQ workload; returns the report.

    Best-of-``repeats`` wall-clock on both sides strips scheduler
    noise; the overhead figure is the supervised best over the direct
    best, minus one.
    """
    best_direct = None
    best_supervised = None
    direct_records = supervised_records = None
    for _ in range(repeats):
        seconds, records = run_direct(slots, warmup)
        if best_direct is None or seconds < best_direct:
            best_direct, direct_records = seconds, records
        seconds, records, _ = run_supervised(slots, warmup)
        if best_supervised is None or seconds < best_supervised:
            best_supervised, supervised_records = seconds, records
    overhead = best_supervised / best_direct - 1.0

    faults = FaultPlan(faults=(Fault("transient", 1),))
    _, recovered_records, fault_report = run_supervised(
        slots, warmup, faults=faults
    )

    return {
        "benchmark": "resilience",
        "architecture": ARCH,
        "ports": PORTS,
        "loads": list(LOADS),
        "queueing": "voq",
        "seed": SEED,
        "arrival_slots": slots,
        "warmup_slots": warmup,
        "repeats": repeats,
        "python": platform.python_version(),
        "direct_seconds": round(best_direct, 4),
        "supervised_seconds": round(best_supervised, 4),
        "supervisor_overhead": round(overhead, 4),
        "overhead_gate": OVERHEAD_GATE,
        "identical_results": (
            [r.detail for r in supervised_records]
            == [r.detail for r in direct_records]
        ),
        "fault_retries": fault_report.retries,
        "fault_recovered_identical": (
            [r.detail for r in recovered_records]
            == [r.detail for r in direct_records]
        ),
    }


def test_supervisor_overhead_and_recovery():
    """Pytest entry: <= 3% overhead, bit-identical with and without
    an injected transient fault."""
    report = run_benchmark(slots=400, warmup=80)
    print()
    print(json.dumps(report, indent=2))
    assert report["identical_results"], (
        "supervised batch diverged from direct execution"
    )
    assert report["fault_recovered_identical"], (
        "fault-recovered batch diverged from direct execution"
    )
    assert report["fault_retries"] >= 1
    assert report["supervisor_overhead"] <= OVERHEAD_GATE, (
        f"supervisor overhead {report['supervisor_overhead']:.1%} "
        f"exceeds the {OVERHEAD_GATE:.0%} gate"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_resilience.json", help="report path"
    )
    parser.add_argument("--slots", type=int, default=600)
    parser.add_argument("--warmup", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    report = run_benchmark(
        slots=args.slots, warmup=args.warmup, repeats=args.repeats
    )
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    ok = (
        report["identical_results"]
        and report["fault_recovered_identical"]
        and report["supervisor_overhead"] <= OVERHEAD_GATE
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
