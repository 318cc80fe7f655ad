"""Scale benchmark: k=16 fat-tree wall-clock, memory, warm identity.

The acceptance benchmark of the scale tier: run the 320-switch
``fat_tree_k16`` preset, check that its tracemalloc peak stays bounded,
that a warm re-run from a shared store simulates nothing, and that the
cold and warm runs export byte-identically.  A regression here means a
large network stops scaling in memory or a store round trip changes a
record.

Run as a script (what CI does) to write the machine-readable artifact::

    PYTHONPATH=src python benchmarks/bench_scale.py --output BENCH_scale.json

or through pytest alongside the other benches::

    pytest benchmarks/bench_scale.py -s
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
import tracemalloc
from pathlib import Path

from repro.api.model import PowerModel
from repro.api.store import RunRecordStore
from repro.network import NetworkPowerModel, get_network

PRESET = "fat_tree_k16"

#: tracemalloc peak bound for one run (bytes).  Measured a few MB on
#: the estimate backend; the bound leaves an order of magnitude of
#: headroom while still catching record leaks and O(n^2) aggregation
#: regressions.
PEAK_BOUND_BYTES = 64 * 1024 * 1024


def exports(record) -> tuple[str, str, str]:
    """The record's three exports: JSON, node CSV and link CSV."""
    return record.to_json(), record.to_csv(), record.links_to_csv()


def run_benchmark(repeats: int = 3) -> dict:
    """Timed, traced, cold and warm k=16 runs; returns the report.

    The timed runs report their best (minimum wall-clock) repetition
    with a fresh model each time; one more run, after them, is traced
    for its memory peak.  The warm pass re-reads a store filled by the
    cold pass, so any extra miss means the warm run re-simulated part
    of the scenario grid.
    """
    spec = get_network(PRESET)
    report = {
        "benchmark": "scale",
        "preset": PRESET,
        "nodes": len(spec.topology.nodes),
        "links": len(spec.topology.links),
        "routing": spec.routing,
        "repeats": repeats,
        "python": platform.python_version(),
    }
    best = None
    for _ in range(repeats):
        model = NetworkPowerModel(PowerModel())
        start = time.perf_counter()
        model.run(spec)
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    model = NetworkPowerModel(PowerModel())
    tracemalloc.start()
    try:
        model.run(spec)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with tempfile.TemporaryDirectory() as tmp:
        store = RunRecordStore(Path(tmp) / "records.jsonl")
        cold = NetworkPowerModel(PowerModel()).run(spec, store=store)
        cold_misses = store.misses
        start = time.perf_counter()
        warm = NetworkPowerModel(PowerModel()).run(spec, store=store)
        warm_seconds = time.perf_counter() - start
        warm_misses = store.misses - cold_misses
    report["seconds"] = round(best, 4)
    report["warm_seconds"] = round(warm_seconds, 4)
    report["warm_extra_misses"] = warm_misses
    report["peak_bytes"] = peak_bytes
    report["peak_bound_bytes"] = PEAK_BOUND_BYTES
    report["identical_exports"] = exports(cold) == exports(warm)
    report["total_power_w"] = warm.totals["power_w"]
    report["max_link_utilization"] = warm.totals["max_link_utilization"]
    return report


def gates(report: dict) -> bool:
    """The CI gate: identity, zero warm misses, bounded memory."""
    return (
        report["identical_exports"]
        and report["warm_extra_misses"] == 0
        and report["peak_bytes"] < report["peak_bound_bytes"]
    )


def test_scale_identity_misses_and_memory():
    """Pytest entry: cold == warm, warm simulates nothing, bounded."""
    report = run_benchmark(repeats=2)
    print()
    print(json.dumps(report, indent=2))
    assert report["identical_exports"], "cold and warm exports diverged"
    assert report["warm_extra_misses"] == 0, "warm run missed the cache"
    assert report["peak_bytes"] < report["peak_bound_bytes"], (
        "run exceeded the memory bound"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default="BENCH_scale.json", help="report path"
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    report = run_benchmark(repeats=args.repeats)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(
        f"{PRESET} ({report['nodes']} routers): "
        f"{report['seconds']}s, warm {report['warm_seconds']}s, peak "
        f"{report['peak_bytes']} B, identical="
        f"{report['identical_exports']}, warm_extra_misses="
        f"{report['warm_extra_misses']} -> {args.output}"
    )
    return 0 if gates(report) else 1


if __name__ == "__main__":
    raise SystemExit(main())
