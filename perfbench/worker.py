"""One benchmark process: set up a workload, run timed passes, check.

Spawned by ``run.py`` in a fresh interpreter so that set-up time counts
from process start (``--spawned-at`` is the parent's monotonic clock
just before the spawn).  Prints one JSON object on stdout.

Modes:

``setup``
    Set up, report ``setup_s`` (nominal seconds, the host's speed
    sampled as in ``hostspeed.py``) and ``setup_host_s``, tear down.
``measure``
    Set up, then run untraced passes until ``--seconds`` have elapsed
    (at least one), then check the outputs.  Reports each pass's host
    and nominal seconds.
``trace``
    Set up, then alternate an untraced and a traced pass until
    ``--seconds`` have elapsed (at least one pair); report per-layer
    metrics and the tracing overhead, and write the spans as JSONL.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from workloads import WORKLOADS


def _median_table(tables: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({name for table in tables for name in table})
    return {
        name: statistics.median(t.get(name, 0.0) for t in tables)
        for name in names
    }


def measure(workload, seconds: float, trace: bool, results: list) -> dict:
    start = time.monotonic()
    while not results or time.monotonic() - start < seconds:
        results.append(workload.run_pass())
        if trace:
            results.append(workload.run_pass(traced=True))
    plain = [r for r in results if not r.traced]
    traced = [r for r in results if r.traced]
    out = {
        "passes": [r.summary() for r in results],
        "problems": workload.check(results),
        "digest": workload.digest(results),
        "extra": workload.extra_metrics(plain),
    }
    if not trace:
        out["peak_rss_mb"] = workload.peak_rss_mb()
        return out
    plain_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    out["overhead_frac"] = traced_wall / plain_wall - 1.0
    out["layers"] = {
        name: statistics.median(r.layers[name] for r in traced)
        for name in traced[0].layers
    }
    out["table"] = _median_table([r.table for r in traced])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--spans", help="JSONL path for a traced run's spans")
    args = parser.parse_args(argv)

    trace = args.mode == "trace"
    workload = WORKLOADS[args.workload](
        args.seed, Path(args.workdir), size=args.size, trace=trace
    )
    results: list = []
    speed = HostSpeed()
    try:
        speed.start()
        try:
            workload.setup()
        finally:
            speed.stop()
        elapsed = time.monotonic() - args.spawned_at
        out = {"setup_s": speed.nominal(elapsed),
               "setup_host_s": speed.host(elapsed)}
        if args.mode != "setup":
            out.update(
                measure(workload, args.seconds, trace, results)
            )
    finally:
        workload.teardown()
    if trace:
        layers, table = workload.teardown_trace(
            [r for r in results if r.traced]
        )
        out["layers"].update(layers)
        out["table"].update(table)
        if args.spans:
            out["spans"] = workload.write_spans(Path(args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
