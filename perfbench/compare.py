"""Compare two sets of benchmark results (or summarise one).

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each set is a JSONL file of result records written by ``run.py``.  For
every workload and every end-to-end metric (untraced runs) it prints
the median and quartiles of each side and a verdict:

``better``
    the change wins at least nine tenths of the pairs (runs paired by
    seed, else by order; ties count for neither) and the medians differ
    by more than the base's interquartile distance;
``worse``
    the change's median is worse than the base's by more than the
    metric's bound in ``BENCHMARK.json``;
``unresolved``
    either side's spread (interquartile distance / median) is wider
    than the bound, unless every run of the change reads better than
    every run of the base;
``unchanged``
    otherwise.

It flags a digest that differs between the sides on the same seed,
and any run whose outputs were not correct, and shows per-layer
self-time deltas from the traced runs.  With one set it prints each
metric's median, quartiles and spread: a steadiness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def pairs(base: list[dict], change: list[dict], name: str):
    """Metric values paired by seed when the seeds match, else by order."""
    by_seed = {r["seed"]: r["metrics"][name]["value"] for r in base}
    matched = [
        (by_seed[r["seed"]], r["metrics"][name]["value"])
        for r in change if r["seed"] in by_seed
    ]
    if len(matched) == min(len(base), len(change)):
        return matched
    return [
        (a["metrics"][name]["value"], b["metrics"][name]["value"])
        for a, b in zip(base, change)
    ]


def verdict(base: list[float], change: list[float], paired, better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in paired)
    q1, med_a, q3 = quartiles(base)
    med_b = quartiles(change)[1]
    gain = sign * (med_b - med_a)
    if paired and wins >= 0.9 * len(paired) and gain > q3 - q1:
        return "better"
    if sign > 0:
        all_better = min(change) > max(base)
    else:
        all_better = max(change) < min(base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    if gain / med_a < -bound:
        return "worse"
    return "unchanged"


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.5g} [{q1:.5g}, {q3:.5g}]"


def report(base: list[dict], change: list[dict] | None, bench: dict) -> int:
    order = [w["name"] for w in bench["workloads"]]
    issues = 0
    for workload in order:
        a = [r for r in base if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload] if change else []
        if not a:
            continue
        print(f"== {workload}")
        a_plain = [r for r in a if not r["trace"]]
        b_plain = [r for r in b if not r["trace"]]
        for m in bench["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a_plain]
            if not va:
                continue
            line = f"  {name:14s} {m['unit']:5s} n={len(va):<3d} {fmt(va)}"
            if change is None:
                line += f"  spread {spread(va):.3f} (bound {m['bound']})"
            elif b_plain:
                vb = [r["metrics"][name]["value"] for r in b_plain]
                paired = pairs(a_plain, b_plain, name)
                delta = quartiles(vb)[1] / quartiles(va)[1] - 1.0
                v = verdict(va, vb, paired, m["better"], m["bound"])
                issues += v == "worse"
                line += (f"  ->  n={len(vb):<3d} {fmt(vb)}  {delta:+7.2%}  "
                         f"{v}")
            print(line)
        for r in a + b:
            if not r["correct"]:
                issues += 1
                side = "base" if r in a else "change"
                print(f"  INCORRECT {side} run, seed {r['seed']}: "
                      f"{'; '.join(r['problems']) or 'failed units'}")
        digests_a = {r["seed"]: r["digest"] for r in a}
        for r in b:
            if r["seed"] in digests_a and digests_a[r["seed"]] != r["digest"]:
                issues += 1
                print(f"  DIGEST DIFFERS on seed {r['seed']}")
        a_traced = [r for r in a if r["trace"]]
        b_traced = [r for r in b if r["trace"]]
        if a_traced and (b_traced or change is None):
            print("  per-layer (traced runs, medians):")
            for m in bench["per_layer"]:
                name = m["name"]
                va = [r["metrics"][name]["value"] for r in a_traced]
                vb = [r["metrics"][name]["value"] for r in b_traced]
                ma = statistics.median(va)
                mb = statistics.median(vb) if vb else None
                if not ma and not mb:
                    continue
                line = f"    {name:36s} {ma:12.6g} {m['unit']}"
                if mb is not None:
                    rel = f"{mb / ma - 1.0:+8.2%}" if ma else "     new"
                    line += f"  ->  {mb:12.6g}  {mb - ma:+12.6g}  {rel}"
                print(line)
    return issues


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark result sets (see module doc)."
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = load(args.base)
    change = load(args.change) if args.change else None
    issues = report(base, change, bench)
    return 1 if issues else 0


if __name__ == "__main__":
    sys.exit(main())
