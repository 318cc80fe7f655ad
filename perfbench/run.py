"""The simulator's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Each workload runs in fresh worker
processes (``worker.py``) against the package under ``src/``:

* ``--trace 0`` sets the workload up three times (two set-up-only
  processes, then the measuring one) and reports the median set-up
  time, the median pass time and the peak RSS — every ``end_to_end``
  metric of ``BENCHMARK.json`` — with tracing off.  Times are nominal
  seconds: host seconds times the host's speed, sampled while they
  run (``hostspeed.py``); host seconds are recorded beside them;
* ``--trace 1`` alternates untraced and traced passes in one process
  and reports every ``per_layer`` metric (self time and counts per
  layer, plus the tracing overhead), prints the self-time table and
  writes the spans to ``.perfbench/spans/<workload>-<seed>.jsonl``.

Outputs are checked on every run (see ``workloads.py``).  The last line
of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Every run also appends a full result record (schema
version, git sha, versions, raw per-pass values, digest, problems) to
``.perfbench/results.jsonl`` or ``--results``; ``compare.py`` reads
those.  The exit code is 0 when the outputs are correct, 1 when they
are not or a worker failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ROOT as ROOT_SPAN
from workloads import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = 1
#: Every run must end within this many seconds, workers included.
DEADLINE_S = 170.0
#: Set-ups per ``--trace 0`` run (the median is reported).
SETUPS = 3


class WorkerError(RuntimeError):
    pass


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_worker(args, mode: str, workdir: Path, deadline: float,
               spans: Path | None = None) -> dict:
    """Spawn one worker in its own process group; return its JSON."""
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--workdir", str(workdir), "--size", args.size,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} worker overran the {DEADLINE_S:.0f} s "
                          "deadline")
    finally:
        # Reap anything the worker left in its group (a server).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for self-tests")
    parser.add_argument("--results", type=Path,
                        default=ROOT / ".perfbench" / "results.jsonl",
                        help="JSONL file the result record is appended to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    spans = None
    if args.trace:
        spans = ROOT / ".perfbench" / "spans" / f"{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            main_out = run_worker(args, "trace", work / "trace", deadline,
                                  spans)
            setup_outs = [main_out]
        else:
            setup_outs = [
                run_worker(args, "setup", work / f"setup{i}", deadline)
                for i in range(SETUPS - 1)
            ]
            main_out = run_worker(args, "measure", work / "measure", deadline)
            setup_outs.append(main_out)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups = [out["setup_s"] for out in setup_outs]
    host_setups = [out["setup_host_s"] for out in setup_outs]
    passes = main_out["passes"]
    plain = [p["nominal_s"] for p in passes if not p["traced"]]
    host_plain = [p["wall_s"] for p in passes if not p["traced"]]
    attempted = sum(p["units"] for p in passes)
    problems = main_out["problems"]
    failed = sum(p["failed"] for p in passes) + len(problems)
    extra = dict(main_out["extra"])
    extra["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    extra["host_setup_s"] = {"value": statistics.median(host_setups),
                             "unit": "s"}
    extra["host_wall_s"] = {"value": statistics.median(host_plain),
                            "unit": "s"}

    if args.trace:
        layers = dict(main_out["layers"])
        layers["trace.overhead_frac"] = main_out["overhead_frac"]
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": main_out["peak_rss_mb"],
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  size {args.size}")
    if args.trace:
        table = main_out["table"]
        total = sum(table.values())
        print(f"  self time per pass ({len(plain)} untraced / "
              f"{len(passes) - len(plain)} traced passes, "
              f"overhead {main_out['overhead_frac']:+.1%}):")
        for name, value in sorted(table.items(), key=lambda kv: -kv[1]):
            label = "(uncovered by any span)" if name == ROOT_SPAN else name
            print(f"    {label:32s} {value:10.4f} s  {value / total:6.1%}")
        print(f"    {'total':32s} {total:10.4f} s")
        if spans is not None:
            print(f"  {main_out.get('spans', 0)} spans -> {spans}")
    print("  metrics:")
    for name, m in list(metrics.items()) + list(extra.items()):
        print(f"    {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  setups: {', '.join(f'{s:.3f}' for s in setups)} s; "
          f"passes: {', '.join(f'{w:.3f}' for w in plain)} s (nominal)")
    print(f"  setups: {', '.join(f'{s:.3f}' for s in host_setups)} s; "
          f"passes: {', '.join(f'{w:.3f}' for w in host_plain)} s (host)")
    print(f"  digest {main_out['digest']}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **environment(ROOT),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "raw": {"setup_s": setups, "setup_host_s": host_setups,
                "passes": passes},
        "digest": main_out["digest"],
        "problems": problems,
    }
    if args.trace:
        record["table"] = main_out["table"]
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with args.results.open("a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
