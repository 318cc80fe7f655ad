"""Which functions of ``src/repro`` no user path calls.

Runs each user path below in a fresh Python process under
``sys.setprofile`` and ``threading.setprofile``, keeps the code objects
it calls, and matches them to the function definitions ``ast`` finds
under ``src/repro`` (a code object's first line is its first
decorator's).  Pool workers forked by ``--workers N`` are traced
too.  It prints every function no path called as
``file:line name lines``, sorted, with each file's total after its
functions and the overall total last.  A function nested in an
unreached one is counted in that one's lines and not listed again, so
each source line counts once.

The user paths:

* ``tests/test_golden.py`` and every ``examples/*.py``;
* the ``repro`` calls of the CI smoke steps: ``batch`` with and without
  a cache, ``estimate``, ``campaign run fig9`` cold and warm,
  ``surrogate train`` and ``eval``, ``network run`` cold and warm and
  ``report``, ``control run`` cold and warm, the chaos job's corrupted
  cache, fault-plan run and ``--resume``, and every preset's
  ``--dry-run`` plan;
* ``repro serve`` driven through ``/health``, ``/predict``, ``/batch``
  and ``/stats``;
* ``simulate`` on both engines with FIFO and VOQ queues, ``sweep``,
  ``table1``, ``table2``, a DRAM-buffered banyan ``batch`` and a
  Batcher-Banyan ``expected``-wire estimate.

Steps that share a file (a cache, a model) run in order as one chain;
chains run in parallel.  Left out: the chaos job's hang-and-crash fault
plan, which waits out a 20 s timeout, so the supervisor's pool-respawn
paths read as unreached.

    PYTHONPATH=src python tests/reachability.py > reachability.txt
    PYTHONPATH=src python tests/reachability.py --only table2

A ``diff`` of the report from two checkouts names what a change left
unreached.  Exits 1 if any traced step fails.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Traced processes at a time: a CI runner has two cores.
JOBS = 2

#: A fault plan whose transient fault at unit 4 outlives two retries,
#: leaving one hole for ``--resume`` (the chaos job's plan).
_KILL_PLAN = {
    "faults": [{"kind": "transient", "unit": 4, "attempts": [1, 2, 3]}]
}

#: A DRAM-buffered banyan, simulated and estimated.
_DRAM_SCENARIOS = [
    {"architecture": "banyan", "ports": 8, "load": 0.6,
     "buffer_memory": "dram", "backend": backend,
     "arrival_slots": 120, "warmup_slots": 20, "seed": 7}
    for backend in ("simulate", "estimate")
]

_CORRUPT = (
    "import sys; from repro.resilience import corrupt_line; "
    "corrupt_line(sys.argv[1], line_index=3, mode='truncate'); "
    "corrupt_line(sys.argv[1], line_index=-1, mode='garbage', seed=2002)"
)


def chains(tmp: Path) -> list[list[tuple[str, list[str]]]]:
    """The user paths: chains of ``(name, argv)`` steps, longest first."""
    from repro.campaigns.presets import PRESET_CAMPAIGNS
    from repro.control.presets import CONTROL_PRESETS
    from repro.network.presets import NETWORK_PRESETS

    def repro(*args: str) -> list[str]:
        return ["-m", "repro", *args]

    def t(name: str) -> str:
        return str(tmp / name)

    scenarios = "examples/scenarios.json"
    chaos = ("--cache", t("chaos.jsonl"))
    fig9_cache = ("--cache", t("campaign.jsonl"))
    net_cache = ("--cache", t("network.jsonl"), "--figures", t("net.jsonl"))
    out = [
        [("golden", ["tests/test_golden.py"])],
        [
            ("fig9-clean", repro("campaign", "run", "fig9", *chaos,
                                 "--csv", t("clean.csv"), "--format", "csv")),
            ("corrupt-cache", ["-c", _CORRUPT, t("chaos.jsonl")]),
            ("fig9-quarantine", repro("campaign", "run", "fig9", *chaos,
                                      "--format", "csv")),
            ("fig9-fault-plan", repro(
                "campaign", "run", "fig9", "--retries", "2",
                "--fault-plan", t("kill.json"),
                "--journal", t("journal.jsonl"), "--format", "csv")),
            ("fig9-resume", repro(
                "campaign", "run", "fig9", "--retries", "2",
                "--journal", t("journal.jsonl"), "--resume",
                "--format", "csv")),
        ],
        [
            ("campaign-list", repro("campaign", "list")),
            ("fig9-cold", repro(
                "campaign", "run", "fig9", "--workers", "2",
                *fig9_cache, "--csv", t("fig9.csv"), "--json",
                t("fig9.json"))),
            ("fig9-warm", repro("campaign", "run", "fig9", *fig9_cache)),
            ("surrogate-train", repro(
                "surrogate", "train", t("campaign.jsonl"),
                "--output", t("model.json"))),
            ("surrogate-eval", repro(
                "surrogate", "eval", t("model.json"), t("campaign.jsonl"),
                "--fail-on-drift")),
            ("serve", repro(
                "serve", t("model.json"), "--port", "0", *fig9_cache,
                "--journal", t("serve.jsonl"))),
        ],
        [
            ("network-list", repro("network", "list")),
            ("network-cold", repro(
                "network", "run", "dumbbell_switchoff", "--workers", "2",
                *net_cache, "--csv", t("net.csv"), "--json", t("net.json"))),
            ("network-warm", repro(
                "network", "run", "dumbbell_switchoff", *net_cache)),
            ("network-report", repro(
                "network", "report", "dumbbell_switchoff", *net_cache)),
        ],
        [
            ("control-list", repro("control", "list")),
            *[
                (f"control-{run}", repro(
                    "control", "run", "dumbbell_sleep_sweep", "--workers",
                    "2", "--figures", t("control.jsonl"), "--csv",
                    t("control.csv"), "--sla-csv", t("sla.csv"), "--json",
                    t("control.json")))
                for run in ("cold", "warm")
            ],
        ],
        [
            ("batch-cache-cold", repro(
                "batch", scenarios, "--workers", "2", "--cache",
                t("records.jsonl"), "--format", "table")),
            ("batch-cache-warm", repro(
                "batch", scenarios, "--cache", t("records.jsonl"))),
        ],
        *[
            [(f"example:{path.stem}", [f"examples/{path.name}"])]
            for path in sorted((ROOT / "examples").glob("*.py"))
        ],
        [("table1", repro("table1"))],
        [("batch", repro("batch", scenarios, "--workers", "4", "--format",
                         "csv", "--output", t("report.csv")))],
        [("batch-dram", repro("batch", t("dram.json"), "--format", "table"))],
        [("estimate", repro("estimate", "--arch", "banyan", "--ports", "32",
                            "--throughput", "0.3", "--wire-mode",
                            "expected"))],
        [("estimate-batcher-expected", repro(
            "estimate", "--arch", "batcher_banyan", "--ports", "16",
            "--wire-mode", "expected"))],
        [("sweep", repro("sweep", "--arch", "banyan", "--ports", "4",
                         "--slots", "100", "--loads", "0.1", "0.3"))],
        [("table2", repro("table2"))],
    ]
    out += [
        [(f"simulate-{engine}-{queueing}", repro(
            "simulate", "--arch", "banyan", "--ports", "8", "--load", "0.6",
            "--slots", "80", "--warmup", "10", "--engine", engine,
            "--queueing", queueing,
            *(("--islip-iterations", "2") if queueing == "voq" else ())))]
        for engine in ("vectorized", "reference")
        for queueing in ("fifo", "voq")
    ]
    for kind, presets in (("campaign", PRESET_CAMPAIGNS),
                          ("network", NETWORK_PRESETS),
                          ("control", CONTROL_PRESETS)):
        out += [
            [(f"{kind}-dry:{name}", repro(kind, "run", name, "--dry-run"))]
            for name in presets
        ]
    return out


# ----------------------------------------------------------------------
# The traced process
# ----------------------------------------------------------------------


def trace(out: Path, argv: list[str]) -> int:
    """Run ``argv`` (``-m module ...``, ``-c code ...`` or a script) as
    ``__main__`` under the profiler; write the called code objects of
    ``src/repro`` to ``out`` and return the exit code."""
    import runpy
    import traceback
    from multiprocessing import util

    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump(path: Path) -> None:
        sys.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        called = {
            (code.co_filename, code.co_firstlineno, code.co_name)
            for code in list(seen)
            if code.co_filename.startswith(prefix)
        }
        path.write_text(json.dumps(sorted(called)))

    def forked(_: object) -> None:
        # A forked pool worker leaves by os._exit, past atexit, but
        # runs the multiprocessing finalizers first.
        util.Finalize(
            None, dump, args=(Path(f"{out}.{os.getpid()}"),),
            exitpriority=0,
        )

    util.register_after_fork(dump, forked)
    if argv[0] == "-m":
        sys.argv, sys.path[0] = argv[1:], os.getcwd()
    elif argv[0] == "-c":
        sys.argv, sys.path[0] = ["-c", *argv[2:]], ""
    else:
        sys.argv = argv
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
    code = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        elif argv[0] == "-c":
            code_object = compile(argv[1], "<string>", "exec")
            exec(code_object, {"__name__": "__main__"})
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        if isinstance(exc.code, int) or exc.code is None:
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        threading.setprofile(None)
        dump(out)
    return code


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _drive_server(proc: subprocess.Popen, model: Path) -> None:
    """Query a traced ``repro serve`` on every endpoint."""
    for line in proc.stderr:
        match = re.search(r"http://\S+", line)
        if match:
            break
    else:
        raise RuntimeError("repro serve exited before it bound a port")
    base = match.group(0)

    def call(path: str, body: object = None) -> object:
        data = None if body is None else json.dumps(body).encode()
        with urllib.request.urlopen(base + path, data, timeout=120) as r:
            return json.load(r)

    context, by_ports = next(iter(json.loads(model.read_text())["groups"]
                                  .items()))
    ports, curve = next(iter(by_ports.items()))
    query = dict(json.loads(context), ports=int(ports),
                 load=curve["points"][0][0])
    call("/health")
    call("/predict", query)
    call("/predict", query)  # the memo answers a repeat
    call("/predict", dict(query, load=0.95))  # out of range: a fallback
    call("/batch", {"scenarios": [query]})
    call("/stats")


def _run_step(name: str, argv: list[str], out: Path, tmp: Path,
              env: dict[str, str]) -> tuple[int, str]:
    cmd = [sys.executable, __file__, "--trace", str(out), *argv]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    note = ""
    if name == "serve":
        try:
            _drive_server(proc, tmp / "model.json")
        except Exception as exc:
            note = f"{type(exc).__name__}: {exc}\n"
        proc.send_signal(signal.SIGTERM)
    _, err = proc.communicate()
    return (proc.returncode or (1 if note else 0)), note + err


def run(selected: list[list[tuple[str, list[str]]]], traces: Path,
        tmp: Path) -> list[str]:
    """Run the chains (a chain stops at its first failed step); return
    the names of the failed steps."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    failed: list[str] = []
    steps = itertools.count()

    def run_chain(chain: list[tuple[str, list[str]]]) -> None:
        for name, argv in chain:
            start = time.perf_counter()
            code, err = _run_step(
                name, argv, traces / f"{next(steps)}.json", tmp, env
            )
            print(f"{time.perf_counter() - start:7.1f}s  exit {code}  "
                  f"{name}", file=sys.stderr, flush=True)
            if code:
                failed.append(name)
                print(err[-3000:], file=sys.stderr, flush=True)
                return

    with ThreadPoolExecutor(JOBS) as pool:
        list(pool.map(run_chain, selected))
    return failed


def definitions() -> dict[tuple[str, int, str], tuple[str, int, tuple | None]]:
    """Every function under ``src/repro``: ``(file, first line, name)``
    -> ``(qualified name, lines, enclosing function's key)``."""
    defs: dict[tuple[str, int, str], tuple[str, int, tuple | None]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node: ast.AST, prefix: str, parent: tuple | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    key = (str(path), first, child.name)
                    defs[key] = (prefix + child.name,
                                 child.end_lineno - first + 1, parent)
                    visit(child, f"{prefix}{child.name}.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return defs


def report(called: set[tuple[str, int, str]]) -> str:
    """The unreached functions, per-file and overall totals."""
    defs = definitions()
    unreached = {key for key in defs if key not in called}
    lines: list[str] = []
    count = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        rows = sorted(
            key for key in unreached
            if key[0] == str(path) and defs[key][2] not in unreached
        )
        for key in rows:
            name, span, _ = defs[key]
            lines.append(f"{rel}:{key[1]} {name} {span}")
        if rows:
            spans = sum(defs[key][1] for key in rows)
            lines.append(f"{rel}: {len(rows)} functions, {spans} lines")
            count += len(rows)
            total += spans
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in SRC.rglob("*.py")
    )
    lines.append(
        f"unreached: {count} functions, {total} of {src_lines} lines "
        f"({100.0 * total / src_lines:.1f}%)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--trace"]:  # one traced step, run by :func:`run`
        return trace(Path(argv[1]), argv[2:])
    parser = argparse.ArgumentParser(
        description="Trace the user paths; print the functions of "
        "src/repro that none of them calls."
    )
    parser.add_argument(
        "--only", action="append", metavar="STEP",
        help="run only the chains that hold this step (repeatable)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        tmp = Path(scratch)
        traces = tmp / "traces"
        traces.mkdir()
        (tmp / "kill.json").write_text(json.dumps(_KILL_PLAN))
        (tmp / "dram.json").write_text(json.dumps(_DRAM_SCENARIOS))
        selected = [
            chain for chain in chains(tmp)
            if not args.only or any(name in args.only for name, _ in chain)
        ]
        if not selected:
            parser.error(f"no step named {args.only}")
        failed = run(selected, traces, tmp)
        called = set()
        for path in traces.iterdir():
            called.update(tuple(row) for row in json.loads(path.read_text()))
    print(report(called))
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
