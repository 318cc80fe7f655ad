"""The benchmark's own tests, at a tiny size.

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps it out of the repository's test collection: these
tests run the benchmark, they do not test the simulator.)
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import ROOT as ROOT_SPAN  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
        "--results", str(tmp_path / "results.jsonl"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    record = json.loads((tmp_path / "results.jsonl").read_text())
    for key in ("schema", "git_sha", "python", "numpy", "nproc", "seed",
                "raw", "digest"):
        assert key in record
    assert record["seed"] == 5
    # Untraced passes are timed against the host's speed; traced ones
    # take no samples.
    for p in record["raw"]["passes"]:
        assert (p["nominal_s"] is None) == p["traced"]
        assert (p["samples"] >= 2) != p["traced"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_nominal_seconds_scale_host_seconds_by_the_sampled_speed():
    speed = hostspeed.HostSpeed()
    start = time.perf_counter()
    speed.start()
    while time.perf_counter() - start < 12 * hostspeed.INTERVAL_S:
        pass
    speed.stop()
    elapsed = time.perf_counter() - start
    # Samples at both ends and on the timer in between; the slices'
    # own time is not the region's.
    assert len(speed.samples) >= 10
    assert 0 < speed.host(elapsed) < elapsed
    assert speed.nominal(elapsed) == pytest.approx(
        speed.host(elapsed) * statistics.fmean(speed.samples)
    )
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((HERE / "layers.json").read_text())
    assert list(layers) == [m["name"] for m in BENCH["per_layer"]]
    for entry in layers.values():
        assert set(entry["on"]) <= set(NAMES)


def _workload(cls, tmp_path, trace=False):
    w = cls(5, tmp_path, size="tiny", trace=trace)
    w.setup()
    return w


def test_corrupted_export_fails_the_output_check(tmp_path):
    w = _workload(workloads.WarmReplay, tmp_path)
    clean = w.run_pass()
    assert clean.problems == [] and clean.failed == 0
    name = sorted(w.expected)[0]
    text = w.expected[name]
    w.expected[name] = text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]
    corrupt = w.run_pass()
    assert corrupt.failed == 1
    assert any(name in p for p in corrupt.problems)


def test_an_export_that_changes_between_passes_fails(tmp_path, monkeypatch):
    from repro.campaigns.comparison import ComparisonRecord

    w = _workload(workloads.Fig9Cold, tmp_path)
    first = w.run_pass()
    original = ComparisonRecord.to_csv
    monkeypatch.setattr(ComparisonRecord, "to_csv",
                        lambda self: original(self).replace("0.", "1.", 1))
    second = w.run_pass()
    problems = w.check([first, second])
    assert any("different digests" in p for p in problems)


def test_pinned_digest_mismatch_fails(tmp_path, monkeypatch):
    w = _workload(workloads.Saturation, tmp_path)
    result = w.run_pass()
    w.tiny, w.seed = False, workloads.DEFAULT_SEED  # pose as a pinned run
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({w.name: "0" * 64}))
    monkeypatch.setattr(workloads, "DIGESTS", pins)
    assert "digest differs from the pinned one" in w.check([result])


def test_traced_spans_cover_the_timed_pass(tmp_path):
    w = _workload(workloads.Fig9Cold, tmp_path, trace=True)
    result = w.run_pass(traced=True)
    tracer = w.tracer
    root = tracer.names.index(ROOT_SPAN)
    (idx,) = [i for i, n in enumerate(tracer.span_name) if n == root]
    root_ns = tracer.span_end[idx] - tracer.span_start[idx]
    # Self times partition the root span exactly ...
    assert sum(tracer.self_ns) == root_ns
    # ... and the root span is the timed pass.
    assert abs(root_ns / 1e9 - result.wall_s) < 0.01 * result.wall_s + 1e-3
    for name in ("router.traffic", "sim.engine", "sim.cellstore",
                 "fabrics.core.banyan", "campaigns", "api.store.put"):
        assert result.table.get(name, 0) > 0, name
    path = tmp_path / "spans.jsonl"
    count = w.write_spans(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == count == len(tracer)
    for span in spans:
        parent = span["parent"]
        if parent is None:
            assert span["name"] == ROOT_SPAN
            continue
        assert parent < span["id"]
        outer = spans[parent]
        assert outer["start_ns"] <= span["start_ns"] <= span["end_ns"]
        assert span["end_ns"] <= outer["end_ns"]


def _record(workload, seed, value, digest="d", trace=0):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": True, "digest": digest, "problems": [],
        "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                    for m in BENCH["end_to_end"]},
    }


@pytest.mark.parametrize(
    "base, change, expected",
    [
        ([10.0 + 0.01 * i for i in range(10)],
         [9.0 + 0.01 * i for i in range(10)], "better"),
        ([10.0 + 0.01 * i for i in range(10)],
         [12.0 + 0.01 * i for i in range(10)], "worse"),
        ([10.0 + 0.01 * i for i in range(10)],
         [10.0 + 0.01 * i for i in range(10)], "unchanged"),
        ([10.0 + (5.0 if i % 2 else 0.0) for i in range(10)],
         [10.5 + (5.0 if i % 2 else 0.0) for i in range(10)], "unresolved"),
    ],
)
def test_compare_verdicts(base, change, expected):
    paired = list(zip(base, change))
    assert compare.verdict(base, change, paired, "lower", 0.15) == expected


def test_compare_flags_a_digest_change_on_the_same_seed(capsys):
    base = [_record("saturation", s, 1.0, digest="a") for s in range(3)]
    change = [_record("saturation", s, 1.0, digest="a") for s in range(3)]
    change[1]["digest"] = "b"
    assert compare.report(base, change, BENCH) == 1
    assert "DIGEST DIFFERS on seed 1" in capsys.readouterr().out
