"""The benchmark's workloads: inputs from a seed, timed passes, checks.

Each workload builds its inputs from the seed in :meth:`Workload.setup`
(imports, sessions, store fills, corpus and server start all count as
set-up), runs one fixed unit of work per :meth:`Workload.run_pass`, and
checks the program's outputs in :meth:`Workload.check`, outside the
timed region.  ``size="tiny"`` shrinks every workload to a few seconds
for the benchmark's own tests; pinned digests apply to ``"full"`` only.

Batch workloads run serially in this process (``workers=1``): on a
small shared machine a pool measures the scheduler, and only in-process
calls can be traced from outside.  The ``repro`` imports sit inside the
methods so that each workload's set-up pays only for what it uses, and
so that a traced pass picks up the wrapped functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hostspeed import HostSpeed
from tracing import (
    BATCH_TARGETS,
    ROOT,
    Tracer,
    batch_layer_metrics,
    diff,
    installed,
)

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: The seed that reproduces the presets; digests are pinned for it.
DEFAULT_SEED = 2002


def strip_timing(value: Any) -> Any:
    """Drop host-time fields (``elapsed_s``) at any depth."""
    if isinstance(value, dict):
        return {
            k: strip_timing(v) for k, v in value.items() if k != "elapsed_s"
        }
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def canonical_record(record) -> str:
    """A run record's cache dict without timing, as canonical JSON."""
    return json.dumps(strip_timing(record.to_cache_dict()), sort_keys=True)


def export_digest(exports: dict[str, str]) -> str:
    """sha256 over named exports; JSON exports lose timing fields."""
    h = hashlib.sha256()
    for name in sorted(exports):
        text = exports[name]
        if name.endswith(".json"):
            text = json.dumps(strip_timing(json.loads(text)), sort_keys=True)
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def record_problems(records, label: str) -> list[str]:
    """Cheap physical invariants of simulated records."""
    problems = []
    for r in filter(None, records):
        powers = (r.total_power_w, r.switch_power_w, r.wire_power_w,
                  r.buffer_power_w)
        if not all(math.isfinite(p) and p >= 0.0 for p in powers):
            problems.append(f"{label}: negative or non-finite power in "
                            f"{r.scenario.label}")
        elif r.total_power_w <= 0.0:
            problems.append(f"{label}: zero power in {r.scenario.label}")
        if not 0.0 <= r.throughput <= 1.0:
            problems.append(f"{label}: throughput {r.throughput} out of "
                            f"[0, 1] in {r.scenario.label}")
    return problems


def port_slots(scenarios) -> int:
    """Simulated port-slots: ports x (warmup + arrival slots)."""
    return sum(s.ports * (s.warmup_slots + s.arrival_slots) for s in scenarios)


def _session_hit_ratio(session) -> float:
    caches = session.cache_info().values()
    hits = sum(c["hits"] for c in caches)
    builds = sum(c["builds"] for c in caches)
    return hits / (hits + builds) if hits + builds else 0.0


class PassTimer:
    """Times the work of one pass.  Untraced, it samples the host's
    speed (``hostspeed.py``); traced, it opens the root span instead,
    so that no sample lands in a layer's span."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.speed = HostSpeed() if tracer is None else None
        self.wall_s = 0.0
        self.samples: list[float] = []

    def __enter__(self) -> "PassTimer":
        if self.tracer is not None:
            self._span = self.tracer.enter(self.tracer.name_id(ROOT))
        self._start = time.perf_counter()
        if self.speed is not None:
            self.speed.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.speed is not None:
            self.speed.stop()
        elapsed = time.perf_counter() - self._start
        if self.speed is None:
            self.wall_s = elapsed
        else:
            self.wall_s = self.speed.host(elapsed)
            self.samples = self.speed.samples
        if self.tracer is not None:
            self.tracer.exit(self._span)


@dataclass
class PassResult:
    """What one timed pass did."""

    #: Host seconds (sampling slices excluded).
    wall_s: float
    units: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    traced: bool = False
    #: Host-speed samples taken during an untraced pass.
    speed_samples: list[float] = field(default_factory=list)
    #: The session the pass ran on (batch workloads).
    session: Any = None
    #: Per-layer metrics of a traced pass.
    layers: dict[str, float] = field(default_factory=dict)
    #: Self time (s) per span name of a traced pass.
    table: dict[str, float] = field(default_factory=dict)
    #: Client latencies (s) of the pass's requests (predict_http).
    latencies: list[float] = field(default_factory=list)

    @property
    def nominal_s(self) -> float | None:
        """Nominal seconds: host seconds x the pass's mean host speed."""
        if not self.speed_samples:
            return None
        return self.wall_s * statistics.fmean(self.speed_samples)

    def summary(self) -> dict[str, Any]:
        return {"wall_s": self.wall_s, "nominal_s": self.nominal_s,
                "samples": len(self.speed_samples), "units": self.units,
                "failed": self.failed, "traced": self.traced}


class Workload:
    """Base class: seeded inputs, passes, digest checks, peak RSS."""

    name = ""
    #: Whether every pass must export the same digest.
    same_digest_each_pass = True
    #: Simulated port-slots per pass (0: no slot loop).
    port_slots = 0

    def __init__(self, seed: int, workdir: Path, size: str = "full",
                 trace: bool = False) -> None:
        if size not in ("full", "tiny"):
            raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = size == "tiny"
        self.tracer = Tracer() if trace else None
        self.passes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run_pass(self, traced: bool = False) -> PassResult:
        self.passes += 1
        if not traced:
            result = self._pass(PassTimer())
            result.session = None  # keep peak RSS independent of passes
            return result
        tracer = self.tracer
        tracer.rid = self.passes
        before = tracer.snapshot()
        with installed(tracer, BATCH_TARGETS):
            result = self._pass(PassTimer(tracer))
        delta = diff(tracer.snapshot(), before)
        result.traced = True
        result.layers = batch_layer_metrics(delta)
        result.layers["api.session.cache_hit_ratio"] = _session_hit_ratio(
            result.session
        )
        result.table = {k: v for k, v in delta["self_s"].items() if v}
        return result

    def _pass(self, timer: PassTimer) -> PassResult:
        raise NotImplementedError

    # -- checks and metrics --------------------------------------------

    def digest(self, results: list[PassResult]) -> str:
        return results[0].digest

    def check(self, results: list[PassResult]) -> list[str]:
        """Output problems found across the run's passes."""
        problems = [p for r in results for p in r.problems]
        digests = {r.digest for r in results}
        if self.same_digest_each_pass and len(digests) > 1:
            problems.append(f"passes exported {len(digests)} different "
                            "digests for one seed")
        if not self.tiny and self.seed == DEFAULT_SEED:
            pinned = json.loads(DIGESTS.read_text()).get(self.name)
            if pinned != self.digest(results):
                problems.append("digest differs from the pinned one")
        return problems + self._check(results)

    def _check(self, results: list[PassResult]) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra_metrics(self, plain: list[PassResult]) -> dict[str, dict]:
        """Workload-specific metrics of the untraced passes, timed in
        nominal seconds."""
        if not self.port_slots:
            return {}
        wall = statistics.median(r.nominal_s for r in plain)
        return {"port_slots_per_s": {"value": self.port_slots / wall,
                                     "unit": "1/s"}}

    def teardown_trace(self, traced: list[PassResult]):
        """``(layers, table)`` only known after :meth:`teardown`."""
        return {}, {}

    def write_spans(self, path: Path) -> int:
        """Write the traced passes' spans as JSONL; returns the count."""
        return self.tracer.write_jsonl(path)


# ----------------------------------------------------------------------
# fig9_cold
# ----------------------------------------------------------------------


class Fig9Cold(Workload):
    """The fig9 preset from an empty store and journal, every pass."""

    name = "fig9_cold"

    def setup(self) -> None:
        from repro.campaigns.presets import get_campaign
        from repro.campaigns.runner import run_campaign  # noqa: F401

        campaign = get_campaign("fig9")
        base = dict(campaign.base_dict, seed=self.seed)
        if self.tiny:
            campaign = campaign.replace(
                ports=(4,), loads=(0.1, 0.5),
                base=dict(base, arrival_slots=40, warmup_slots=8),
            )
        else:
            campaign = campaign.replace(base=base)
        self.campaign = campaign
        self.port_slots = port_slots(campaign.scenarios())
        self.records = []

    def _pass(self, timer: PassTimer) -> PassResult:
        from repro.api.model import PowerModel
        from repro.api.store import RunRecordStore
        from repro.campaigns.runner import run_campaign
        from repro.resilience.journal import CampaignJournal

        store_path = self.workdir / f"store-{self.passes}.jsonl"
        journal_path = self.workdir / f"journal-{self.passes}.jsonl"
        session = PowerModel()
        with timer:
            store = RunRecordStore(store_path)
            journal = CampaignJournal(journal_path,
                                      self.campaign.content_hash())
            record = run_campaign(self.campaign, session=session, workers=1,
                                  store=store, journal=journal)
            exports = {"fig9.csv": record.to_csv(),
                       "fig9.json": record.to_json()}
        store_path.unlink(missing_ok=True)
        journal_path.unlink(missing_ok=True)
        self.records = record.detail
        expected = self.campaign.size()
        failed = max(len(record.failures), expected - len(record.points))
        return PassResult(
            timer.wall_s, expected, failed, export_digest(exports),
            problems=record_problems(record.detail, self.name),
            session=session, speed_samples=timer.samples,
        )

    def _check(self, results: list[PassResult]) -> list[str]:
        """One point per fabric (fewest ports, highest load) re-run on
        the reference engine must agree bit for bit, at any seed."""
        from repro.api.model import PowerModel

        probes = {}
        for record in filter(None, self.records):
            s = record.scenario
            best = probes.get(s.architecture)
            if best is None or (s.ports, -s.load) < (
                best.scenario.ports, -best.scenario.load
            ):
                probes[s.architecture] = record
        session = PowerModel()
        return [
            f"{r.scenario.label}: vectorized record differs from the "
            "reference engine"
            for r in probes.values()
            if canonical_record(session.simulate(r.scenario, engine="reference"))
            != canonical_record(r)
        ]


# ----------------------------------------------------------------------
# saturation
# ----------------------------------------------------------------------


class Saturation(Workload):
    """32-port fabrics at high load; the VOQ stacks take the fused path."""

    name = "saturation"

    def setup(self) -> None:
        from repro.api.model import PowerModel  # noqa: F401
        from repro.api.scenario import Scenario

        ports = 8 if self.tiny else 32
        window = dict(
            arrival_slots=40 if self.tiny else 800,
            warmup_slots=8 if self.tiny else 160,
            seed=self.seed,
        )
        voq = [
            Scenario(arch, ports, load, queueing="voq", islip_iterations=4,
                     **window)
            for arch in ("crossbar", "banyan")
            for load in (0.6, 0.7, 0.8, 0.9)
        ]
        fifo = [Scenario(arch, ports, 0.9, **window)
                for arch in ("banyan", "batcher_banyan")]
        self.scenarios = voq + fifo
        self.port_slots = port_slots(self.scenarios)
        self.records = []

    def _pass(self, timer: PassTimer) -> PassResult:
        from repro.api.model import PowerModel

        session = PowerModel()
        with timer:
            records = session.run_batch(self.scenarios, workers=1)
        self.records = records
        digest = hashlib.sha256(
            "\n".join(canonical_record(r) for r in records if r).encode()
        ).hexdigest()
        return PassResult(
            timer.wall_s, len(records), sum(r is None for r in records),
            digest, problems=record_problems(records, self.name),
            session=session, speed_samples=timer.samples,
        )

    def _check(self, results: list[PassResult]) -> list[str]:
        """A fused-stack record must equal the same scenario run solo."""
        from repro.api.model import PowerModel

        probe, fused = self.scenarios[3], self.records[3]  # VOQ xbar @0.9
        if fused is None:
            return []  # already counted as a failed unit
        solo = PowerModel().run_batch([probe], workers=1,
                                      strategy="vectorized")[0]
        if canonical_record(solo) != canonical_record(fused):
            return [f"{probe.label}: fused record differs from a solo run"]
        return []


# ----------------------------------------------------------------------
# warm_replay
# ----------------------------------------------------------------------


class WarmReplay(Workload):
    """Campaign and network presets replayed from a store set-up filled."""

    name = "warm_replay"

    def setup(self) -> None:
        from repro.api.model import PowerModel
        from repro.api.store import RunRecordStore
        from repro.campaigns.campaign import Campaign
        from repro.campaigns.presets import get_campaign
        from repro.network.presets import get_network

        # The timed pass runs no slot loop, so the fill may use a short
        # measurement window of the same specs.
        window = dict(arrival_slots=10 if self.tiny else 20,
                      warmup_slots=2 if self.tiny else 4, seed=self.seed)

        def rebase(spec):
            return spec.replace(base=dict(spec.base_dict, **window))

        def network_campaign(name):
            c = get_campaign(name)
            params = dict(c.params_dict,
                          spec=rebase(c.network_spec()).to_dict())
            del params["network"]
            return Campaign.from_dict(dict(c.to_dict(), params=params))

        def control_campaign(name):
            c = get_campaign(name)
            spec = c.control_spec()
            spec = spec.replace(network=rebase(spec.network))
            return Campaign.from_dict(
                dict(c.to_dict(), params={"spec": spec.to_dict()})
            )

        fig9 = get_campaign("fig9")
        fig9 = fig9.replace(base=dict(fig9.base_dict, **window))
        if self.tiny:
            self.campaigns = [
                fig9.replace(ports=(4,), loads=(0.1, 0.5)),
                network_campaign("dumbbell_switchoff"),
                control_campaign("dumbbell_sleep_sweep"),
            ]
            self.networks = []
        else:
            self.campaigns = [
                fig9,
                network_campaign("fat_tree_k4_sweep"),
                network_campaign("dumbbell_switchoff"),
                control_campaign("dumbbell_sleep_sweep"),
                control_campaign("fat_tree_diurnal"),
            ]
            self.networks = [rebase(get_network(name))
                             for name in ("fat_tree_k16", "isp200_ring")]
        self.store_path = self.workdir / "store.jsonl"
        self.store_path.unlink(missing_ok=True)
        self.expected = self._replay(RunRecordStore(self.store_path),
                                     PowerModel())

    def _replay(self, store, session) -> dict[str, str]:
        from repro.campaigns.runner import run_campaign
        from repro.network.power import NetworkPowerModel

        exports = {}
        for campaign in self.campaigns:
            record = run_campaign(campaign, session=session, workers=1,
                                  store=store)
            exports[f"{campaign.name}.csv"] = record.to_csv()
            exports[f"{campaign.name}.json"] = record.to_json()
        model = NetworkPowerModel(session)
        for spec in self.networks:
            record = model.run(spec, workers=1, store=store)
            exports[f"{spec.name}.csv"] = record.to_csv()
            exports[f"{spec.name}.links.csv"] = record.links_to_csv()
            exports[f"{spec.name}.json"] = record.to_json()
        return exports

    def _pass(self, timer: PassTimer) -> PassResult:
        from repro.api.model import PowerModel
        from repro.api.store import RunRecordStore

        session = PowerModel()
        with timer:
            store = RunRecordStore(self.store_path)
            exports = self._replay(store, session)
        problems = []
        if store.misses:
            problems.append(f"warm pass missed the store {store.misses} times")
        mismatched = sorted(name for name, text in self.expected.items()
                            if exports.get(name) != text)
        if mismatched:
            problems.append("warm exports differ from the cold fill: "
                            + ", ".join(mismatched))
        return PassResult(
            timer.wall_s, len(self.campaigns) + len(self.networks),
            len({name.split(".")[0] for name in mismatched}),
            export_digest(exports), problems=problems, session=session,
            speed_samples=timer.samples,
        )


# ----------------------------------------------------------------------
# predict_http
# ----------------------------------------------------------------------

_HOST = "127.0.0.1"


def _http_request(body: bytes) -> bytes:
    return (b"POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


class _Connection:
    """One keep-alive client connection with incremental response parsing."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((_HOST, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.index = -1
        self.sent_at = 0.0

    def send(self, index: int, request: bytes) -> None:
        self.index = index
        self.sent_at = time.perf_counter()
        self.sock.sendall(request)

    def response(self) -> tuple[int, bytes] | None:
        """``(status, body)`` once a full response is buffered."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if len(self.buf) < end + 4 + length:
            return None
        body = bytes(self.buf[end + 4 : end + 4 + length])
        del self.buf[: end + 4 + length]
        return int(head[0].split(" ", 2)[1]), body


def _closed_loop(conns: list[_Connection], requests: list[bytes]):
    """Send ``requests`` over ``conns``, each connection sending its next
    request only after the previous reply.  Returns (wall_s, latencies,
    statuses, bodies), all aligned with ``requests``.  The client sleeps
    in ``select`` while it waits."""
    n = len(requests)
    latencies = [0.0] * n
    statuses = [0] * n
    bodies: list[bytes] = [b""] * n
    sel = selectors.DefaultSelector()
    start = time.perf_counter()
    sent = 0
    for conn in conns[:n]:
        conn.send(sent, requests[sent])
        sent += 1
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    while sel.get_map():
        ready = sel.select(timeout=30)
        if not ready:
            raise TimeoutError("no reply from the server for 30 s")
        for key, _ in ready:
            conn = key.data
            chunk = conn.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            conn.buf += chunk
            while (reply := conn.response()) is not None:
                i = conn.index
                latencies[i] = time.perf_counter() - conn.sent_at
                statuses[i], bodies[i] = reply
                if sent < n:
                    conn.send(sent, requests[sent])
                    sent += 1
                else:
                    sel.unregister(conn.sock)
                    break
    wall = time.perf_counter() - start
    sel.close()
    return wall, latencies, statuses, bodies


class _Server:
    """A server script of this directory (``serve.py``: ``repro serve``;
    ``echo.py``) in a subprocess, with two client connections."""

    def __init__(self, workdir: Path, label: str, script: str,
                 *args: str) -> None:
        self.connections: list[_Connection] = []
        log = workdir / f"{label}.log"
        cmd = [sys.executable, str(HERE / script), *args]
        with log.open("w") as fh:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                         stderr=fh)
        deadline = time.monotonic() + 60
        while " on http://" not in (text := log.read_text()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server {label} failed to start: {text}")
            time.sleep(0.01)
        address = text.split(" on http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        self.connections = [_Connection(self.port) for _ in range(2)]

    def get(self, path: str) -> dict:
        with socket.create_connection((_HOST, self.port), timeout=30) as s:
            s.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                      "Connection: close\r\n\r\n".encode())
            data = b""
            while chunk := s.recv(65536):
                data += chunk
        return json.loads(data.split(b"\r\n\r\n", 1)[1])

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM: the server flushes its journal (and, traced, writes
        its summary and spans) before it exits."""
        for conn in self.connections:
            conn.sock.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class PredictHttp(Workload):
    """Closed-loop ``/predict`` clients against ``repro serve``."""

    name = "predict_http"
    same_digest_each_pass = False
    #: Share of requests that repeat a hot-set body (memo answers).
    REPEAT_SHARE = 0.5
    HOT = 64
    LOADS = tuple(round(0.10 + 0.05 * i, 2) for i in range(9))
    #: Requests in a block to the reference server, ``echo.py``, and
    #: its host seconds on the nominal host.
    ECHO_BLOCK = 200
    NOMINAL_ECHO_S = 0.02

    def setup(self) -> None:
        from repro.api.model import PowerModel
        from repro.api.scenario import Scenario
        from repro.core.estimator import ARCHITECTURES
        from repro.surrogate import SurrogatePredictor, train_surrogate
        from repro.surrogate.dataset import dataset_from_records

        # Client and servers share one CPU (the servers inherit this
        # affinity).  On a small virtual machine a request that wakes
        # the other vCPU waits on the host's scheduler: measured with
        # interleaved blocks, pinning cut the block time's spread from
        # ~0.5 to ~0.25 of its median and the median by a fifth.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if self.tiny:
            self.archs, self.ports = ("crossbar", "banyan"), (4,)
            self.window = dict(arrival_slots=20, warmup_slots=4)
            self.block = 100
        else:
            self.archs, self.ports = ARCHITECTURES, (16, 32)
            self.window = dict(arrival_slots=40, warmup_slots=8)
            self.block = 2000
        corpus = Scenario.grid(architectures=self.archs, ports=self.ports,
                               loads=self.LOADS, seed=self.seed,
                               **self.window)
        self.model = train_surrogate(
            dataset_from_records(PowerModel().run_batch(corpus, workers=1)),
            holdout_modulus=4,
        )
        self.predictor = SurrogatePredictor(self.model)
        model_path = self.workdir / "model.json"
        self.model.save(model_path)
        self.rng = random.Random(self.seed)
        self.seen: set[bytes] = set()
        self.hot = [self._fresh_body() for _ in range(self.HOT)]
        self.hot_served: dict[bytes, bytes] = {}
        self.stats: dict[str, dict] = {}
        self.echo: _Server | None = None
        self.summary = self.workdir / "traced-summary.json"
        self.spans = self.workdir / "traced-spans.jsonl"
        self.servers = {"plain": self._serve(model_path, "plain")}
        if self.tracer is not None:
            self.servers["traced"] = self._serve(
                model_path, "traced", "--summary", str(self.summary),
                "--spans", str(self.spans),
            )

    def _serve(self, model_path: Path, label: str, *args: str) -> _Server:
        journal = self.workdir / f"{label}-journal.jsonl"
        return _Server(self.workdir, label, "serve.py", str(model_path),
                       "--journal", str(journal), *args)

    def _fresh_body(self) -> bytes:
        """A first-seen, in-distribution, off-grid query."""
        from repro.api.scenario import Scenario
        from repro.surrogate.dataset import context_signature

        rng = self.rng
        while True:
            load = round(rng.uniform(0.10, 0.50), 6)
            if load in self.LOADS:
                continue
            scenario = Scenario(rng.choice(self.archs), rng.choice(self.ports),
                                load, seed=self.seed, **self.window)
            data = scenario.to_dict()
            _, _, reason = self.model.evaluate(context_signature(data), load,
                                               scenario.ports)
            body = json.dumps(data).encode()
            if reason is None and body not in self.seen:
                self.seen.add(body)
                return body

    def _served_locally(self, body: bytes) -> bytes:
        from repro.api.scenario import Scenario

        scenario = Scenario.from_dict(json.loads(body))
        return self.predictor.predict(scenario).to_json().encode()

    def run_pass(self, traced: bool = False) -> PassResult:
        # A traced pass replays the untraced pass's block on the traced
        # server, so both servers see the same stream.
        if not traced:
            self.passes += 1
            bodies = list(self.hot) if self.passes == 1 else []
            while len(bodies) < self.block:
                if self.rng.random() < self.REPEAT_SHARE:
                    bodies.append(self.hot[self.rng.randrange(self.HOT)])
                else:
                    bodies.append(self._fresh_body())
            self.block_bodies = bodies
        bodies = self.block_bodies
        server = self.servers["traced" if traced else "plain"]
        requests = [_http_request(b) for b in bodies]
        samples = [] if traced else [self._echo_speed()]
        wall, latencies, statuses, served = _closed_loop(
            server.connections, requests
        )
        if not traced:
            samples.append(self._echo_speed())
        failed = sum(status != 200 for status in statuses)
        problems = [f"{failed} non-200 responses"] if failed else []
        if self.passes == 1 and not traced:
            self.hot_served = dict(zip(bodies[:self.HOT], served))
        if any(served[i] != self.hot_served.get(body, served[i])
               for i, body in enumerate(bodies)):
            problems.append("a repeated body was served other bytes")
        if any(served[i] != self._served_locally(bodies[i])
               for i in range(0, len(bodies), 50)):
            problems.append("served bytes differ from the in-process "
                            "Prediction.to_json()")
        return PassResult(wall, len(bodies), failed, "", problems=problems,
                          traced=traced, latencies=latencies,
                          speed_samples=samples)

    def _echo_speed(self) -> float:
        """One host-speed sample for HTTP round trips, taken before and
        after each untraced block: a block to the reference server,
        which shares this CPU and the kernel's loopback path with
        ``repro serve`` (``hostspeed.py`` explains the idea; its
        interpreter slice tracks the speed of round trips less
        closely).  The server starts at the first pass, so that it is
        not part of set-up."""
        if self.echo is None:
            self.echo = _Server(self.workdir, "echo", "echo.py")
            self.echo_requests = [_http_request(self.hot[i % self.HOT])
                                  for i in range(self.ECHO_BLOCK)]
        wall = _closed_loop(self.echo.connections, self.echo_requests)[0]
        return self.NOMINAL_ECHO_S / wall

    def digest(self, results: list[PassResult]) -> str:
        """sha256 over the served answers to the hot set."""
        h = hashlib.sha256()
        for body in self.hot:
            h.update(self.hot_served.get(body, b"") + b"\0")
        return h.hexdigest()

    def _check(self, results: list[PassResult]) -> list[str]:
        problems = []
        if any(served != self._served_locally(body)
               for body, served in self.hot_served.items()):
            problems.append("a hot-set answer differs from the in-process "
                            "Prediction.to_json()")
        for label, server in self.servers.items():
            self.stats[label] = server.get("/stats")
            if self.stats[label]["fallbacks"]:
                problems.append(f"{label} server fell back "
                                f"{self.stats[label]['fallbacks']} times")
        return problems

    def peak_rss_mb(self) -> float:
        return self.servers["plain"].peak_rss_mb()

    def extra_metrics(self, plain: list[PassResult]) -> dict[str, dict]:
        latencies = sorted(x for r in plain for x in r.latencies)
        n = len(latencies)
        p99 = latencies[math.ceil(0.99 * n) - 1]
        return {
            "requests_per_s": {
                "value": sum(r.units for r in plain)
                / sum(r.nominal_s for r in plain),
                "unit": "1/s",
            },
            "predict_p50_us": {"value": statistics.median(latencies) * 1e6,
                               "unit": "us"},
            "predict_p99_us": {"value": p99 * 1e6, "unit": "us"},
            "latency_samples": {"value": n, "unit": "count"},
            "samples_beyond_p99": {"value": sum(x > p99 for x in latencies),
                                   "unit": "count"},
        }

    def teardown(self) -> None:
        for server in getattr(self, "servers", {}).values():
            server.stop()
        if getattr(self, "echo", None) is not None:
            self.echo.stop()

    def write_spans(self, path: Path) -> int:
        self.spans.replace(path)
        with path.open() as fh:
            return sum(1 for _ in fh)

    def teardown_trace(self, traced: list[PassResult]):
        """The traced server's per-layer metrics and request-time table,
        per block (it writes its summary when :meth:`teardown` stops
        it).  ``surrogate.serve`` is client latency minus the three
        timed calls: HTTP framing, the event loop and the journal."""
        snap = json.loads(self.summary.read_text())
        blocks = len(traced)
        table = {name: value / blocks
                 for name, value in snap["self_s"].items() if value}
        latency = sum(sum(r.latencies) for r in traced) / blocks
        table["surrogate.serve"] = latency - sum(table.values())
        calls = snap["calls"]
        layers = {
            f"{name}.self_s": table.get(name, 0.0)
            for name in ("surrogate.parse", "surrogate.predict",
                         "surrogate.serialize", "surrogate.serve")
        }
        layers["surrogate.predict.calls"] = (
            calls.get("surrogate.predict", 0) / blocks
        )
        layers["surrogate.memo_hit_ratio"] = 1.0 - calls.get(
            "surrogate.parse", 0
        ) / sum(r.units for r in traced)
        layers["surrogate.fallbacks"] = self.stats["traced"]["fallbacks"]
        return layers, table


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Fig9Cold, Saturation, WarmReplay, PredictHttp)
}
