"""The surrogate-serving layer: dataset, training, prediction, drift,
the async HTTP server, and the streaming store readers.

Headline contracts under test:

* a model saved to JSON and loaded back produces **bit-identical**
  predictions (pure-float ``repr`` round-trips are exact);
* every out-of-distribution query transparently **falls back** to the
  real engines, and the fallback answer is byte-identical to a direct
  ``session.run``;
* the offline drift detector **fires** when the store's ground truth
  moves under a trained model and stays quiet otherwise;
* an HTTP ``POST /predict`` response is **byte-identical** to calling
  ``SurrogatePredictor.predict(...).to_json()`` in process.
"""

import asyncio
import json
import socket
import time

import pytest

from repro.api import RunRecordStore, Scenario, default_session
from repro.api.figstore import DerivedRecordStore
from repro.api.jsonl import (
    iter_verified_entries,
    locked_append,
    quarantine_path,
    stamp_entry,
)
from repro.api.store import iter_run_entries
from repro.campaigns import Campaign, render_report, run_campaign
from repro.errors import ConfigurationError
from repro.surrogate import (
    SurrogatePredictor,
    SurrogateServer,
    check_drift,
    context_signature,
    dataset_from_records,
    extract_dataset,
    is_holdout_key,
    train_surrogate,
)
from repro.surrogate.train import SurrogateModel

SIM_KWARGS = dict(arrival_slots=150, warmup_slots=30, seed=7)
LOADS = (0.1, 0.2, 0.3, 0.4, 0.5)


def training_grid():
    return Scenario.grid(
        architectures=("crossbar", "banyan"),
        ports=(8,),
        loads=LOADS,
        **SIM_KWARGS,
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One executed training grid, shared by the module: the JSONL
    store, the in-memory records, and a trained model."""
    path = tmp_path_factory.mktemp("surrogate") / "records.jsonl"
    store = RunRecordStore(path)
    records = default_session().run_batch(
        training_grid(), workers=2, store=store
    )
    dataset = extract_dataset(path)
    model = train_surrogate(dataset)
    return {
        "path": path,
        "records": records,
        "dataset": dataset,
        "model": model,
    }


class TestDataset:
    def test_streaming_extraction_matches_in_memory(self, corpus):
        streamed = corpus["dataset"]
        in_memory = dataset_from_records(corpus["records"])
        assert streamed.store_hash == in_memory.store_hash
        assert streamed.rows == in_memory.rows

    def test_empty_store_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            extract_dataset(path)

    def test_vector_loads_are_skipped(self, tmp_path):
        scenario = Scenario(
            architecture="crossbar",
            ports=4,
            load=(0.1, 0.2, 0.3, 0.4),
            backend="simulate",
            arrival_slots=40,
            warmup_slots=8,
            seed=3,
        )
        store = RunRecordStore(tmp_path / "vec.jsonl")
        default_session().run_batch(
            [scenario, training_grid()[0]], store=store
        )
        dataset = extract_dataset(store.path)
        assert dataset.skipped == 1
        assert len(dataset.rows) == 1

    def test_context_signature_excludes_swept_axes(self):
        a, b = training_grid()[0], training_grid()[1]
        assert a.to_dict()["load"] != b.to_dict()["load"]
        assert context_signature(a.to_dict()) == context_signature(
            b.to_dict()
        )

    def test_holdout_split_is_deterministic(self, corpus):
        keys = [row.key for row in corpus["dataset"].rows]
        first = [is_holdout_key(k, 4) for k in keys]
        assert first == [is_holdout_key(k, 4) for k in keys]
        model = corpus["model"]
        assert model.n_train + model.n_holdout == len(keys)
        assert model.n_train > 0


class TestModelRoundTrip:
    def test_json_round_trip_is_bit_identical(self, corpus, tmp_path):
        model = corpus["model"]
        path = tmp_path / "model.json"
        model.save(path)
        loaded = SurrogateModel.load(path)
        assert loaded.to_json() == model.to_json()
        assert loaded.content_hash() == model.content_hash()
        for row in corpus["dataset"].rows:
            got = loaded.evaluate(row.context, row.load, row.ports)
            assert got == model.evaluate(row.context, row.load, row.ports)

    def test_exact_training_point_has_zero_band(self, corpus):
        model = corpus["model"]
        for row in corpus["dataset"].rows:
            values, band, reason = model.evaluate(
                row.context, row.load, row.ports
            )
            if reason is not None:
                continue  # held-out edge points can gate OOD
            if row.load in {
                p[0]
                for group in model.groups.values()
                for curve in group.values()
                for p in curve.points
            } and not is_holdout_key(row.key, model.holdout_modulus):
                assert band == 0.0
                assert values == dict(
                    zip(model.target_fields, row.targets)
                )

    def test_training_validation(self, corpus):
        dataset = corpus["dataset"]
        with pytest.raises(ConfigurationError):
            train_surrogate(dataset, ridge_lambda=0.0)
        with pytest.raises(ConfigurationError):
            train_surrogate(dataset, holdout_modulus=1)
        with pytest.raises(ConfigurationError):
            SurrogateModel.from_dict(
                {**corpus["model"].to_dict(), "version": 99}
            )

    def test_unreadable_model_files_raise_configuration_error(
        self, tmp_path
    ):
        with pytest.raises(ConfigurationError, match="cannot read"):
            SurrogateModel.load(tmp_path / "missing.json")
        with pytest.raises(ConfigurationError, match="invalid"):
            SurrogateModel.from_json("not json {")
        with pytest.raises(ConfigurationError, match="an object"):
            SurrogateModel.from_json("[1, 2]")
        with pytest.raises(ConfigurationError, match="malformed"):
            SurrogateModel.from_json('{"version": 1}')


class TestPredictorFallback:
    def in_dist(self):
        return Scenario(
            architecture="crossbar", ports=8, load=0.3,
            backend="simulate", **SIM_KWARGS,
        )

    def test_in_distribution_hits_the_surrogate(self, corpus):
        predictor = SurrogatePredictor(corpus["model"])
        prediction = predictor.predict(self.in_dist())
        assert prediction.source == "surrogate"
        assert not prediction.ood
        assert prediction.record is None
        assert predictor.surrogate_hits == 1
        assert predictor.fallbacks == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(load=0.9),                      # outside the load hull
            dict(ports=16),                      # untrained port count
            dict(architecture="fully_connected"),  # unknown context
            dict(seed=12345),                    # unknown context
            dict(load=(0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1, 0.2)),  # vector
        ],
    )
    def test_ood_always_falls_back(self, corpus, overrides):
        predictor = SurrogatePredictor(corpus["model"])
        prediction = predictor.predict(
            self.in_dist().replace(**overrides)
        )
        assert prediction.source == "fallback"
        assert prediction.ood
        assert prediction.reason
        assert prediction.record is not None
        assert predictor.fallbacks == 1

    def test_fallback_is_byte_identical_to_direct_run(self, corpus):
        scenario = self.in_dist().replace(load=0.9)
        direct = default_session().run(scenario)
        predictor = SurrogatePredictor(corpus["model"])
        record = predictor.predict(scenario).record
        direct_payload = direct.to_cache_dict()
        fallback_payload = record.to_cache_dict()
        # elapsed_s is wall clock; every measured quantity must match.
        direct_payload.pop("elapsed_s")
        fallback_payload.pop("elapsed_s")
        assert json.dumps(fallback_payload, sort_keys=True) == json.dumps(
            direct_payload, sort_keys=True
        )

    def test_fallback_uses_and_feeds_the_store(self, corpus, tmp_path):
        store = RunRecordStore(tmp_path / "fallback.jsonl")
        scenario = self.in_dist().replace(load=0.9)
        first = SurrogatePredictor(corpus["model"], store=store)
        record = first.predict(scenario).record
        # A second predictor sharing the store serves the identical
        # object-level record without re-simulating.
        second = SurrogatePredictor(corpus["model"], store=store)
        cached = second.predict(scenario).record
        assert cached.to_cache_dict() == record.to_cache_dict()
        assert store.stats()["hits"] >= 1

    def test_stats_counters(self, corpus):
        predictor = SurrogatePredictor(corpus["model"])
        predictor.predict(self.in_dist())
        predictor.predict(self.in_dist().replace(load=0.9))
        stats = predictor.stats()
        assert stats["predictions"] == 2
        assert stats["surrogate_hits"] == 1
        assert stats["fallbacks"] == 1
        assert stats["model_hash"] == corpus["model"].content_hash()


class TestDrift:
    def test_fresh_store_is_quiet(self, corpus):
        report = check_drift(corpus["model"], corpus["path"])
        assert not report.drifted
        assert not report.stale_store
        assert not report.retrain
        assert "ok" in report.summary()

    def test_perturbed_store_fires(self, corpus, tmp_path):
        # The default split may hold out only range-edge points (which
        # the OOD gate skips); pick a modulus whose holdout slice has
        # in-distribution coverage.  The choice is deterministic: the
        # split hashes record keys.
        model = None
        for modulus in range(2, 8):
            candidate = train_surrogate(
                corpus["dataset"], holdout_modulus=modulus
            )
            if check_drift(candidate, corpus["path"]).checked > 0:
                model = candidate
                break
        assert model is not None, "no modulus yields interior holdouts"
        # Rewrite every record's power targets 2x: the replayed holdout
        # slice now disagrees with the model far beyond tolerance.
        path = tmp_path / "perturbed.jsonl"
        entries = []
        for entry in iter_verified_entries(corpus["path"]):
            record = dict(entry["record"])
            for field in (
                "total_power_w", "switch_power_w",
                "wire_power_w", "buffer_power_w",
            ):
                record[field] = record[field] * 2.0
            entries.append({"key": entry["key"], "record": record})
        path.write_text("")
        for entry in entries:
            locked_append(path, entry)
        report = check_drift(model, path)
        assert report.checked > 0
        assert report.drifted
        assert report.median_rel_error > report.tolerance
        assert report.retrain
        # The content moved, so the store hash moved too.
        assert report.stale_store

    def test_grown_store_is_stale_but_not_drifted(self, corpus, tmp_path):
        path = tmp_path / "grown.jsonl"
        path.write_bytes(corpus["path"].read_bytes())
        store = RunRecordStore(path)
        extra = Scenario(
            architecture="crossbar", ports=4, load=0.3,
            backend="simulate", **SIM_KWARGS,
        )
        store.put(default_session().run(extra))
        report = check_drift(corpus["model"], path)
        assert not report.drifted
        assert report.stale_store
        assert report.retrain

    def test_to_dict_round_trip(self, corpus):
        report = check_drift(corpus["model"], corpus["path"])
        data = report.to_dict()
        assert data["drifted"] is False
        assert data["tolerance"] == report.tolerance


def http_request(port, method, path, body=b""):
    """One raw HTTP/1.1 request; returns (status, header dict, body)."""

    async def _go():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        return raw

    raw = asyncio.run(_go())
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


def predict_request(scenario, extra=""):
    """One raw ``POST /predict`` request for ``scenario``."""
    body = json.dumps(scenario.to_dict()).encode()
    return (
        f"POST /predict HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode() + body


def read_responses(sock, count=None):
    """``(status, headers, body)`` of each response read from ``sock``:
    ``count`` of them, or every one until the server closes."""
    raw, responses = b"", []
    while count is None or len(responses) < count:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        if sep:
            lines = head.decode("latin-1").split("\r\n")
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers["content-length"])
            if len(rest) >= length:
                status = int(lines[0].split(" ")[1])
                responses.append((status, headers, rest[:length]))
                raw = rest[length:]
                continue
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:  # closed with our bytes unread
            chunk = b""
        if not chunk:
            break
        raw += chunk
    assert raw == b""
    return responses


class TestServer:
    @pytest.fixture()
    def server(self, corpus):
        """A served predictor on an ephemeral port, driven from a
        background thread's event loop."""
        import threading

        predictor = SurrogatePredictor(corpus["model"])
        srv = SurrogateServer(predictor, port=0)
        started = threading.Event()
        loop_holder = {}

        def runner():
            async def _main():
                await srv.start()
                loop_holder["loop"] = asyncio.get_running_loop()
                started.set()
                try:
                    await srv.serve_forever()
                except asyncio.CancelledError:
                    pass
                finally:
                    await srv.stop()

            asyncio.run(_main())

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        yield srv
        loop = loop_holder["loop"]
        for task in asyncio.all_tasks(loop):
            loop.call_soon_threadsafe(task.cancel)
        thread.join(timeout=10)

    def test_health(self, corpus, server):
        status, _, body = http_request(server.port, "GET", "/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["model_hash"] == corpus["model"].content_hash()

    def test_predict_bytes_match_in_process(self, corpus, server):
        scenario = Scenario(
            architecture="crossbar", ports=8, load=0.3,
            backend="simulate", **SIM_KWARGS,
        )
        status, _, body = http_request(
            server.port, "POST", "/predict",
            json.dumps(scenario.to_dict()).encode(),
        )
        assert status == 200
        local = SurrogatePredictor(corpus["model"]).predict(scenario)
        assert body == local.to_json().encode()

    def test_batch_and_stats(self, server):
        scenario = Scenario(
            architecture="banyan", ports=8, load=0.2,
            backend="simulate", **SIM_KWARGS,
        )
        status, _, body = http_request(
            server.port, "POST", "/batch",
            json.dumps(
                {"scenarios": [scenario.to_dict(), scenario.to_dict()]}
            ).encode(),
        )
        assert status == 200
        predictions = json.loads(body)
        assert [p["source"] for p in predictions] == [
            "surrogate", "surrogate",
        ]
        status, _, body = http_request(server.port, "GET", "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["predictions"] >= 2
        assert stats["requests"] >= 2

    def test_bad_requests_do_not_kill_the_loop(self, server):
        status, _, _ = http_request(
            server.port, "POST", "/predict", b"not json"
        )
        assert status == 400
        status, _, _ = http_request(
            server.port, "POST", "/predict",
            json.dumps({"architecture": "nope", "ports": 8,
                        "load": 0.3}).encode(),
        )
        assert status == 400
        status, _, _ = http_request(server.port, "GET", "/nowhere")
        assert status == 404
        # Still serving after all of the above.
        status, _, _ = http_request(server.port, "GET", "/health")
        assert status == 200

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/batch", b'[{"architecture": "crossbar"}]'),
            ("/batch", b'"x"'),
            ("/batch", b"7"),
            ("/predict", b"\xff"),
            ("/batch", b"\xff"),
        ],
        ids=["batch-array", "batch-string", "batch-number",
             "predict-not-utf8", "batch-not-utf8"],
    )
    def test_malformed_body_is_a_400(self, server, path, body):
        status, _, payload = http_request(server.port, "POST", path, body)
        assert status == 400, payload
        assert "error" in json.loads(payload)

    def test_keep_alive_connection(self, server):
        async def _go():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            statuses = []
            for _ in range(3):
                writer.write(
                    b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                await writer.drain()
                line = await reader.readline()
                statuses.append(int(line.split(b" ")[1]))
                headers = {}
                while True:
                    hline = await reader.readline()
                    if hline in (b"\r\n", b"\n"):
                        break
                    name, _, value = hline.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                await reader.readexactly(int(headers["content-length"]))
            writer.close()
            return statuses

        assert asyncio.run(_go()) == [200, 200, 200]

    def test_batch_body_over_256_kib(self, corpus, server):
        """A body larger than one socket read arrives whole."""
        scenarios = [
            Scenario(
                architecture=("crossbar", "banyan")[i % 2], ports=8,
                load=0.2 + 0.3 * i / 999, backend="simulate", **SIM_KWARGS,
            )
            for i in range(1000)
        ]
        body = json.dumps(
            {"scenarios": [s.to_dict() for s in scenarios]}
        ).encode()
        assert len(body) > 256 * 1024
        status, _, payload = http_request(server.port, "POST", "/batch", body)
        assert status == 200
        local = [SurrogatePredictor(corpus["model"]).predict(s)
                 for s in scenarios]
        assert {p.source for p in local} == {"surrogate"}
        assert payload == json.dumps([p.to_dict() for p in local]).encode()

    def test_pipelined_requests_answered_in_order(self, corpus, server):
        """Two requests sent in one write on one keep-alive connection
        get two responses, in request order."""
        scenarios = [
            Scenario(architecture=arch, ports=8, load=load,
                     backend="simulate", **SIM_KWARGS)
            for arch, load in (("banyan", 0.35), ("crossbar", 0.25))
        ]
        requests = predict_request(scenarios[0]) + predict_request(
            scenarios[1], "Connection: close\r\n"
        )
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(requests)
            responses = read_responses(sock)
        assert [status for status, _, _ in responses] == [200, 200]
        local = [SurrogatePredictor(corpus["model"]).predict(s)
                 for s in scenarios]
        assert {p.source for p in local} == {"surrogate"}
        assert [body for _, _, body in responses] == [
            p.to_json().encode() for p in local
        ]

    def test_requests_framed_across_reads(self, corpus, server):
        """A request written one byte at a time, then one whose body
        comes in a later write than its head, on one keep-alive
        connection: both answers equal the in-process bytes."""
        scenarios = [
            Scenario(architecture=arch, ports=8, load=load,
                     backend="simulate", **SIM_KWARGS)
            for arch, load in (("crossbar", 0.33), ("banyan", 0.45))
        ]
        first, second = (predict_request(s) for s in scenarios)
        split = second.index(b"\r\n\r\n") + 4
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(first)):
                sock.sendall(first[i:i + 1])
                time.sleep(0.0005)  # let the server read each byte
            sock.sendall(second[:split])
            time.sleep(0.05)
            sock.sendall(second[split:])
            responses = read_responses(sock, 2)
        local = [SurrogatePredictor(corpus["model"]).predict(s)
                 for s in scenarios]
        assert {p.source for p in local} == {"surrogate"}
        assert responses == [
            (200, {"content-type": "application/json",
                   "content-length": str(len(p.to_json())),
                   "connection": "keep-alive"}, p.to_json().encode())
            for p in local
        ]

    @pytest.mark.parametrize(
        "request_bytes, status, error",
        [
            (b"NONSENSE\r\n\r\n", 400, "malformed request line"),
            (b"POST /predict HTTP/1.1\r\nContent-Length: x\r\n\r\n",
             400, "bad content-length"),
            (b"POST /predict HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
             400, "bad content-length"),
            (b"POST /batch HTTP/1.1\r\nContent-Length: 8388609\r\n\r\n",
             400, "bad content-length"),
            # 64 KiB of head and no blank line yet: the whole buffer,
            # all read, so the server closes without resetting.
            (b"GET /health HTTP/1.1\r\nX-Pad: ".ljust(64 * 1024, b"a"),
             400, "request head too large"),
            (b"GET /health HTTP/1.0\r\n\r\n", 200, None),
        ],
        ids=["malformed-request-line", "content-length-not-a-number",
             "negative-content-length", "body-over-8-mib",
             "head-not-ended-in-64-kib", "http-1.0"],
    )
    def test_answer_then_close(self, server, request_bytes, status, error):
        """A request the server cannot frame gets a 400 naming why, an
        HTTP/1.0 request its answer, and then the connection closes."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(request_bytes)
            responses = read_responses(sock)
        assert len(responses) == 1
        got_status, headers, body = responses[0]
        assert (got_status, headers["connection"]) == (status, "close")
        if error is not None:
            assert json.loads(body) == {"error": error}
        # The server keeps serving.
        assert http_request(server.port, "GET", "/health")[0] == 200

    def test_connection_closed_mid_body_ends_quietly(self, corpus):
        srv = SurrogateServer(SurrogatePredictor(corpus["model"]), port=0)
        logged = []

        async def _go():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: logged.append(
                context
            ))
            await srv.start()
            _, writer = await asyncio.open_connection("127.0.0.1", srv.port)
            writer.write(b"POST /predict HTTP/1.1\r\nContent-Length: 100"
                         b"\r\n\r\n{\"architecture\": ")
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.close()
            await writer.wait_closed()
            for _ in range(200):
                if not srv._connections:
                    break
                await asyncio.sleep(0.01)
            open_after_close = len(srv._connections)
            await srv.stop()
            return open_after_close

        assert asyncio.run(_go()) == 0
        assert logged == []
        assert srv.requests == 0

    def test_backpressure_holds_answers_until_the_writer_drains(
        self, corpus
    ):
        """When a write fills the transport's buffer the connection
        stops reading and answering; once it drains, the requests left
        in the buffer are answered in order."""
        from repro.surrogate.serve import _HttpConnection

        srv = SurrogateServer(SurrogatePredictor(corpus["model"]), port=0)
        conn = _HttpConnection(srv)

        class Transport:
            """Records writes; the first one fills the write buffer."""

            def __init__(self):
                self.written = []
                self.reading = True

            def write(self, data):
                self.written.append(data)
                if len(self.written) == 1:
                    conn.pause_writing()

            def pause_reading(self):
                self.reading = False

            def resume_reading(self):
                self.reading = True

            def is_closing(self):
                return False

        transport = Transport()
        conn.connection_made(transport)
        requests = b"".join(
            f"GET /{path} HTTP/1.1\r\n\r\n".encode()
            for path in ("health", "stats", "nowhere")
        )
        conn.get_buffer(-1)[:len(requests)] = requests
        conn.buffer_updated(len(requests))
        assert len(transport.written) == 1 and not transport.reading
        conn.resume_writing()
        assert transport.reading
        assert [w.split(b" ", 2)[1] for w in transport.written] == [
            b"200", b"200", b"404",
        ]
        assert srv.requests == 3

    def test_stop_closes_open_keep_alive_connections(self, corpus, tmp_path):
        journal = tmp_path / "requests.jsonl"
        srv = SurrogateServer(
            SurrogatePredictor(corpus["model"]), port=0, journal=journal
        )

        async def _go():
            await srv.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", srv.port
            )
            writer.write(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length: ")[1]
                         .split(b"\r\n")[0])
            await reader.readexactly(length)
            await srv.stop()
            rest = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return head, rest

        head, rest = asyncio.run(_go())
        assert b"Connection: keep-alive" in head
        assert rest == b""  # the server closed the idle connection
        assert len(journal.read_text().splitlines()) == 1

    def test_journal_written(self, corpus, tmp_path):
        journal = tmp_path / "requests.jsonl"
        predictor = SurrogatePredictor(corpus["model"])
        srv = SurrogateServer(predictor, port=0, journal=journal)

        async def _go():
            await srv.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", srv.port
            )
            writer.write(
                b"GET /health HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            await reader.read()
            writer.close()
            await srv.stop()

        asyncio.run(_go())
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
        ]
        assert len(lines) == 1
        assert lines[0]["path"] == "/health"
        assert lines[0]["status"] == 200


class TestSurrogateEvalCampaign:
    def campaign(self):
        return Campaign(
            name="surr_test",
            kind="surrogate_eval",
            architectures=("crossbar", "banyan"),
            ports=(8,),
            loads=LOADS,
            base=SIM_KWARGS,
        )

    def test_run_and_report(self, tmp_path):
        store = RunRecordStore(tmp_path / "campaign.jsonl")
        record = run_campaign(self.campaign(), store=store)
        assert len(record.points) == 10
        splits = {p["split"] for p in record.points}
        assert splits == {"train", "holdout"}
        for p in record.points:
            if not p["ood"]:
                assert p["surrogate_power_w"] is not None
                assert p["rel_error"] is not None
        report = render_report(record)
        assert "surrogate vs simulation" in report
        # A second run against the warmed store simulates nothing and
        # reproduces the points exactly.
        warm_store = RunRecordStore(store.path)
        warm = run_campaign(self.campaign(), store=warm_store)
        assert warm.points == record.points
        assert warm_store.stats()["misses"] == 0

    def test_figure_cache_round_trip(self, tmp_path):
        store = RunRecordStore(tmp_path / "campaign.jsonl")
        figures = DerivedRecordStore(tmp_path / "figures.jsonl")
        first = run_campaign(
            self.campaign(), store=store, figures=figures
        )
        warm = run_campaign(self.campaign(), figures=figures)
        assert warm.points == first.points
        assert figures.stats()["hits"] == 1

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            self.campaign().replace(params={"holdout_modulus": 1})
        with pytest.raises(ConfigurationError):
            self.campaign().replace(params={"ridge_lambda": 0.0})
        with pytest.raises(ConfigurationError):
            self.campaign().replace(params={"bogus": 1})

    def test_campaign_json_round_trip(self):
        campaign = self.campaign()
        clone = Campaign.from_json(campaign.to_json())
        assert clone.content_hash() == campaign.content_hash()
        assert clone.kind == "surrogate_eval"


class TestStreamingReaders:
    def test_iter_run_entries_streams_in_file_order(self, corpus):
        entries = list(iter_run_entries(corpus["path"]))
        assert len(entries) == 10
        store = RunRecordStore(corpus["path"])
        store._load()
        for key, record in entries:
            assert store._payloads[key] == record  # same payloads

    def test_iter_verified_entries_skips_corruption_quietly(
        self, tmp_path
    ):
        path = tmp_path / "mixed.jsonl"
        locked_append(path, {"key": "a", "record": {"x": 1}})
        with path.open("a") as fh:
            fh.write("garbage not json\n")
            fh.write(
                json.dumps(
                    {"key": "b", "record": {"x": 2}, "sha": "0" * 16}
                )
                + "\n"
            )
        locked_append(path, {"key": "c", "record": {"x": 3}})
        keys = [e["key"] for e in iter_verified_entries(path)]
        assert keys == ["a", "c"]
        # Read-only streaming: no quarantine side effects.
        assert not quarantine_path(path).exists()

    def test_iter_verified_entries_missing_file(self, tmp_path):
        assert list(iter_verified_entries(tmp_path / "nope.jsonl")) == []

    def test_stamped_entries_verify(self, tmp_path):
        entry = stamp_entry({"key": "k", "record": {"v": 1.5}})
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(entry) + "\n")
        assert [e["key"] for e in iter_verified_entries(path)] == ["k"]


class TestCarbonIntensity:
    def test_network_spec_hash_unchanged_at_default(self):
        from repro.network import get_network

        spec = get_network("dumbbell_switchoff")
        assert "grid_intensity_gco2_per_kwh" not in spec.to_dict()
        assert (
            spec.replace(grid_intensity_gco2_per_kwh=0.0).content_hash()
            == spec.content_hash()
        )

    def test_network_carbon_derived_in_totals(self):
        from repro.network import get_network, run_network

        spec = get_network("dumbbell_switchoff").replace(
            grid_intensity_gco2_per_kwh=450.0
        )
        record = run_network(spec)
        assert record.totals["carbon_gco2_per_h"] == (
            record.totals["power_w"] / 1000.0 * 450.0
        )
        base = run_network(get_network("dumbbell_switchoff"))
        assert "carbon_gco2_per_h" not in base.totals

    def test_network_negative_intensity_rejected(self):
        from repro.network import get_network

        with pytest.raises(ConfigurationError):
            get_network("dumbbell_switchoff").replace(
                grid_intensity_gco2_per_kwh=-1.0
            )

    def test_control_spec_hash_unchanged_at_default(self):
        from repro.control import get_control

        spec = get_control("dumbbell_sleep_sweep")
        assert "grid_intensity_gco2_per_kwh" not in spec.to_dict()
        assert (
            spec.replace(grid_intensity_gco2_per_kwh=0.0).content_hash()
            == spec.content_hash()
        )

    def test_control_carbon_derived_per_epoch_and_total(self):
        from repro.control import ControlSpec, get_control, run_control

        spec = get_control("dumbbell_sleep_sweep").replace(
            grid_intensity_gco2_per_kwh=300.0
        )
        clone = ControlSpec.from_json(spec.to_json())
        assert clone.content_hash() == spec.content_hash()
        record = run_control(spec)
        for row in record.epochs:
            assert row["carbon_gco2"] == (
                row["power_w"]
                * spec.series.epoch_seconds
                / 3.6e6
                * 300.0
            )
        assert record.totals["carbon_gco2"] == (
            record.totals["energy_j"] / 3.6e6 * 300.0
        )
        assert record.totals["fixed_carbon_gco2"] == (
            record.totals["fixed_energy_j"] / 3.6e6 * 300.0
        )
        baseline = run_control(get_control("dumbbell_sleep_sweep"))
        assert "carbon_gco2" not in baseline.totals
        # The CSV column set is pinned: carbon lives in JSON exports.
        assert record.to_csv() == baseline.to_csv()


class TestCli:
    @pytest.fixture()
    def trained(self, corpus, tmp_path):
        from repro.cli import main

        model_path = tmp_path / "model.json"
        assert main(
            [
                "surrogate", "train", str(corpus["path"]),
                "--output", str(model_path),
            ]
        ) == 0
        return model_path

    def test_train_prints_stats(self, corpus, tmp_path, capsys):
        from repro.cli import main

        model_path = tmp_path / "direct.json"
        assert main(
            [
                "surrogate", "train", str(corpus["path"]),
                "--output", str(model_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "surrogate trained" in out
        assert "curves" in out
        model = SurrogateModel.load(model_path)
        assert model.store_hash == corpus["dataset"].store_hash

    def test_eval_ok_and_fail_on_drift(
        self, corpus, trained, tmp_path, capsys
    ):
        from repro.cli import main

        assert main(
            ["surrogate", "eval", str(trained), str(corpus["path"])]
        ) == 0
        assert "drift check" in capsys.readouterr().out
        # A grown store makes the model stale: --fail-on-drift gates.
        grown = tmp_path / "grown.jsonl"
        grown.write_bytes(corpus["path"].read_bytes())
        store = RunRecordStore(grown)
        store.put(
            default_session().run(
                Scenario(
                    architecture="crossbar", ports=4, load=0.3,
                    backend="simulate", **SIM_KWARGS,
                )
            )
        )
        assert main(
            ["surrogate", "eval", str(trained), str(grown)]
        ) == 0
        assert main(
            [
                "surrogate", "eval", str(trained), str(grown),
                "--fail-on-drift",
            ]
        ) == 3

    def test_train_missing_store_is_user_error(self, tmp_path):
        from repro.cli import main

        assert main(
            ["surrogate", "train", str(tmp_path / "missing.jsonl")]
        ) == 2

    def test_missing_model_file_is_user_error(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "missing_model.json")
        store = str(tmp_path / "whatever.jsonl")
        assert main(["surrogate", "eval", missing, store]) == 2
        assert main(["serve", missing]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "cannot read surrogate model" in err

    def test_negative_retries_is_user_error(self, trained, tmp_path, capsys):
        from repro.cli import main

        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text(json.dumps(
            [Scenario("crossbar", 4, 0.3, backend="estimate").to_dict()]
        ))
        assert main(["batch", str(scenarios), "--retries", "-1"]) == 2
        assert main(["serve", str(trained), "--retries", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: --retries must be >= 0\n") == 2

    def test_campaign_cli_accepts_surrogate_eval(self, tmp_path, capsys):
        from repro.cli import main

        campaign_path = tmp_path / "surr_campaign.json"
        campaign_path.write_text(
            Campaign(
                name="surr_cli",
                kind="surrogate_eval",
                architectures=("crossbar", "banyan"),
                ports=(8,),
                loads=LOADS,
                base=SIM_KWARGS,
            ).to_json()
        )
        assert main(
            [
                "campaign", "run", str(campaign_path),
                "--cache", str(tmp_path / "cli_cache.jsonl"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "surr_cli" in out
        assert "10 points" in out
