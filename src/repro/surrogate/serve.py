"""Async HTTP JSON API over a :class:`SurrogatePredictor`.

Stdlib only: a hand-rolled HTTP/1.1 server (no ``http.server``, no
third-party web framework), because the whole request cycle for an
in-distribution query is a dict lookup plus a 6-term polynomial — a
framework would cost more than the work.  Each connection is one
:class:`asyncio.BufferedProtocol` that reads into a preallocated
64 KiB buffer and answers every complete request in it, in order, with
one ``transport.write``, so keep-alive and pipelined clients can push
thousands of queries down one connection.  A request head must fit in
that buffer (a longer one gets a 400 and the connection closes); while
the transport's write buffer is full the connection neither reads nor
answers (backpressure).

Endpoints
---------
``POST /predict``
    Body: one scenario JSON (``Scenario.from_dict`` dialect).
    Response: ``Prediction.to_json()`` — byte-identical to calling
    :meth:`SurrogatePredictor.predict` in process.  Repeated
    surrogate-served bodies are answered from a bounded hot-query
    memo (the model is immutable while serving, so the bytes cannot
    go stale; fallbacks are never memoised).
``POST /batch``
    Body: ``{"scenarios": [...]}``.  Response: JSON array of
    prediction dicts.
``GET /health``
    Liveness plus the served model's content hash.
``GET /stats``
    Hit/fallback/drift counters.

Every request is journaled to an append-only JSONL sidecar (buffered,
flushed every few lines and on shutdown) so a serving incident can be
replayed.  Fallback simulations inherit the predictor's
:class:`~repro.resilience.RetryPolicy`; a fallback that still fails
degrades to a JSON 500 on that one request instead of killing the
accept loop.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Any

from repro.api.scenario import Scenario
from repro.errors import ConfigurationError, ReproError

from repro.surrogate.predict import SurrogatePredictor

_MAX_BODY = 8 * 1024 * 1024
_JOURNAL_FLUSH_EVERY = 64
_PREDICT_MEMO_MAX = 4096
_READ_SIZE = 64 * 1024
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}


def _response(
    status: int, payload: dict[str, Any] | str, close: bool
) -> bytes:
    """One whole HTTP/1.1 response: head and JSON body."""
    body = (
        payload if isinstance(payload, str) else json.dumps(payload)
    ).encode()
    reason = _REASONS.get(status, "Internal Server Error")
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"\r\n"
    ).encode("latin-1") + body


class _HttpConnection(asyncio.BufferedProtocol):
    """One client connection of a :class:`SurrogateServer`.

    The transport reads into ``_buffer``, whose bytes ``[_start:_end]``
    are not parsed yet; every complete request among them is answered,
    in order, from :meth:`buffer_updated`.  A request longer than the
    buffer gets a buffer of its own length until it is answered.
    """

    def __init__(self, server: SurrogateServer) -> None:
        self._server = server
        self._buffer = bytearray(_READ_SIZE)
        self._view = memoryview(self._buffer)
        self._start = self._end = 0
        self._paused = False
        self._transport: Any = None

    def connection_made(self, transport: Any) -> None:
        self._transport = transport
        self._server._connections.add(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self._transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        self._answer()

    def pause_writing(self) -> None:
        # Reading pauses too: no request is parsed (and no EOF seen)
        # while answers wait in the transport's write buffer.
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._transport.resume_reading()
        self._answer()

    def _answer(self) -> None:
        """Answer every complete request received, in order."""
        transport = self._transport
        size = _READ_SIZE
        while not self._paused and not transport.is_closing():
            head_end = self._buffer.find(b"\r\n\r\n", self._start, self._end)
            if head_end < 0:
                break
            request_line, *lines = str(
                self._view[self._start:head_end], "latin-1"
            ).split("\r\n")
            try:
                method, path, version = request_line.strip().split(" ", 2)
            except ValueError:
                self._refuse("malformed request line")
                return
            headers: dict[str, str] = {}
            for line in lines:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if not 0 <= length <= _MAX_BODY:
                self._refuse("bad content-length")
                return
            end = head_end + 4 + length
            if end > self._end:
                size = max(size, end - self._start)
                break
            body = self._view[head_end + 4:end].tobytes()
            self._start = end
            close = (
                headers.get("connection", "").lower() == "close"
                or version == "HTTP/1.0"
            )
            status, payload = self._server._dispatch(method, path, body)
            transport.write(_response(status, payload, close))
            if close:
                transport.close()
        if self._paused or transport.is_closing():
            return
        if self._start or size != len(self._buffer):
            # Move the unparsed bytes to the front of a buffer that
            # will hold the whole request.
            unparsed = self._view[self._start:self._end].tobytes()
            if size != len(self._buffer):
                self._buffer = bytearray(size)
                self._view = memoryview(self._buffer)
            self._start, self._end = 0, len(unparsed)
            self._buffer[:self._end] = unparsed
        if self._end == size:
            self._refuse("request head too large")

    def _refuse(self, error: str) -> None:
        self._transport.write(_response(400, {"error": error}, True))
        self._transport.close()


class SurrogateServer:
    """Serve a predictor over HTTP.

    Parameters
    ----------
    predictor:
        The :class:`SurrogatePredictor` answering queries.  All
        request handling runs on the event-loop thread, so counters
        and the fallback store need no locking; an out-of-distribution
        fallback serialises the loop for the duration of its
        simulation (by design — correctness over tail latency).
    host / port:
        Bind address; port 0 picks a free port (``self.port`` is
        updated to the bound one after :meth:`start`).
    journal:
        Optional JSONL path; one line per request.
    """

    def __init__(
        self,
        predictor: SurrogatePredictor,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        journal: str | None = None,
    ) -> None:
        self.predictor = predictor
        self.host = host
        self.port = port
        self.journal_path = Path(journal) if journal else None
        self.requests = 0
        self.errors = 0
        # Hot-query memo: raw /predict body -> the exact response
        # string previously served for it.  Only surrogate-sourced
        # answers are memoised (the model is immutable for the life of
        # the server, so the bytes cannot go stale; fallbacks mutate
        # the store and the drift counters, so they always re-run).
        self._predict_memo: dict[bytes, str] = {}
        self._journal_fh: Any = None
        self._journal_pending = 0
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.BaseTransport] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self.journal_path is not None:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal_fh = self.journal_path.open("a")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _HttpConnection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            # Server.close() only stops the listener: close the open
            # keep-alive connections too, each after its queued answers
            # (wait_closed() waits for them from Python 3.12 on).
            self._server.close()
            for transport in list(self._connections):
                transport.close()
            await self._server.wait_closed()
            self._server = None
        if self._journal_fh is not None:
            self._journal_fh.flush()
            self._journal_fh.close()
            self._journal_fh = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any] | str]:
        self.requests += 1
        start = time.perf_counter()
        status: int
        payload: dict[str, Any] | str
        source = None
        try:
            if method == "GET" and path == "/health":
                status, payload = 200, {
                    "status": "ok",
                    "model_hash": self.predictor.model.content_hash(),
                    "curves": self.predictor.model.n_curves,
                }
            elif method == "GET" and path == "/stats":
                stats = self.predictor.stats()
                stats["requests"] = self.requests
                stats["errors"] = self.errors
                status, payload = 200, stats
            elif method == "POST" and path == "/predict":
                memoised = self._predict_memo.get(body)
                if memoised is not None:
                    # Same bytes in -> same bytes out; keep the
                    # predictor's counters truthful without paying for
                    # a re-evaluation.
                    self.predictor.predictions += 1
                    self.predictor.surrogate_hits += 1
                    source = "surrogate"
                    status, payload = 200, memoised
                else:
                    scenario = Scenario.from_dict(json.loads(body))
                    prediction = self.predictor.predict(scenario)
                    source = prediction.source
                    status, payload = 200, prediction.to_json()
                    if (
                        prediction.source == "surrogate"
                        and len(self._predict_memo) < _PREDICT_MEMO_MAX
                    ):
                        self._predict_memo[bytes(body)] = payload
            elif method == "POST" and path == "/batch":
                data = json.loads(body)
                items = isinstance(data, dict) and data.get("scenarios")
                if not isinstance(items, list):
                    raise ConfigurationError(
                        'batch body must be {"scenarios": [...]}'
                    )
                predictions = [
                    self.predictor.predict(Scenario.from_dict(item))
                    for item in items
                ]
                status, payload = 200, json.dumps(
                    [p.to_dict() for p in predictions]
                )
            else:
                status, payload = 404, {
                    "error": f"unknown endpoint {method} {path}"
                }
        except (json.JSONDecodeError, UnicodeDecodeError, TypeError) as exc:
            self.errors += 1
            status, payload = 400, {"error": f"bad request body: {exc}"}
        except ConfigurationError as exc:
            self.errors += 1
            status, payload = 400, {"error": str(exc)}
        except ReproError as exc:
            # Fallback simulation failed even after the retry policy:
            # degrade this one request, keep serving.
            self.errors += 1
            status, payload = 500, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            self.errors += 1
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"
            }
        if self._journal_fh is not None:
            self._journal(
                {
                    "ts": time.time(),
                    "method": method,
                    "path": path,
                    "status": status,
                    "source": source,
                    "elapsed_us": round(
                        (time.perf_counter() - start) * 1e6, 1
                    ),
                }
            )
        return status, payload

    def _journal(self, entry: dict[str, Any]) -> None:
        if self._journal_fh is None:
            return
        self._journal_fh.write(json.dumps(entry) + "\n")
        self._journal_pending += 1
        if self._journal_pending >= _JOURNAL_FLUSH_EVERY:
            self._journal_fh.flush()
            self._journal_pending = 0
