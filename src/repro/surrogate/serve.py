"""Async HTTP JSON API over a :class:`SurrogatePredictor`.

Stdlib only: a hand-rolled HTTP/1.1 loop on asyncio streams (no
``http.server``, no third-party web framework), because the whole
request cycle for an in-distribution query is a dict lookup plus a
6-term polynomial — a framework would cost more than the work.
Keep-alive is supported so a load generator can push thousands of
queries down one connection.

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


class _BufferedStreamProtocol(
    asyncio.StreamReaderProtocol, asyncio.BufferedProtocol
):
    """Feeds a connection's :class:`asyncio.StreamReader` from one
    preallocated buffer.

    A plain stream protocol makes the transport ``recv`` 256 KiB into a
    new buffer on every read, which glibc serves by mmap/munmap unless
    a large heap has raised its mmap threshold; ``recv_into`` one
    buffer per connection allocates only what arrived.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._buffer = memoryview(bytearray(_READ_SIZE))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(bytes(self._buffer[:nbytes]))


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
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self.journal_path is not None:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal_fh = self.journal_path.open("a")
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _BufferedStreamProtocol(
                asyncio.StreamReader(loop=loop), self._handle_connection,
                loop=loop,
            ),
            self.host,
            self.port,
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
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Server.close() only stops the listener; idle keep-alive
        # connections would otherwise dangle until loop teardown and
        # die noisily there.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        if self._journal_fh is not None:
            self._journal_fh.flush()
            self._journal_fh.close()
            self._journal_fh = None

    # ------------------------------------------------------------------
    # HTTP mechanics
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        raise
                    break  # clean EOF between requests
                request_line, _, raw_headers = head.partition(b"\r\n")
                try:
                    method, path, version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"}, True
                    )
                    break
                headers: dict[str, str] = {}
                for line in raw_headers.split(b"\r\n"):
                    if not line:
                        continue
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if not 0 <= length <= _MAX_BODY:
                    await self._respond(
                        writer, 400, {"error": "bad content-length"}, True
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                close = (
                    headers.get("connection", "").lower() == "close"
                    or version == "HTTP/1.0"
                )
                status, payload = self._dispatch(method, path, body)
                await self._respond(writer, status, payload, close)
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # stop() (or loop teardown) cancelled us mid-read; ending
            # the task normally keeps shutdown quiet — asyncio's
            # stream machinery logs cancelled connection tasks.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any] | str,
        close: bool,
    ) -> None:
        body = (
            payload if isinstance(payload, str) else json.dumps(payload)
        ).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "Internal Server Error"
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

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
                items = data.get("scenarios")
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
        except (json.JSONDecodeError, TypeError) as exc:
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
