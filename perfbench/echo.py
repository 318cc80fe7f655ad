"""A reference HTTP server for the predict_http workload's host speed.

    python3 perfbench/echo.py

Answers every request on a keep-alive connection with one fixed JSON
body, over the same asyncio streams, loopback TCP and single CPU as
``repro serve`` but with none of the program's code, so that a block
of requests to it measures how fast the host runs HTTP round trips at
that moment (see ``workloads.PredictHttp``).  Prints its address to
stderr and serves until SIGTERM.
"""

from __future__ import annotations

import asyncio
import signal
import sys

BODY = b'{"echo": "' + b"x" * 300 + b'"}'
RESPONSE = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(BODY)).encode()
            + b"\r\nConnection: keep-alive\r\n\r\n" + BODY)


async def handle(reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if length:
                await reader.readexactly(length)
            writer.write(RESPONSE)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"echo serving on http://{host}:{port}", file=sys.stderr,
          flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(main())
