"""The serving yardstick: a minimal HTTP/1.1 JSON echo server.

``serve-mixed`` times the daemon's request path against this server,
run on the same CPU right before and after each closed-loop pass: both
parse a small JSON request and write a JSON response over a keep-alive
loopback connection, so both slow down together when the shared host
does.  It is the benchmark's own code, so no change to the program can
move it.

Usage: ``python perfbench/echo.py`` (prints ``listening on HOST:PORT``).
"""

import asyncio
import json
import sys


async def handle(reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            request = json.loads(await reader.readexactly(length))
            body = json.dumps({"echo": request, "status": "ok"},
                              sort_keys=True,
                              separators=(",", ":")).encode()
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                         b"\r\nContent-Length: " + str(len(body)).encode()
                         + b"\r\n\r\n" + body)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"listening on {host}:{port}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        sys.exit(0)
