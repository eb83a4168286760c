"""A bare ``asyncio.Protocol`` segment server: the load generator's ceiling.

Run as ``python3 perfbench/stub_server.py --root DIR --video NAME``. It
reads every segment of the video's latest version once, prebuilds each
response exactly as the real server frames it (same headers, same
``X-Checksum``), and then answers pipelined GETs from a dict with no
other work. What the generator reaches against it is the most it can
measure; every ladder must stay below that.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.storage import StorageManager, checksum_hex  # noqa: E402


def build_responses(root: str, video: str) -> dict[bytes, bytes]:
    storage = StorageManager(root, cache_bytes=0)
    manifest = storage.build_manifest(video)
    responses = {}
    for key in manifest.segment_sizes:
        body = storage.read_segment(video, key.window, key.tile, key.quality)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/octet-stream\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Checksum: {checksum_hex(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        responses[f"/segment/{video}/{key.to_path()}".encode("ascii")] = head + body
    return responses


_NOT_FOUND = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n"


class StubProtocol(asyncio.Protocol):
    def __init__(self, responses: dict[bytes, bytes]) -> None:
        self.responses = responses
        self.buffer = b""
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer + data
        offset = 0
        out = []
        while True:
            end = buffer.find(b"\r\n\r\n", offset)
            if end < 0:
                break
            line_end = buffer.find(b"\r\n", offset)
            target = buffer[offset:line_end].split(b" ")[1]
            out.append(self.responses.get(target, _NOT_FOUND))
            offset = end + 4
        self.buffer = buffer[offset:]
        if out:
            self.transport.writelines(out)


async def serve(args: argparse.Namespace) -> None:
    responses = build_responses(args.root, args.video)
    loop = asyncio.get_running_loop()
    server = await loop.create_server(
        lambda: StubProtocol(responses), "127.0.0.1", 0
    )
    stop = asyncio.Event()

    def on_stdin() -> None:
        os.read(sys.stdin.fileno(), 4096)
        stop.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    port = server.sockets[0].getsockname()[1]
    print(json.dumps({"port": port, "pid": os.getpid()}), flush=True)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(sys.stdin.fileno())
        server.close()
        await server.wait_closed()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--video", required=True)
    asyncio.run(serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
