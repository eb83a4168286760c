"""The benchmark's server process: one ``SegmentServer`` on a catalog root.

Run as ``python3 perfbench/server_proc.py --root DIR [...]``. It prints one
JSON line (``{"port": ..., "pid": ..., "pinned": ...}``) once it accepts
connections, serves until a line arrives on stdin (or stdin closes), stops
gracefully and, with ``--trace-out``, writes the spans it recorded.

With ``--trace-out`` the entry function wraps the public methods of the
live server, hot set, storage manager, catalog and buffer pool (after
start-up, so prewarm reads are not counted) and counts the metrics-layer
calls the server makes per request.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.storage import StorageManager  # noqa: E402
from repro.serve.server import SegmentServer, ServerConfig  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SpanRecorder  # noqa: E402


def install_tracing(server: SegmentServer, recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points on the live instances."""
    import repro.core.storage as storage_module
    from repro.obs import metrics as metrics_module

    storage = server.storage
    recorder.trace_attribute(server.hot, "lookup", "hotset.lookup")
    recorder.trace_attribute(storage, "read_segment", "storage.read_segment")
    recorder.trace_attribute(storage, "meta", "storage.meta")
    recorder.trace_attribute(storage.catalog, "versions", "catalog.versions")
    if storage.segment_cache is not None:
        recorder.trace_attribute(storage.segment_cache, "get_or_load", "cache.get_or_load")
    # Module-level: read verification and the server's response stamp
    # both reach segment_checksum through this module global.
    recorder.trace_attribute(storage_module, "segment_checksum", "storage.checksum")
    recorder.count_attribute(metrics_module.MetricsRegistry, "span", "obs.span")
    recorder.count_attribute(metrics_module.Counter, "inc", "obs.counter")
    recorder.count_attribute(metrics_module.BoundCounter, "inc", "obs.counter")


async def serve(args: argparse.Namespace) -> None:
    storage = StorageManager(args.root, cache_bytes=args.cache_bytes)
    # With a pin budget, every video is pinned at start-up and a segment
    # is pinned on its first cold read.
    pinning = args.pin_budget > 0
    config = ServerConfig(
        processes=1,
        pin_budget_bytes=args.pin_budget,
        pin_threshold=1,
        prewarm=tuple(storage.list_videos()) if pinning else (),
    )
    server = SegmentServer(storage, config)
    _, port = await server.start()
    recorder = SpanRecorder() if args.trace_out else None
    if recorder is not None:
        install_tracing(server, recorder)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def on_stdin() -> None:
        # Any line, or end of file when the benchmark dies, means stop.
        os.read(sys.stdin.fileno(), 4096)
        stop.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    print(
        json.dumps({"port": port, "pid": os.getpid(), "pinned": len(server.hot)}),
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        loop.remove_reader(sys.stdin.fileno())
        await server.stop()
    if recorder is not None:
        recorder.dump(args.trace_out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--cache-bytes", type=int, default=8 * 1024 * 1024)
    parser.add_argument("--pin-budget", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    asyncio.run(serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
