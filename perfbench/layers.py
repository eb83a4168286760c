"""The traced run: per-layer metrics from spans and the server's counters.

Spans are recorded around calls into each layer's public functions — in
this process for ingest, append, the wire client and the quality policy,
and in the server process (``server_proc.py --trace-out``) for the hot
set, storage reads, version resolution, the buffer pool and checksums.
The nominal open-loop pass runs twice on the same catalog, on a plain and
on a traced server, so ``trace.overhead_pct`` is the cost of the spans.
"""

from __future__ import annotations

import os
import time

from tracing import SpanRecorder, load, mean_us, quantile_us, summarise

CODEC_GOPS = 2  # GOPs of the workload's clip timed in the serial codec probe


def _counter(counters: dict, name: str) -> float:
    """Sum of every series of one counter in a metrics snapshot."""
    return sum(
        value
        for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def codec_probe(bench) -> dict:
    """Serial transform / quantise / entropy timings per megapixel, and
    the bytes of each rung, over the first GOPs of the workload's clip."""
    import repro.video.codec as codec_module

    recorder = SpanRecorder()
    originals = (
        codec_module.forward_dct,
        codec_module.PlaneCodec.quantise,
        codec_module.FrameCodec.encode_frame,
    )
    recorder.trace_attribute(codec_module, "forward_dct", "codec.transform")
    recorder.trace_attribute(codec_module.PlaneCodec, "quantise", "codec.quantise")
    recorder.trace_attribute(codec_module.FrameCodec, "encode_frame", "codec.encode_frame")
    gop = bench.spec["fps"]
    frames = bench.frames[: CODEC_GOPS * gop]
    sizes = {}
    try:
        for quality in bench.qualities:
            codec = codec_module.FrameCodec(quality)
            total = 0
            reference = None
            for index, frame in enumerate(frames):
                if index % gop == 0:
                    reference = None
                payload, reference = codec.encode_frame(frame, reference)
                total += len(payload)
            sizes[quality.name.lower()] = total
    finally:
        (
            codec_module.forward_dct,
            codec_module.PlaneCodec.quantise,
            codec_module.FrameCodec.encode_frame,
        ) = originals
    summary = summarise(recorder.rows)
    megapixels = len(bench.qualities) * sum(f.width * f.height for f in frames) / 1e6
    return {
        "codec.transform_s_per_mpx": summary["codec.transform"]["self"] / megapixels,
        "codec.quantise_s_per_mpx": summary["codec.quantise"]["self"] / megapixels,
        "codec.entropy_s_per_mpx": summary["codec.encode_frame"]["self"] / megapixels,
        **{f"codec.bytes_{name}": float(size) for name, size in sizes.items()},
    }


def span_cost_us(spans: int = 20000) -> float:
    """What one ``MetricsRegistry.span`` around no work costs."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    started = time.perf_counter()
    for _ in range(spans):
        with registry.span("bench.probe"):
            pass
    return 1e6 * (time.perf_counter() - started) / spans


def traced_metrics(bench) -> dict:
    """Run one traced pass of the workload; returns ``{name: value}``."""
    from repro.serve.client import HttpSegmentClient
    from repro.video.tiles import TiledVideoCodec

    recorder = SpanRecorder()
    bench.make_frames()
    bench.warm_encoder()
    originals = (TiledVideoCodec.encode_gop_ladders, os.fsync, HttpSegmentClient.fetch_segment)
    recorder.trace_attribute(TiledVideoCodec, "encode_gop_ladders", "tiles.encode_gop_ladders")
    recorder.count_attribute(os, "fsync", "os.fsync")
    recorder.trace_attribute(HttpSegmentClient, "fetch_segment", "client.fetch_segment")
    try:
        live = bench.setup_once(0)
        bench.append(live)
        delivered = bench.deliver(
            live, 1, 1, 1, assign_wrapper=lambda assign: recorder.wrap(assign, "policy.assign")
        )
    finally:
        TiledVideoCodec.encode_gop_ladders, os.fsync, HttpSegmentClient.fetch_segment = originals
    storage = live["storage"]
    ingest = storage.metrics.snapshot()
    target = bench.build_target(storage)
    requested = delivered["requested"]

    # The same seeded schedule drives the plain and the traced server.
    plain = live["server"]
    cost = bench.cost(plain, target, bench.chooser(target, bench.rng("cost"), requested))
    rng = bench.rng("serve")
    choose = bench.chooser(target, rng, requested)
    untraced = bench.nominal(plain, target, choose, rng)
    capacity = bench.capacity(plain, target, choose, untraced, rng)
    plain.stop()
    bench.servers.remove(plain)

    spans_path = str(bench.work / "server-spans.json")
    traced_server = bench.start_server(live["root"], live["catalog_bytes"], spans_path)
    bench.sweep(traced_server, target)
    rng = bench.rng("serve")
    choose = bench.chooser(target, rng, requested)
    traced = bench.nominal(traced_server, target, choose, rng)
    with HttpSegmentClient(traced_server.url) as client:
        server_metrics = client.fetch_metrics()
    traced_server.stop()
    bench.servers.remove(traced_server)
    rows, counts = load(spans_path)
    server = summarise(rows)
    local = summarise(recorder.rows)

    counters = server_metrics["counters"]
    histograms = server_metrics["histograms"]
    requests = sum(
        value
        for key, value in counters.items()
        if key.startswith("serve.requests{") and "endpoint=segment" in key
    )
    non200 = sum(
        value
        for key, value in counters.items()
        if key.startswith("serve.requests{") and "status=200" not in key
    )
    reads = server.get("storage.read_segment", {}).get("calls", 0)
    service = histograms.get("serve.request_seconds{endpoint=segment}", {})
    source_us = 1e6 * _ratio(
        sum(server.get(name, {}).get("total", 0.0) for name in ("hotset.lookup", "storage.read_segment")),
        requests,
    )
    hits = _counter(counters, "cache.hits")
    misses = _counter(counters, "cache.misses")
    ingest_counters = ingest["counters"]
    ingest_histograms = ingest["histograms"]
    write = ingest_histograms.get("storage.ingest.write.seconds", {})
    commit = ingest_histograms.get("storage.ingest.commit.seconds", {})
    values = {
        "server.cpu_us_per_req": cost["server_cpu_us_per_req"],
        "server.self_us": 1e6 * _ratio(service.get("sum", 0.0), service.get("count", 0)) - source_us,
        "server.non200": non200,
        "hotset.hit_ratio": _ratio(_counter(counters, "serve.pin_hits"), requests),
        "hotset.lookup_us": mean_us(server, "hotset.lookup"),
        "storage.read_us_p50": quantile_us(server, "storage.read_segment", 0.5),
        "storage.read_us_p99": quantile_us(server, "storage.read_segment", 0.99),
        "storage.meta_us": mean_us(server, "storage.meta"),
        "storage.checksum_us": mean_us(server, "storage.checksum", per=reads),
        "catalog.scans_per_read": _ratio(server.get("catalog.versions", {}).get("calls", 0), reads),
        "catalog.scan_us": mean_us(server, "catalog.versions"),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.evictions_per_req": _ratio(_counter(counters, "cache.evictions"), requests),
        "cache.load_us": mean_us(server, "cache.get_or_load"),
        "storage.write_s": _ratio(write.get("sum", 0.0), write.get("count", 0)),
        "storage.commit_ms": 1e3 * _ratio(commit.get("sum", 0.0), commit.get("count", 0)),
        "storage.fsyncs_per_segment": _ratio(
            recorder.counts["os.fsync"], _counter(ingest_counters, "storage.segments_written")
        ),
        "tiles.encode_s": mean_us(local, "tiles.encode_gop_ladders") / 1e6,
        "tiles.shm_gops": _counter(ingest_counters, "ingest.shm_gops"),
        "ingest.pool_fallback": _counter(ingest_counters, "ingest.pool_fallback"),
        **codec_probe(bench),
        "client.fetch_us": mean_us(local, "client.fetch_segment"),
        "streamer.decide_us": mean_us(local, "policy.assign"),
        "obs.calls_per_req": _ratio(counts.get("obs.span", 0) + counts.get("obs.counter", 0), requests),
        "obs.span_us": span_cost_us(),
        "gen.late_p99_ms": untraced["generator_late_p99_ms"],
        "trace.overhead_pct": 100.0 * (traced["p50_ms"] / untraced["p50_ms"] - 1.0),
        "wall.p50_ms": untraced["p50_ms"],
        "wall.p99_ms": untraced["p99_ms"],
        "wall.capacity_rps": capacity["capacity_rps"],
        "host.steal_pct": untraced["host_steal_pct"],
    }
    bench.report["traced"] = {
        # False when the generator sent late: the wall.* figures then do
        # not measure the nominal load.
        "wall_valid": untraced["valid"],
        "untraced_nominal": untraced,
        "untraced_ladder": capacity,
        "traced_nominal": traced,
        "segment_requests": requests,
        "server_spans": {name: {k: v for k, v in entry.items() if k != "durations"}
                         for name, entry in server.items()},
        "local_spans": {name: {k: v for k, v in entry.items() if k != "durations"}
                        for name, entry in local.items()},
    }
    return values
