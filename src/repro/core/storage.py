"""The VisualCloud storage manager.

Ingests 360-degree video, segments it spatiotemporally (GOP-length
temporal windows x an angular tile grid), encodes every segment at every
rung of a quality ladder, and persists the result under the catalog with
MP4-style metadata. Reads are selective: any (window, tile, quality)
segment is one file access, found through the metadata's GOP index.

Writes are no-overwrite and versioned: re-storing a video writes only the
changed segments plus a new metadata file whose index points at old files
for unchanged content. Readers of an existing version are unaffected —
snapshot isolation by construction.

The read surface — ``build_manifest`` + ``read_segment`` — is the
:class:`~repro.core.backends.SegmentBackend` protocol (re-exported here
as :data:`SegmentBackend`): :class:`StorageManager` is its canonical
local-disk implementation, and the in-memory / remote-peer / tiered
backends in :mod:`repro.core.backends` satisfy the same contract, which
is what lets the sharded delivery tier serve segments a node does not
own.
"""

from __future__ import annotations

import hashlib
import os
import signal
import struct
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.backends import SegmentBackend
from repro.core.catalog import Catalog
from repro.core.errors import (
    CatalogError,
    IngestError,
    SegmentCorruptError,
    SegmentNotFoundError,
    VisualCloudError,
)
from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.stream.dash import Manifest, SegmentKey
from repro.video.frame import Frame
from repro.video.mp4 import (
    Atom,
    Mp4File,
    make_ftyp,
    make_mvhd,
    make_stsd,
    make_stss,
    make_sv3d,
    parse_mvhd,
    parse_stsd,
    parse_stss,
    parse_sv3d,
)
from repro.video.quality import Quality
from repro.video.tiles import (
    TRANSPORTS,
    TiledGop,
    TiledVideoCodec,
    make_encode_executor,
)


@dataclass(frozen=True)
class IngestConfig:
    """How a video is segmented and encoded at ingest time.

    ``workers`` sizes the encode fan-out: every (GOP, tile) ladder of
    segments is an independent encode job, so ingest distributes them
    across that many processes. ``None`` (the default) resolves to
    ``os.cpu_count()``; ``workers=1`` is the serial path, byte-identical
    to any parallel run.

    ``transport`` picks how raw frames reach the workers: ``"auto"``
    (shared-memory blocks where the platform supports them, else
    pickling), ``"shm"``, or ``"pickle"``. Bytes are identical on every
    transport; only the IPC cost differs.

    ``checksums`` records a per-segment content checksum in the metadata
    index (default on). Readers verify it on every uncached read and the
    serve tier uses it to trigger peer read-repair; turning it off
    writes legacy-style entries (checksum 0 = unknown, never verified) —
    the ablation arm the ingest bench compares against.
    """

    grid: TileGrid = TileGrid(4, 4)
    qualities: tuple[Quality, ...] = (Quality.HIGH, Quality.LOW)
    gop_frames: int = 30
    fps: float = 30.0
    projection: str = "equirectangular"
    workers: int | None = None
    transport: str = "auto"
    checksums: bool = True

    def __post_init__(self) -> None:
        if self.gop_frames < 1:
            raise ValueError(f"gop_frames must be >= 1, got {self.gop_frames}")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if not self.qualities:
            raise ValueError("at least one quality is required")
        if list(self.qualities) != sorted(self.qualities, reverse=True):
            raise ValueError("qualities must be ordered best first")
        if self.workers is None:
            object.__setattr__(self, "workers", os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}"
            )

    @property
    def gop_duration(self) -> float:
        return self.gop_frames / self.fps


@dataclass(frozen=True)
class SegmentEntry:
    """Index entry for one stored segment: where, how big, and what the
    bytes must hash to (:func:`segment_checksum`; 0 = unknown/legacy)."""

    size: int
    file_version: int  # the version whose STORE wrote the bytes
    checksum: int = 0


@dataclass
class VideoMeta:
    """Parsed metadata for one version of one stored video."""

    name: str
    version: int
    width: int
    height: int
    fps: float
    grid: TileGrid
    gop_frames: int
    qualities: tuple[Quality, ...]
    projection: str
    streaming: bool
    gop_frame_counts: list[int]
    entries: dict[tuple[int, tuple[int, int], Quality], SegmentEntry] = field(
        default_factory=dict
    )

    @property
    def gop_count(self) -> int:
        return len(self.gop_frame_counts)

    @property
    def gop_duration(self) -> float:
        return self.gop_frames / self.fps

    @property
    def duration(self) -> float:
        return sum(self.gop_frame_counts) / self.fps

    def gop_start_time(self, gop: int) -> float:
        if not 0 <= gop < self.gop_count:
            raise IndexError(f"GOP {gop} outside [0, {self.gop_count})")
        return sum(self.gop_frame_counts[:gop]) / self.fps

    def gops_overlapping(self, t0: float, t1: float) -> list[int]:
        """GOP indices whose playback interval intersects ``[t0, t1)`` —
        the temporal (stss-style) index lookup."""
        if t1 <= t0:
            raise ValueError(f"empty temporal range [{t0}, {t1})")
        result = []
        start = 0.0
        for gop, frames in enumerate(self.gop_frame_counts):
            end = start + frames / self.fps
            if start < t1 and end > t0:
                result.append(gop)
            start = end
        return result


# -- metadata (de)serialisation ------------------------------------------------

_VINF = struct.Struct(">HHdBBHIB B")  # w, h, fps, rows, cols, gop_frames, version, streaming, qcount


def _build_metadata_file(meta: VideoMeta) -> Mp4File:
    vinf_payload = _VINF.pack(
        meta.width,
        meta.height,
        meta.fps,
        meta.grid.rows,
        meta.grid.cols,
        meta.gop_frames,
        meta.version,
        1 if meta.streaming else 0,
        len(meta.qualities),
    )
    vinf_payload += bytes(quality.rank for quality in meta.qualities)
    vinf_payload += struct.pack(">I", meta.gop_count)
    vinf_payload += b"".join(struct.pack(">H", count) for count in meta.gop_frame_counts)

    vcld = Atom(
        "vcld",
        children=[Atom("vinf", payload=vinf_payload), make_sv3d(meta.projection)],
    )
    traks = []
    tile_width = meta.width // meta.grid.cols
    tile_height = meta.height // meta.grid.rows
    for tile in meta.grid.tiles():
        for quality in meta.qualities:
            entries = []
            checksums = []
            for gop in range(meta.gop_count):
                entry = meta.entries.get((gop, tile, quality))
                if entry is None:
                    continue
                time_ms = int(round(meta.gop_start_time(gop) * 1000))
                entries.append((time_ms, entry.file_version, entry.size))
                checksums.append(entry.checksum)
            if not entries:
                continue
            # Content checksums ride in a sibling leaf atom (one >I per
            # stss entry, same order) rather than widening the stss
            # record: old parsers skip unknown atoms, so pre-checksum
            # readers still parse post-checksum metadata.
            csum = Atom(
                "csum",
                payload=struct.pack(">I", len(checksums))
                + b"".join(struct.pack(">I", value) for value in checksums),
            )
            traks.append(
                Atom(
                    "trak",
                    children=[
                        make_stsd("vcbd", tile_width, tile_height, meta.fps, quality.label),
                        Atom("tloc", payload=struct.pack(">BB", *tile)),
                        make_stss(entries),
                        csum,
                    ],
                )
            )
    moov = Atom(
        "moov",
        children=[make_mvhd(1000, int(round(meta.duration * 1000))), vcld] + traks,
    )
    return Mp4File(atoms=[make_ftyp("vcld"), moov])


def _parse_metadata_file(name: str, data: bytes) -> VideoMeta:
    """Parse one metadata blob, rejecting damage in a controlled way.

    Torn or bit-rotted metadata must surface as :class:`CatalogError`
    (or ``ValueError``/``EOFError`` from the MP4 layer) — never a raw
    ``struct.error`` from an unpack that ran off the end of a truncated
    payload, which callers would not recognise as corruption.
    """
    try:
        return _parse_metadata_atoms(name, data)
    except struct.error as error:
        raise CatalogError(
            f"metadata for {name!r} is truncated or damaged: {error}"
        ) from error


def _parse_metadata_atoms(name: str, data: bytes) -> VideoMeta:
    mp4 = Mp4File.parse(data)
    moov = mp4.find("moov")
    if moov is None:
        raise CatalogError(f"metadata for {name!r} has no moov atom")
    vinf = moov.find("vcld.vinf")
    sv3d = moov.find("vcld.sv3d")
    if vinf is None or sv3d is None:
        raise CatalogError(f"metadata for {name!r} is missing VisualCloud atoms")
    (
        width,
        height,
        fps,
        rows,
        cols,
        gop_frames,
        version,
        streaming,
        quality_count,
    ) = _VINF.unpack_from(vinf.payload)
    offset = _VINF.size
    ranks = vinf.payload[offset : offset + quality_count]
    offset += quality_count
    (gop_count,) = struct.unpack_from(">I", vinf.payload, offset)
    offset += 4
    frame_counts = [
        struct.unpack_from(">H", vinf.payload, offset + 2 * i)[0] for i in range(gop_count)
    ]
    all_qualities = list(Quality)
    meta = VideoMeta(
        name=name,
        version=version,
        width=width,
        height=height,
        fps=fps,
        grid=TileGrid(rows, cols),
        gop_frames=gop_frames,
        qualities=tuple(all_qualities[rank] for rank in ranks),
        projection=parse_sv3d(sv3d),
        streaming=bool(streaming),
        gop_frame_counts=frame_counts,
    )
    gop_duration_ms = gop_frames / fps * 1000
    for trak in moov.find_all("trak"):
        stsd = trak.find("stsd")
        tloc = trak.find("tloc")
        stss = trak.find("stss")
        if stsd is None or tloc is None or stss is None:
            raise CatalogError(f"metadata for {name!r} has an incomplete trak")
        quality = Quality.from_label(parse_stsd(stsd)["quality"])
        tile = tuple(struct.unpack(">BB", tloc.payload))
        csum = trak.find("csum")
        checksums: list[int] = []
        if csum is not None:
            (count,) = struct.unpack_from(">I", csum.payload)
            checksums = [
                struct.unpack_from(">I", csum.payload, 4 + 4 * i)[0]
                for i in range(count)
            ]
        for index, (time_ms, file_version, size) in enumerate(parse_stss(stss)):
            gop = int(round(time_ms / gop_duration_ms))
            checksum = checksums[index] if index < len(checksums) else 0
            meta.entries[(gop, tile, quality)] = SegmentEntry(
                size, file_version, checksum
            )
    return meta


# -- durability substrate ------------------------------------------------------

def segment_checksum(data: bytes) -> int:
    """Content checksum for stored bytes: the first 32 bits of SHA-256.

    Stored per segment in the metadata index, carried on the wire as the
    ``X-Checksum`` response header, and verified on local read, peer
    fetch, and scrub. A cryptographic prefix (rather than a plain CRC)
    keeps single-bit, swap, and truncation errors detectable with the
    stdlib only; 0 is reserved for "unknown" (legacy entries), so a real
    checksum of 0 is remapped to 1 — a one-in-4-billion bias that keeps
    the sentinel unambiguous.
    """
    value = int.from_bytes(hashlib.sha256(data).digest()[:4], "big")
    return value or 1


def checksum_hex(data: bytes) -> str:
    """Wire form of :func:`segment_checksum`: 8 lowercase hex digits."""
    return format(segment_checksum(data), "08x")


#: Crash-point hook for durability tests: when set to an integer N, the
#: N-th atomic publish in this process is replaced by SIGKILL — the
#: hardest possible failure at a seeded write point. N=1 dies before any
#: file lands; higher N leaves N-1 completed publishes behind.
_CRASH_ENV = "REPRO_CRASH_AFTER_WRITES"
_publish_attempts = 0


def _maybe_crash() -> None:
    target = os.environ.get(_CRASH_ENV)
    if not target:
        return
    global _publish_attempts
    _publish_attempts += 1
    if _publish_attempts >= int(target):
        os.kill(os.getpid(), signal.SIGKILL)


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds (or O_RDONLY on dirs)
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse directory fsync; rename is still atomic
    finally:
        os.close(fd)


def _publish_bytes(path: Path, payload: bytes) -> None:
    """Crash-consistent write: temp file, fsync, atomic rename, dir fsync.

    After this returns, ``path`` holds exactly ``payload``; if the
    process dies at any earlier point, ``path`` is untouched and at worst
    a ``*.tmp`` orphan remains for ``fsck`` to sweep. Readers never see a
    partial file.
    """
    _maybe_crash()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _marker_payload(metadata_blob: bytes) -> bytes:
    """Commit-marker contents: the metadata file's own content checksum,
    so fsck can detect bit rot in the metadata file itself."""
    return (checksum_hex(metadata_blob) + "\n").encode("ascii")


def _tag_repairable(error: SegmentNotFoundError) -> SegmentNotFoundError:
    """Mark a storage error as peer-repairable (see ``core/errors.py``):
    the index references the segment, only the local bytes failed."""
    error.repairable = True
    return error


def _chunk(frames: Iterable[Frame], size: int) -> Iterator[list[Frame]]:
    batch: list[Frame] = []
    for frame in frames:
        batch.append(frame)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


class StorageManager:
    """Segment store + metadata index over a :class:`Catalog` directory.

    ``cache_bytes`` sizes the in-memory segment buffer pool
    (:class:`repro.core.cache.LruSegmentCache`); pass 0 to disable caching
    (every read hits the filesystem — the configuration the cache
    benchmark compares against).

    ``registry`` is the metrics registry every read/ingest timing and the
    cache's accounting report into; by default the manager owns one
    (``self.metrics``), and :class:`~repro.core.server.VisualCloud`
    passes a database-wide registry so storage, delivery, and prediction
    metrics export together.

    ``verify_checksums`` gates read-path content verification: every
    uncached :meth:`read_segment` hashes the bytes it loaded and compares
    against the index entry's recorded checksum (entries with checksum 0
    — legacy or ``checksums=False`` ingests — are never verified). Off
    is the bench ablation arm; the corruption-detection guarantees assume
    it stays on.
    """

    def __init__(
        self,
        root: Path | str,
        cache_bytes: int = 8 * 1024 * 1024,
        registry: MetricsRegistry | None = None,
        verify_checksums: bool = True,
    ) -> None:
        from repro.core.cache import LruSegmentCache

        self.catalog = Catalog(root)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.verify_checksums = verify_checksums
        self._drop_listeners: list = []
        self._meta_cache: dict[tuple[str, int], VideoMeta] = {}
        self.segment_cache = (
            LruSegmentCache(cache_bytes, registry=self.metrics)
            if cache_bytes > 0
            else None
        )
        # Hot-path series, bound once: read_segment runs per request on
        # the serve path, and a get-or-create plus label canonicalisation
        # per call is measurable at saturation.
        self._segments_read = self.metrics.counter(
            "storage.segments_read", "segment reads served"
        ).labels()
        self._bytes_read = self.metrics.counter(
            "storage.bytes_read", "segment bytes served"
        ).labels()
        self._windows_assembled = self.metrics.counter(
            "storage.windows_assembled", "delivery windows built"
        ).labels()

    # -- catalog passthroughs -------------------------------------------------

    def exists(self, name: str) -> bool:
        return self.catalog.exists(name)

    def list_videos(self) -> list[str]:
        return self.catalog.list_videos()

    def drop(self, name: str) -> None:
        self.catalog.drop(name)
        self._meta_cache = {
            key: value for key, value in self._meta_cache.items() if key[0] != name
        }
        if self.segment_cache is not None:
            self.segment_cache.invalidate_prefix(name)
        # Layers holding derived copies of this video's bytes (the serve
        # tier's pinned hot set, peer caches) invalidate through these —
        # without them a dropped-then-recreated name could keep serving
        # the old video's RAM copies.
        for listener in list(self._drop_listeners):
            listener(name)

    def add_drop_listener(self, listener) -> None:
        """Register ``listener(name)`` to run after every :meth:`drop`.

        Callbacks run on the dropping thread and must not block; a serve
        tier schedules its hot-set invalidation onto its own event loop.
        """
        self._drop_listeners.append(listener)

    def remove_drop_listener(self, listener) -> None:
        if listener in self._drop_listeners:
            self._drop_listeners.remove(listener)

    # -- ingest ----------------------------------------------------------------

    def ingest(
        self,
        name: str,
        frames: Iterable[Frame],
        config: IngestConfig,
        streaming: bool = False,
        quality_plan: dict[tuple[int, int], tuple[Quality, ...]] | None = None,
        workers: int | None = None,
    ) -> VideoMeta:
        """Segment, encode, and commit version 1 of a new video.

        ``quality_plan`` optionally restricts which rungs are materialised
        per tile (popularity-driven partial storage); unplanned tiles get
        the config's full ladder. Every planned ladder must be a subset of
        the config's qualities.

        ``workers`` overrides ``config.workers`` for this call: the encode
        of each (GOP, tile, quality) segment fans out across that many
        processes, sharing one pool for the whole ingest. Output bytes are
        identical at any worker count.
        """
        if self.catalog.exists(name):
            raise CatalogError(f"video {name!r} already exists; use append or store")
        if quality_plan is not None:
            for tile, ladder in quality_plan.items():
                if not ladder:
                    raise IngestError(f"quality plan leaves tile {tile} with no rungs")
                if not set(ladder) <= set(config.qualities):
                    raise IngestError(
                        f"quality plan for tile {tile} includes rungs outside the "
                        "ingest ladder"
                    )
        gops = _chunk(frames, config.gop_frames)
        first = next(gops, None)
        if first is None:
            raise IngestError(f"cannot ingest {name!r}: the frame source is empty")
        self.catalog.create(name)
        try:
            with self.metrics.span("storage.ingest", video=name, phase="ingest"):
                return self._write_version(
                    name,
                    version=1,
                    config=config,
                    gop_batches=self._prepend(first, gops),
                    base_meta=None,
                    streaming=streaming,
                    quality_plan=quality_plan,
                    workers=workers,
                )
        except Exception:
            self.catalog.drop(name)
            raise

    @staticmethod
    def _prepend(first: list[Frame], rest: Iterator[list[Frame]]) -> Iterator[list[Frame]]:
        yield first
        yield from rest

    def _write_version(
        self,
        name: str,
        version: int,
        config: IngestConfig,
        gop_batches: Iterable[list[Frame]],
        base_meta: VideoMeta | None,
        streaming: bool,
        quality_plan: dict[tuple[int, int], tuple[Quality, ...]] | None = None,
        workers: int | None = None,
    ) -> VideoMeta:
        codec: TiledVideoCodec | None = None
        if base_meta is None:
            meta = None
            next_gop = 0
        else:
            meta = base_meta
            next_gop = meta.gop_count
        if workers is None:
            workers = config.workers or 1
        # Each (GOP, tile) is one encode job covering the tile's whole
        # quality ladder, so raw bytes reach a worker once per tile. One
        # pool is amortised over every GOP of the version.
        executor = make_encode_executor(
            workers, config.grid.tile_count, registry=self.metrics
        )
        # Per-tile ladders are fixed for the whole version: the full
        # config ladder, or the planned subset (validated non-empty by
        # ingest) under popularity-driven partial storage.
        ladder_map: dict[tuple[int, int], tuple[Quality, ...]] = {}
        for tile in config.grid.tiles():
            if quality_plan is None:
                ladder_map[tile] = config.qualities
            else:
                ladder_map[tile] = tuple(
                    quality
                    for quality in config.qualities
                    if quality in quality_plan.get(tile, config.qualities)
                )
        new_entries: dict[tuple[int, tuple[int, int], Quality], SegmentEntry] = {}
        frame_counts: list[int] = []
        width = height = 0
        try:
            for gop_index, batch in enumerate(gop_batches, start=next_gop):
                if codec is None:
                    width, height = batch[0].width, batch[0].height
                    if base_meta is not None and (width, height) != (
                        base_meta.width,
                        base_meta.height,
                    ):
                        raise IngestError(
                            f"appended frames are {width}x{height}, video is "
                            f"{base_meta.width}x{base_meta.height}"
                        )
                    codec = TiledVideoCodec(config.grid, width, height)
                with self.metrics.span(
                    "storage.ingest.encode", video=name, gop=gop_index
                ):
                    try:
                        payloads = codec.encode_gop_ladders(
                            batch,
                            ladder_map,
                            workers=workers,
                            executor=executor,
                            transport=config.transport,
                            registry=self.metrics,
                        )
                    except BrokenProcessPool:
                        # Workers died mid-version (OOM kill, sandbox
                        # policy). Finish the version serially — same
                        # bytes, honest accounting — instead of failing
                        # ingest. ``workers = 1`` keeps the remaining
                        # GOPs from building a fresh pool each.
                        warnings.warn(
                            "encode worker pool broke mid-ingest; finishing "
                            "serially",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        self.metrics.counter(
                            "ingest.pool_fallback",
                            "encode pools that could not start and fell back "
                            "to serial",
                        ).inc()
                        executor.shutdown(wait=False)
                        executor, workers = None, 1
                        payloads = codec.encode_gop_ladders(
                            batch, ladder_map, workers=1, registry=self.metrics
                        )
                with self.metrics.span(
                    "storage.ingest.write", video=name, gop=gop_index
                ):
                    for quality in config.qualities:
                        for tile in config.grid.tiles():
                            payload = payloads.get((tile, quality))
                            if payload is None:
                                continue
                            path = self.catalog.segment_path(
                                name, gop_index, tile, quality, version
                            )
                            _publish_bytes(path, payload)
                            new_entries[(gop_index, tile, quality)] = SegmentEntry(
                                len(payload),
                                version,
                                segment_checksum(payload) if config.checksums else 0,
                            )
                            self.metrics.counter(
                                "storage.segments_written", "segment files written"
                            ).inc()
                            self.metrics.counter(
                                "storage.bytes_written", "segment bytes written"
                            ).inc(len(payload))
                frame_counts.append(len(batch))
        finally:
            if executor is not None:
                executor.shutdown()
        if codec is None:
            raise IngestError(f"no frames to write for {name!r}")

        if base_meta is None:
            result = VideoMeta(
                name=name,
                version=version,
                width=width,
                height=height,
                fps=config.fps,
                grid=config.grid,
                gop_frames=config.gop_frames,
                qualities=config.qualities,
                projection=config.projection,
                streaming=streaming,
                gop_frame_counts=frame_counts,
                entries=new_entries,
            )
        else:
            result = VideoMeta(
                name=name,
                version=version,
                width=base_meta.width,
                height=base_meta.height,
                fps=base_meta.fps,
                grid=base_meta.grid,
                gop_frames=base_meta.gop_frames,
                qualities=base_meta.qualities,
                projection=base_meta.projection,
                streaming=streaming,
                gop_frame_counts=base_meta.gop_frame_counts + frame_counts,
                entries={**base_meta.entries, **new_entries},
            )
        self._commit_meta(result)
        return result

    def append(
        self,
        name: str,
        frames: Iterable[Frame],
        workers: int | None = None,
        transport: str = "auto",
    ) -> VideoMeta:
        """Extend a (live) video with more frames, as a new version.

        New GOPs are encoded with the video's original segmentation
        parameters; prior segments are shared, not rewritten. ``workers``
        and ``transport`` parallelise the new GOPs' segment encodes as in
        :meth:`ingest`.
        """
        base = self.meta(name)
        if base.gop_frame_counts[-1] != base.gop_frames:
            raise IngestError(
                f"cannot append to {name!r}: its last GOP is partial "
                f"({base.gop_frame_counts[-1]} of {base.gop_frames} frames), and "
                "appended GOPs would break the temporal index alignment"
            )
        config = IngestConfig(
            grid=base.grid,
            qualities=base.qualities,
            gop_frames=base.gop_frames,
            fps=base.fps,
            projection=base.projection,
            transport=transport,
        )
        # Preserve a partial (popularity-planned) store's per-tile ladders:
        # new GOPs materialise exactly the rungs the existing ones have.
        observed: dict[tuple[int, int], set[Quality]] = {}
        for (gop, tile, quality) in base.entries:
            if gop == 0:
                observed.setdefault(tile, set()).add(quality)
        quality_plan = {
            tile: tuple(sorted(ladder, reverse=True)) for tile, ladder in observed.items()
        }
        with self.metrics.span("storage.ingest", video=name, phase="append"):
            return self._write_version(
                name,
                version=base.version + 1,
                config=config,
                gop_batches=_chunk(frames, base.gop_frames),
                base_meta=base,
                streaming=True,
                quality_plan=quality_plan,
                workers=workers,
            )

    def reingest(
        self,
        name: str,
        config: IngestConfig | None = None,
        workers: int | None = None,
        transport: str = "auto",
    ) -> VideoMeta:
        """Re-encode a stored video's content as a new version.

        Decodes each window at the best quality stored per tile and
        re-runs the segmentation pipeline — the way to change a video's
        grid, ladder, or GOP length after the fact. Without ``config`` the
        original segmentation parameters are reused (a pure re-encode;
        ``transport`` then picks the frame transport as in
        :meth:`ingest`). Old versions keep serving until :meth:`vacuum`
        reclaims them. ``workers`` parallelises the segment encodes as in
        :meth:`ingest`.
        """
        base = self.meta(name)
        if config is None:
            config = IngestConfig(
                grid=base.grid,
                qualities=base.qualities,
                gop_frames=base.gop_frames,
                fps=base.fps,
                projection=base.projection,
                transport=transport,
            )

        def decoded_frames() -> Iterator[Frame]:
            for gop in range(base.gop_count):
                best = {}
                for tile in base.grid.tiles():
                    stored = [
                        quality
                        for quality in base.qualities
                        if (gop, tile, quality) in base.entries
                    ]
                    if not stored:
                        raise SegmentNotFoundError(
                            f"{name!r} cannot be reingested: (gop={gop}, tile={tile}) "
                            "has no stored quality"
                        )
                    best[tile] = stored[0]  # qualities are ordered best first
                yield from self.read_window(name, gop, best, base.version).decode()

        with self.metrics.span("storage.ingest", video=name, phase="reingest"):
            return self._write_version(
                name,
                version=base.version + 1,
                config=config,
                gop_batches=_chunk(decoded_frames(), config.gop_frames),
                base_meta=None,
                streaming=base.streaming,
                workers=workers,
            )

    def store_windows(
        self,
        name: str,
        windows: list[TiledGop],
        fps: float,
        qualities: tuple[Quality, ...] | None = None,
    ) -> VideoMeta:
        """Persist already-encoded windows (the query layer's STORE).

        Creates version 1 for a new name, or the next version of an
        existing one. Each window's tiles may be at heterogeneous
        qualities; the index records each tile's actual quality.
        """
        if not windows:
            raise IngestError(f"cannot store zero windows as {name!r}")
        layout = windows[0]
        for index, window in enumerate(windows[1:], start=1):
            if (window.width, window.height, window.grid) != (
                layout.width,
                layout.height,
                layout.grid,
            ):
                raise IngestError(f"window {index} has a different layout than window 0")
        if self.catalog.exists(name):
            version = self.catalog.latest_version(name) + 1
        else:
            self.catalog.create(name)
            version = 1
        entries: dict[tuple[int, tuple[int, int], Quality], SegmentEntry] = {}
        observed: set[Quality] = set()
        for gop_index, window in enumerate(windows):
            for tile, payload in window.payloads.items():
                quality = window.tile_quality(*tile)
                observed.add(quality)
                path = self.catalog.segment_path(name, gop_index, tile, quality, version)
                _publish_bytes(path, payload)
                entries[(gop_index, tile, quality)] = SegmentEntry(
                    len(payload), version, segment_checksum(payload)
                )
        meta = VideoMeta(
            name=name,
            version=version,
            width=layout.width,
            height=layout.height,
            fps=fps,
            grid=layout.grid,
            gop_frames=layout.frame_count,
            qualities=qualities or tuple(sorted(observed, reverse=True)),
            projection="equirectangular",
            streaming=False,
            gop_frame_counts=[window.frame_count for window in windows],
            entries=entries,
        )
        self._commit_meta(meta)
        return meta

    def _commit_meta(self, meta: VideoMeta) -> None:
        path = self.catalog.metadata_path(meta.name, meta.version)
        if path.exists():
            raise CatalogError(
                f"refusing to overwrite committed metadata {path.name} of {meta.name!r}"
            )
        with self.metrics.span(
            "storage.ingest.commit", video=meta.name, version=meta.version
        ):
            # Segments are already durable; the metadata publish makes
            # the version parseable and the marker publish commits it —
            # both atomic renames, so a crash between them leaves a
            # complete-but-uncommitted version that fsck rolls forward.
            blob = _build_metadata_file(meta).serialize()
            _publish_bytes(path, blob)
            _publish_bytes(
                self.catalog.marker_path(meta.name, meta.version),
                _marker_payload(blob),
            )
        self._meta_cache[(meta.name, meta.version)] = meta
        self.metrics.counter("storage.versions_committed", "metadata commits").inc()

    # -- reads -------------------------------------------------------------------

    def meta(self, name: str, version: int | None = None) -> VideoMeta:
        """Metadata for a version (latest if unspecified), cached."""
        if version is None:
            version = self.catalog.latest_version(name)
        key = (name, version)
        if key not in self._meta_cache:
            path = self.catalog.metadata_path(name, version)
            if not path.exists():
                raise CatalogError(f"video {name!r} has no version {version}")
            self._meta_cache[key] = _parse_metadata_file(name, path.read_bytes())
        return self._meta_cache[key]

    def read_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        version: int | None = None,
    ) -> bytes:
        """One segment's encoded bytes, located via the metadata index.

        Served from the in-memory buffer pool on a hit; segment files are
        immutable once written (no-overwrite storage), so cached bytes can
        never go stale.
        """
        meta = self.meta(name, version)
        entry = meta.entries.get((gop, tile, quality))
        if entry is None:
            raise SegmentNotFoundError(
                f"{name!r} v{meta.version} has no segment (gop={gop}, tile={tile}, "
                f"quality={quality.label})"
            )
        path = self.catalog.segment_path(name, gop, tile, quality, entry.file_version)

        def load() -> bytes:
            # All failures below are tagged repairable: the index has an
            # entry, so an intact copy may exist on a peer owner.
            try:
                data = path.read_bytes()
            except FileNotFoundError as error:
                # The index said the segment exists but the file is gone —
                # keep the storage boundary's error contract (see
                # core/errors.py) instead of leaking the OS exception.
                raise _tag_repairable(
                    SegmentNotFoundError(
                        f"segment file {path.name} of {name!r} is missing from disk"
                    )
                ) from error
            except OSError as error:
                raise _tag_repairable(
                    SegmentNotFoundError(
                        f"segment file {path.name} of {name!r} could not be read: "
                        f"{error}"
                    )
                ) from error
            if len(data) != entry.size:
                raise _tag_repairable(
                    SegmentCorruptError(
                        f"segment {path.name} is {len(data)} bytes, index says "
                        f"{entry.size}"
                    )
                )
            if (
                self.verify_checksums
                and entry.checksum
                and segment_checksum(data) != entry.checksum
            ):
                raise _tag_repairable(
                    SegmentCorruptError(
                        f"segment {path.name} of {name!r} fails its content "
                        "checksum (bit rot or torn write)"
                    )
                )
            return data

        with self.metrics.span(
            "storage.read_segment", video=name, gop=gop, tile=tile, quality=quality.label
        ):
            if self.segment_cache is None:
                data = load()
            else:
                cache_key = SegmentKey(gop, tile, quality).cache_key(
                    name, entry.file_version
                )
                # Single-flight: concurrent sessions missing on the same
                # segment share one file read instead of stampeding the
                # filesystem.
                data = self.segment_cache.get_or_load(cache_key, load)
        self._segments_read.inc()
        self._bytes_read.inc(len(data))
        return data

    def read_window(
        self,
        name: str,
        gop: int,
        quality_map: dict[tuple[int, int], Quality],
        version: int | None = None,
    ) -> TiledGop:
        """Assemble a delivery window at a per-tile quality assignment.

        This is byte assembly only — the homomorphic TILEUNION: each tile's
        stored bytes are placed into the window container untouched.
        """
        meta = self.meta(name, version)
        with self.metrics.span("storage.read_window", video=name, gop=gop):
            payloads = {
                tile: self.read_segment(name, gop, tile, quality, version)
                for tile, quality in quality_map.items()
            }
        self._windows_assembled.inc()
        return TiledGop(
            width=meta.width,
            height=meta.height,
            grid=meta.grid,
            frame_count=meta.gop_frame_counts[gop],
            payloads=payloads,
        )

    def decode_window(
        self, name: str, gop: int, quality: Quality, version: int | None = None
    ) -> list[Frame]:
        """Decode a full window at a uniform quality (reference reads)."""
        meta = self.meta(name, version)
        quality_map = {tile: quality for tile in meta.grid.tiles()}
        return self.read_window(name, gop, quality_map, version).decode()

    def build_manifest(self, name: str, version: int | None = None) -> Manifest:
        """The DASH-style manifest a streaming session consumes.

        Every (window, tile) must have at least one stored quality; gaps
        in the ladder (popularity-planned partial stores) are legal and
        resolve at request time via :meth:`Manifest.resolve`.
        """
        meta = self.meta(name, version)
        sizes: dict[SegmentKey, int] = {}
        for gop in range(meta.gop_count):
            for tile in meta.grid.tiles():
                stored_any = False
                for quality in meta.qualities:
                    entry = meta.entries.get((gop, tile, quality))
                    if entry is None:
                        continue
                    sizes[SegmentKey(gop, tile, quality)] = entry.size
                    stored_any = True
                if not stored_any:
                    raise SegmentNotFoundError(
                        f"{name!r} is not servable: (gop={gop}, tile={tile}) has "
                        "no stored quality"
                    )
        return Manifest(
            video=name,
            width=meta.width,
            height=meta.height,
            fps=meta.fps,
            window_duration=meta.gop_duration,
            window_count=meta.gop_count,
            grid=meta.grid,
            qualities=meta.qualities,
            segment_sizes=sizes,
        )

    def total_bytes(self, name: str, version: int | None = None) -> int:
        """Total stored segment bytes for one version (storage-cost sweeps)."""
        meta = self.meta(name, version)
        return sum(entry.size for entry in meta.entries.values())

    # -- retention / garbage collection ---------------------------------------

    def vacuum(self, name: str, keep_versions: int = 1) -> tuple[int, int]:
        """Drop old versions and delete segment files nothing references.

        A no-overwrite store accretes: every STORE/append commits a new
        metadata file, and copy-on-write means old segment files stay on
        disk as long as *any* retained version points at them. ``vacuum``
        retains the newest ``keep_versions`` metadata files, then removes
        every segment file not referenced by a retained version.

        Returns ``(files_deleted, bytes_freed)``. Readers of retained
        versions are unaffected; readers pinned to dropped versions lose
        snapshot isolation — retention is the operator's contract.
        """
        if keep_versions < 1:
            raise ValueError(f"must keep at least one version, got {keep_versions}")
        versions = self.catalog.versions(name)
        retained = versions[-keep_versions:]
        dropped = versions[: -keep_versions] if len(versions) > keep_versions else []

        referenced: set[str] = set()
        for version in retained:
            meta = self.meta(name, version)
            for (gop, tile, quality), entry in meta.entries.items():
                referenced.add(
                    self.catalog.segment_path(
                        name, gop, tile, quality, entry.file_version
                    ).name
                )
        files_deleted = 0
        bytes_freed = 0
        for path in self.catalog.segments_dir(name).iterdir():
            if path.is_file() and path.name not in referenced:
                bytes_freed += path.stat().st_size
                path.unlink()
                files_deleted += 1
        for version in dropped:
            self.catalog.metadata_path(name, version).unlink()
            self.catalog.marker_path(name, version).unlink(missing_ok=True)
            self._meta_cache.pop((name, version), None)
        if self.segment_cache is not None:
            self.segment_cache.invalidate_prefix(name)
        return files_deleted, bytes_freed

    # -- durability / self-healing ---------------------------------------------

    def verify_segment_bytes(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        data: bytes,
        version: int | None = None,
    ) -> SegmentEntry:
        """Check candidate bytes against the index entry; return the entry.

        Raises :class:`SegmentNotFoundError` when the index has no such
        segment and :class:`SegmentCorruptError` when the bytes disagree
        with the recorded size or checksum — the gate every read-repair
        write must pass, so a corrupt peer copy can never overwrite disk.
        """
        meta = self.meta(name, version)
        entry = meta.entries.get((gop, tile, quality))
        if entry is None:
            raise SegmentNotFoundError(
                f"{name!r} v{meta.version} has no segment (gop={gop}, tile={tile}, "
                f"quality={quality.label})"
            )
        if len(data) != entry.size:
            raise SegmentCorruptError(
                f"candidate bytes for (gop={gop}, tile={tile}, "
                f"quality={quality.label}) of {name!r} are {len(data)} bytes, "
                f"index says {entry.size}"
            )
        if entry.checksum and segment_checksum(data) != entry.checksum:
            raise SegmentCorruptError(
                f"candidate bytes for (gop={gop}, tile={tile}, "
                f"quality={quality.label}) of {name!r} fail the index checksum"
            )
        return entry

    def repair_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        data: bytes,
        version: int | None = None,
    ) -> Path:
        """Atomically rewrite a segment's local bytes from a verified copy.

        The one sanctioned exception to no-overwrite storage: the bytes
        must pass :meth:`verify_segment_bytes` first, so the file content
        after repair is exactly what the index committed at ingest. The
        buffer pool entry is invalidated so the next read serves the
        repaired file.
        """
        entry = self.verify_segment_bytes(name, gop, tile, quality, data, version)
        path = self.catalog.segment_path(name, gop, tile, quality, entry.file_version)
        _publish_bytes(path, data)
        if self.segment_cache is not None:
            self.segment_cache.invalidate(
                SegmentKey(gop, tile, quality).cache_key(name, entry.file_version)
            )
        self.metrics.counter(
            "storage.repair_success", "segments rewritten from a verified copy"
        ).inc(video=name)
        self.metrics.counter(
            "storage.repair_bytes", "bytes rewritten by read-repair"
        ).inc(len(data))
        return path

    def fsck(self, repair: bool = False) -> dict:
        """Audit the catalog for crash debris; optionally repair it.

        Recovery rules (the commit protocol's inverse):

        * ``*.tmp`` files are torn publishes — never visible to readers,
          deleted on repair.
        * A marker without metadata is impossible under the publish order
          (metadata lands first); it is bit-rot/manual damage and is
          deleted on repair.
        * Metadata without a marker is an interrupted commit. The publish
          order guarantees the metadata file itself is complete, so fsck
          *rolls forward*: if it parses, matches every referenced segment
          file (size + checksum), it is adopted by writing its marker;
          otherwise it is rolled back (deleted). Legacy catalogs written
          before markers existed take exactly this adoption path.
        * A video directory with no committed versions (the SIGKILL-mid-
          ingest case) is dropped wholesale on repair.
        * Segment files no committed version references are orphans from
          a rolled-back version — deleted on repair.

        Returns a JSON-serialisable report; ``report["clean"]`` is True
        when nothing was found.
        """
        report: dict = {
            "videos_checked": 0,
            "orphan_tmp": [],
            "adopted_versions": [],
            "rolled_back_versions": [],
            "dangling_markers": [],
            "dropped_videos": [],
            "orphan_segments": [],
            "repair": repair,
        }
        for name in self.list_videos():
            report["videos_checked"] += 1
            video_dir = self.catalog.video_dir(name)
            for tmp in sorted(video_dir.rglob("*.tmp")):
                report["orphan_tmp"].append(str(tmp.relative_to(self.catalog.root)))
                if repair:
                    tmp.unlink()
            metadata, markers = self.catalog.scan_versions(name)
            for version in sorted(markers - metadata):
                report["dangling_markers"].append(f"{name} v{version}")
                if repair:
                    self.catalog.marker_path(name, version).unlink()
                    markers.discard(version)
            committed = metadata & markers if markers else set()
            for version in sorted(metadata - committed):
                if self._validate_version(name, version):
                    report["adopted_versions"].append(f"{name} v{version}")
                    if repair:
                        blob = self.catalog.metadata_path(name, version).read_bytes()
                        _publish_bytes(
                            self.catalog.marker_path(name, version),
                            _marker_payload(blob),
                        )
                        committed.add(version)
                else:
                    report["rolled_back_versions"].append(f"{name} v{version}")
                    if repair:
                        self.catalog.metadata_path(name, version).unlink()
                        self.catalog.marker_path(name, version).unlink(missing_ok=True)
                        self._meta_cache.pop((name, version), None)
            if not metadata or (repair and not committed):
                report["dropped_videos"].append(name)
                if repair:
                    self.drop(name)
                continue
            if repair:
                self._sweep_orphan_segments(name, sorted(committed), report)
        report["clean"] = not any(
            report[key]
            for key in (
                "orphan_tmp",
                "adopted_versions",
                "rolled_back_versions",
                "dangling_markers",
                "dropped_videos",
                "orphan_segments",
            )
        )
        return report

    def _validate_version(self, name: str, version: int) -> bool:
        """True when a version's metadata parses, matches its marker (if
        any), and every referenced segment file is intact on disk."""
        path = self.catalog.metadata_path(name, version)
        try:
            blob = path.read_bytes()
            meta = _parse_metadata_file(name, blob)
        except (OSError, CatalogError, ValueError, struct.error):
            return False
        marker = self.catalog.marker_path(name, version)
        if marker.exists():
            try:
                if marker.read_bytes() != _marker_payload(blob):
                    return False
            except OSError:
                return False
        for (gop, tile, quality), entry in meta.entries.items():
            segment = self.catalog.segment_path(
                name, gop, tile, quality, entry.file_version
            )
            try:
                data = segment.read_bytes()
            except OSError:
                return False
            if len(data) != entry.size:
                return False
            if entry.checksum and segment_checksum(data) != entry.checksum:
                return False
        return True

    def _sweep_orphan_segments(
        self, name: str, committed: list[int], report: dict
    ) -> None:
        """Delete segment files no committed version references."""
        referenced: set[str] = set()
        for version in committed:
            try:
                meta = self.meta(name, version)
            except CatalogError:
                continue
            for (gop, tile, quality), entry in meta.entries.items():
                referenced.add(
                    self.catalog.segment_path(
                        name, gop, tile, quality, entry.file_version
                    ).name
                )
        for path in sorted(self.catalog.segments_dir(name).iterdir()):
            if path.is_file() and path.name not in referenced:
                report["orphan_segments"].append(
                    str(path.relative_to(self.catalog.root))
                )
                path.unlink()

    def scrub(
        self,
        source: SegmentBackend | None = None,
        video: str | None = None,
    ) -> dict:
        """Proactive integrity walk: verify every committed segment file.

        Reads each referenced segment file directly (bypassing the buffer
        pool — the point is the disk) and checks size and checksum. With
        a ``source`` backend (a peer owner, a replica, a backup), corrupt
        segments are re-fetched, re-verified, and atomically repaired;
        without one they are only reported. Returns a deterministic
        report with per-video counts.
        """
        names = [video] if video is not None else self.list_videos()
        report: dict = {
            "segments_checked": 0,
            "corrupt": [],
            "repaired": [],
            "repair_failed": [],
        }
        for name in sorted(names):
            try:
                versions = self.catalog.versions(name)
            except CatalogError:
                continue
            seen: set[tuple[int, tuple[int, int], Quality, int]] = set()
            for version in versions:
                meta = self.meta(name, version)
                for (gop, tile, quality), entry in sorted(
                    meta.entries.items(), key=lambda item: str(item[0])
                ):
                    identity = (gop, tile, quality, entry.file_version)
                    if identity in seen:
                        continue  # shared copy-on-write file, checked once
                    seen.add(identity)
                    report["segments_checked"] += 1
                    path = self.catalog.segment_path(
                        name, gop, tile, quality, entry.file_version
                    )
                    label = f"{name}/{path.name}"
                    try:
                        data = path.read_bytes()
                    except OSError:
                        data = None
                    if (
                        data is not None
                        and len(data) == entry.size
                        and (
                            not entry.checksum
                            or segment_checksum(data) == entry.checksum
                        )
                    ):
                        continue
                    report["corrupt"].append(label)
                    if source is None:
                        continue
                    try:
                        fresh = source.read_segment(name, gop, tile, quality)
                        self.repair_segment(
                            name, gop, tile, quality, fresh, version
                        )
                    except VisualCloudError as error:
                        report["repair_failed"].append(f"{label}: {error}")
                    else:
                        report["repaired"].append(label)
        return report

    def stats(self) -> dict:
        """Operational snapshot: catalog contents and cache behaviour."""
        videos = {}
        for name in self.list_videos():
            try:
                meta = self.meta(name)
            except CatalogError:
                continue  # created but never committed
            videos[name] = {
                "version": meta.version,
                "versions": len(self.catalog.versions(name)),
                "duration_s": round(meta.duration, 3),
                "bytes": self.total_bytes(name),
                "segments": len(meta.entries),
            }
        cache = self.segment_cache
        return {
            "videos": videos,
            "cache": None
            if cache is None
            else {
                "entries": len(cache),
                "bytes": cache.size_bytes,
                "capacity": cache.capacity_bytes,
                "hit_rate": cache.stats.hit_rate,
                "evictions": cache.stats.evictions,
            },
        }
