"""Motion-constrained tiles: independently decodable frame subregions.

Each GOP of a 360-degree video is split along the angular tile grid and
every tile is encoded as its own closed GOP. Because the codec's
prediction never crosses tile boundaries (zero-motion residuals), a tile's
bytes can be extracted, replaced, or recombined without touching any other
tile — the *homomorphic* operators (`select`, `union`, `replace`) below
move bytes only and never run the entropy decoder.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import threading
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.geometry.grid import TileGrid
from repro.video.frame import Frame
from repro.video.gop import GopCodec, decode_any_gop
from repro.video.quality import Quality
from repro.video.shmem import (
    GopBlock,
    publish_gop,
    read_tile_frames,
    shared_memory_available,
)

#: Accepted values of the ingest ``transport`` knob. ``auto`` prefers
#: shared memory and falls back to pickling; each explicit choice pins
#: one transport (``shm`` still degrades to pickling, with a warning,
#: where the platform has no shared memory).
TRANSPORTS = ("auto", "shm", "pickle")

TILED_MAGIC = b"VTGP"
_HEADER = struct.Struct(">4sBHHBBH")  # magic, version, width, height, rows, cols, frames
TILED_FORMAT_VERSION = 1


@dataclass
class TiledGop:
    """One GOP's worth of video, tiled: a byte payload per present tile.

    ``payloads`` maps ``(row, col)`` to that tile's encoded GOP bytes.
    Tiles may be encoded at *different* qualities (each payload carries its
    own quality in its GOP header) — that heterogeneity is exactly what the
    predictive streamer produces. Absent tiles decode as flat grey.
    """

    width: int
    height: int
    grid: TileGrid
    frame_count: int
    payloads: dict[tuple[int, int], bytes] = field(default_factory=dict)

    @property
    def tile_width(self) -> int:
        return self.width // self.grid.cols

    @property
    def tile_height(self) -> int:
        return self.height // self.grid.rows

    @property
    def byte_size(self) -> int:
        """Total payload bytes (the quantity bandwidth accounting uses)."""
        return sum(len(data) for data in self.payloads.values())

    def pixel_rect(self, row: int, col: int) -> tuple[int, int, int, int]:
        """Pixel bounds (x0, y0, x1, y1) of a tile within the full frame."""
        self.grid.index_of(row, col)
        return (
            col * self.tile_width,
            row * self.tile_height,
            (col + 1) * self.tile_width,
            (row + 1) * self.tile_height,
        )

    # -- homomorphic operators (byte moves only, no decode) ----------------

    def select(self, tiles: set[tuple[int, int]]) -> "TiledGop":
        """TILESELECT: keep only the named tiles. Pure byte slicing."""
        missing = tiles - set(self.payloads)
        if missing:
            raise KeyError(f"tiles {sorted(missing)} not present in this GOP")
        return TiledGop(
            width=self.width,
            height=self.height,
            grid=self.grid,
            frame_count=self.frame_count,
            payloads={tile: self.payloads[tile] for tile in tiles},
        )

    def union(self, other: "TiledGop") -> "TiledGop":
        """TILEUNION: combine two tile-disjoint GOPs. Pure byte moves."""
        self._check_compatible(other)
        overlap = set(self.payloads) & set(other.payloads)
        if overlap:
            raise ValueError(
                f"tile union requires disjoint tiles; both sides define {sorted(overlap)}"
            )
        merged = dict(self.payloads)
        merged.update(other.payloads)
        return TiledGop(
            width=self.width,
            height=self.height,
            grid=self.grid,
            frame_count=self.frame_count,
            payloads=merged,
        )

    def replace(self, other: "TiledGop") -> "TiledGop":
        """Substitute tiles: ``other``'s payloads win where both exist.

        This is how the streamer swaps a high-quality tile into a low-
        quality base sphere without re-encoding anything.
        """
        self._check_compatible(other)
        merged = dict(self.payloads)
        merged.update(other.payloads)
        return TiledGop(
            width=self.width,
            height=self.height,
            grid=self.grid,
            frame_count=self.frame_count,
            payloads=merged,
        )

    @classmethod
    def concat(cls, windows: list["TiledGop"]) -> "TiledGop":
        """Temporally concatenate windows into one — homomorphically.

        Every window must share layout and tile set; each tile's payloads
        are merged with :func:`repro.video.gop.merge_gops` (byte-level
        framing only, no decode). The temporal dual of :meth:`union`.
        """
        from repro.video.gop import merge_gops

        if not windows:
            raise ValueError("cannot concatenate zero windows")
        first = windows[0]
        tiles = set(first.payloads)
        for index, window in enumerate(windows[1:], 1):
            if (window.width, window.height, window.grid) != (
                first.width,
                first.height,
                first.grid,
            ):
                raise ValueError(f"window {index} has a different layout than window 0")
            if set(window.payloads) != tiles:
                raise ValueError(f"window {index} has a different tile set than window 0")
        return cls(
            width=first.width,
            height=first.height,
            grid=first.grid,
            frame_count=sum(window.frame_count for window in windows),
            payloads={
                tile: merge_gops([window.payloads[tile] for window in windows])
                for tile in tiles
            },
        )

    def _check_compatible(self, other: "TiledGop") -> None:
        if (self.width, self.height, self.grid, self.frame_count) != (
            other.width,
            other.height,
            other.grid,
            other.frame_count,
        ):
            raise ValueError(
                "tiled GOPs are not layout-compatible: "
                f"{(self.width, self.height, self.grid, self.frame_count)} vs "
                f"{(other.width, other.height, other.grid, other.frame_count)}"
            )

    # -- serialisation ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise: header, tile index (offset/size per grid cell), data.

        Absent tiles get a zero-size index entry. The index is what makes
        byte-level tile extraction possible on the wire format too.
        """
        chunks: list[bytes] = []
        index_entries: list[tuple[int, int]] = []
        cursor = 0
        for tile in self.grid.tiles():
            payload = self.payloads.get(tile, b"")
            index_entries.append((cursor, len(payload)))
            chunks.append(payload)
            cursor += len(payload)
        header = _HEADER.pack(
            TILED_MAGIC,
            TILED_FORMAT_VERSION,
            self.width,
            self.height,
            self.grid.rows,
            self.grid.cols,
            self.frame_count,
        )
        index = b"".join(struct.pack(">II", offset, size) for offset, size in index_entries)
        return header + index + b"".join(chunks)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TiledGop":
        """Parse bytes produced by :meth:`to_bytes` (payloads not decoded)."""
        if len(data) < _HEADER.size:
            raise ValueError("truncated tiled GOP (header)")
        magic, version, width, height, rows, cols, frame_count = _HEADER.unpack_from(data)
        if magic != TILED_MAGIC:
            raise ValueError(f"bad tiled-GOP magic {magic!r}")
        if version != TILED_FORMAT_VERSION:
            raise ValueError(f"unsupported tiled-GOP version {version}")
        grid = TileGrid(rows, cols)
        index_size = grid.tile_count * 8
        data_start = _HEADER.size + index_size
        if len(data) < data_start:
            raise ValueError("truncated tiled GOP (index)")
        payloads = {}
        for position, tile in enumerate(grid.tiles()):
            offset, size = struct.unpack_from(">II", data, _HEADER.size + position * 8)
            if size:
                start = data_start + offset
                payloads[tile] = data[start : start + size]
        return cls(width=width, height=height, grid=grid, frame_count=frame_count, payloads=payloads)

    # -- decode path ---------------------------------------------------------

    def decode(self) -> list[Frame]:
        """Decode all present tiles and composite them into full frames.

        Absent tiles are rendered flat grey — visually obvious, which is
        deliberate: a delivery bug should look like a bug.
        """
        frames = [
            Frame.blank(self.width, self.height, luma=128)
            for _ in range(self.frame_count)
        ]
        for tile, payload in self.payloads.items():
            tile_frames = decode_any_gop(payload)
            if len(tile_frames) != self.frame_count:
                raise ValueError(
                    f"tile {tile} decodes to {len(tile_frames)} frames, "
                    f"container declares {self.frame_count}"
                )
            x0, y0, _, _ = self.pixel_rect(*tile)
            frames = [
                frame.paste(tile_frame, x0, y0)
                for frame, tile_frame in zip(frames, tile_frames)
            ]
        return frames

    def decode_tile(self, row: int, col: int) -> list[Frame]:
        """Decode a single tile's frames (at tile resolution)."""
        if (row, col) not in self.payloads:
            raise KeyError(f"tile ({row}, {col}) not present")
        return decode_any_gop(self.payloads[(row, col)])

    def tile_quality(self, row: int, col: int) -> Quality:
        """The quality a present tile was encoded at (from its GOP header)."""
        from repro.video.gop import _parse_gop_header

        quality, *_ = _parse_gop_header(self.payloads[(row, col)])
        return quality


def _encode_ladder(
    sub_frames: list[Frame], ladder: tuple[Quality, ...]
) -> tuple[bytes, ...]:
    return tuple(GopCodec(quality).encode_gop(sub_frames) for quality in ladder)


def _encode_tile_ladder_job(
    job: tuple[tuple[int, int], tuple[Quality, ...], list[Frame]],
) -> tuple[tuple[int, int], tuple[bytes, ...]]:
    """Pickling transport: encode every rung of one tile's ladder.

    Module-level (and taking one picklable tuple) so a
    :class:`~concurrent.futures.ProcessPoolExecutor` can ship it to worker
    processes. The raw sub-frames cross the process boundary exactly once
    per tile — the whole ladder is encoded in-worker from that one copy.
    Every (tile, quality) segment is an independent closed GOP, so jobs
    share no state and any execution order yields identical bytes.
    """
    tile, ladder, sub_frames = job
    return tile, _encode_ladder(sub_frames, ladder)


def _encode_tile_shm_job(
    job: tuple[tuple[int, int], tuple[Quality, ...], GopBlock, tuple[int, int, int, int]],
) -> tuple[tuple[int, int], tuple[bytes, ...]]:
    """Shared-memory transport: the job carries only a block descriptor
    and a tile rectangle; the worker slices its own sub-frames out of the
    published GOP and encodes the full ladder."""
    tile, ladder, block, rect = job
    return tile, _encode_ladder(read_tile_frames(block, rect), ladder)


_ENCODE_CONTEXT: multiprocessing.context.BaseContext | None = None
_FORKSERVER_LOCK = threading.Lock()
#: The directory ``repro`` is imported from, which the forkserver needs
#: on its import path to preload this module.
_PACKAGE_PARENT = str(Path(__file__).resolve().parents[2])


def encode_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every encode pool is built from.

    Explicitly ``forkserver`` (preloaded with this module, so numpy,
    scipy.fft and the codec are imported once in the server and inherited
    by every forked worker) or ``spawn`` where forkserver is unavailable —
    never the platform default: bare ``fork`` after threads exist, with
    numpy loaded, is a latent deadlock, and the import cost should be paid
    once per server rather than trusted to luck.
    """
    global _ENCODE_CONTEXT
    if _ENCODE_CONTEXT is None:
        try:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(["repro.video.tiles"])
        except ValueError:
            context = multiprocessing.get_context("spawn")
        _ENCODE_CONTEXT = context
    return _ENCODE_CONTEXT


def _start_encode_forkserver() -> None:
    """Start the encode forkserver, if it is not running, able to import
    this package, so the preload really happens.

    CPython's ``forkserver.main`` (3.10-3.13) is handed the parent's
    ``sys.path`` but never applies it, and it ignores an ``ImportError``
    from the preload. When ``repro`` is importable only through a
    run-time ``sys.path`` entry (scripts, notebooks, the benchmark), the
    preload would fail silently and every fresh worker would import
    numpy, scipy and the codec itself. The server inherits this process's
    environment, so the package's parent goes on ``PYTHONPATH`` for that
    one spawn; a running server makes this a no-op, and a stopped one is
    restarted preloaded. Under ``-E``/``-I`` the variable is ignored and
    workers import the codec on first use, as before.
    """
    if encode_context().get_start_method() != "forkserver":
        return
    from multiprocessing import forkserver

    with _FORKSERVER_LOCK:
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            path for path in (_PACKAGE_PARENT, saved) if path
        )
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved


def encode_start_method() -> str:
    """The start method encode pools use (bench/provenance reporting)."""
    return encode_context().get_start_method()


def make_encode_executor(
    workers: int, jobs: int, registry=None
) -> ProcessPoolExecutor | None:
    """A process pool for tile-encode fan-out, or None to run serially.

    Returns None when one worker (or one job) makes a pool pointless —
    the deliberate serial path. When the caller asked for parallelism but
    the platform refuses to spawn workers (restricted sandboxes), the
    fallback is *loud*: a ``RuntimeWarning`` plus an
    ``ingest.pool_fallback`` counter on ``registry``, so a user who asked
    for ``--workers 8`` learns they got 1.
    """
    if workers <= 1 or jobs <= 1:
        return None
    try:
        _start_encode_forkserver()
        return ProcessPoolExecutor(
            max_workers=min(workers, jobs), mp_context=encode_context()
        )
    except (OSError, NotImplementedError, ValueError) as error:
        warnings.warn(
            f"requested {workers} encode workers but the platform refused to "
            f"start a process pool ({error!r}); ingest is running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        if registry is not None:
            registry.counter(
                "ingest.pool_fallback",
                "encode pools that could not start and fell back to serial",
            ).inc()
        return None


def _dispatch_chunksize(jobs: int, executor: Executor, workers: int) -> int:
    """Jobs per dispatched chunk, derived from the pool's *actual* size.

    A shared executor may have been built with a different worker count
    than the ``workers`` parameter a caller passes alongside it — sizing
    chunks from the parameter then under- or over-batches. Four chunks
    per worker keeps dispatch overhead amortised while still load-
    balancing uneven tiles.
    """
    pool_workers = getattr(executor, "_max_workers", None) or max(workers, 1)
    return max(1, jobs // (4 * pool_workers))


class TiledVideoCodec:
    """Splits GOPs along a tile grid and encodes each tile independently."""

    def __init__(self, grid: TileGrid, width: int, height: int) -> None:
        if width % (grid.cols * 16) or height % (grid.rows * 16):
            raise ValueError(
                f"{width}x{height} does not divide into {grid.rows}x{grid.cols} "
                "tiles of 16px-aligned size"
            )
        self.grid = grid
        self.width = width
        self.height = height
        self.tile_width = width // grid.cols
        self.tile_height = height // grid.rows
        self._codecs: dict[Quality, GopCodec] = {}

    def _codec(self, quality: Quality) -> GopCodec:
        if quality not in self._codecs:
            self._codecs[quality] = GopCodec(quality)
        return self._codecs[quality]

    def encode_gop(
        self,
        frames: list[Frame],
        quality: Quality,
        tiles: set[tuple[int, int]] | None = None,
        workers: int = 1,
        executor: Executor | None = None,
    ) -> TiledGop:
        """Encode one GOP at a single quality, optionally only some tiles."""
        quality_map = {
            tile: quality for tile in (tiles if tiles is not None else self.grid.tiles())
        }
        return self.encode_gop_mixed(frames, quality_map, workers=workers, executor=executor)

    def encode_gop_mixed(
        self,
        frames: list[Frame],
        quality_map: dict[tuple[int, int], Quality],
        workers: int = 1,
        executor: Executor | None = None,
        transport: str = "auto",
    ) -> TiledGop:
        """Encode one GOP with a per-tile quality assignment.

        This is the delivery-side primitive behind predictive tiling: the
        caller decides one quality per tile. A thin wrapper over
        :meth:`encode_gop_ladders` with singleton ladders.
        """
        ladder_map = {tile: (quality,) for tile, quality in quality_map.items()}
        payloads = self.encode_gop_ladders(
            frames, ladder_map, workers=workers, executor=executor, transport=transport
        )
        return TiledGop(
            width=self.width,
            height=self.height,
            grid=self.grid,
            frame_count=len(frames),
            payloads={
                tile: payloads[(tile, quality)] for tile, quality in quality_map.items()
            },
        )

    def _tile_rect(self, tile: tuple[int, int]) -> tuple[int, int, int, int]:
        row, col = tile
        self.grid.index_of(row, col)
        x0 = col * self.tile_width
        y0 = row * self.tile_height
        return (x0, y0, x0 + self.tile_width, y0 + self.tile_height)

    def encode_gop_ladders(
        self,
        frames: list[Frame],
        ladder_map: dict[tuple[int, int], tuple[Quality, ...]],
        *,
        workers: int = 1,
        executor: Executor | None = None,
        transport: str = "auto",
        registry=None,
    ) -> dict[tuple[tuple[int, int], Quality], bytes]:
        """Encode one GOP at a per-tile quality *ladder* in one fan-out.

        The ingest-side primitive: each job covers all of a tile's rungs,
        so a tile's raw bytes cross the process boundary once — not once
        per quality. With the shared-memory transport (``transport`` in
        ``{"auto", "shm"}`` on a capable platform) they do not cross it at
        all: the GOP's planes are published into one shared block and
        jobs carry only ``(tile, ladder, block descriptor, rect)``. The
        block is unlinked in a ``finally``, so worker failure and
        KeyboardInterrupt cannot leak it. Platforms without shared memory
        degrade to the pickling transport, and from there (no usable
        pool) to the serial path; every path is byte-identical.

        An explicit ``executor`` takes precedence over ``workers`` and is
        not shut down here — ingest passes one shared pool so it is paid
        for once per video, not once per GOP. Dispatch chunking is sized
        from the executor's actual worker count.
        """
        if transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
        if not frames:
            raise ValueError("cannot encode an empty GOP")
        for index, frame in enumerate(frames):
            if (frame.width, frame.height) != (self.width, self.height):
                raise ValueError(
                    f"frame {index} is {frame.width}x{frame.height}, "
                    f"codec configured for {self.width}x{self.height}"
                )
        for tile, ladder in ladder_map.items():
            if not ladder:
                raise ValueError(f"tile {tile} has an empty quality ladder")
        rects = {tile: self._tile_rect(tile) for tile in ladder_map}
        own_pool = None
        if executor is None:
            executor = own_pool = make_encode_executor(
                workers, len(ladder_map), registry=registry
            )
        try:
            if executor is None:
                encoded = {}
                for tile, ladder in ladder_map.items():
                    sub_frames = self._crop(frames, rects[tile])
                    encoded[tile] = tuple(
                        self._codec(quality).encode_gop(sub_frames)
                        for quality in ladder
                    )
            else:
                encoded = self._encode_parallel(
                    frames, ladder_map, rects, executor, workers, transport, registry
                )
        finally:
            if own_pool is not None:
                own_pool.shutdown()
        return {
            (tile, quality): payload
            for tile, ladder in ladder_map.items()
            for quality, payload in zip(ladder, encoded[tile])
        }

    @staticmethod
    def _crop(frames: list[Frame], rect: tuple[int, int, int, int]) -> list[Frame]:
        return [frame.crop(*rect) for frame in frames]

    def _encode_parallel(
        self,
        frames: list[Frame],
        ladder_map: dict[tuple[int, int], tuple[Quality, ...]],
        rects: dict[tuple[int, int], tuple[int, int, int, int]],
        executor: Executor,
        workers: int,
        transport: str,
        registry,
    ) -> dict[tuple[int, int], tuple[bytes, ...]]:
        chunk = _dispatch_chunksize(len(ladder_map), executor, workers)
        published = None
        try:
            if transport != "pickle":
                if shared_memory_available():
                    try:
                        published = publish_gop(frames)
                    except OSError as error:
                        self._note_shm_fallback(transport, registry, error)
                else:
                    self._note_shm_fallback(transport, registry, None)
            if published is not None:
                if registry is not None:
                    registry.counter(
                        "ingest.shm_gops", "GOPs shipped via shared memory"
                    ).inc()
                jobs = [
                    (tile, ladder, published.descriptor, rects[tile])
                    for tile, ladder in ladder_map.items()
                ]
                pairs = executor.map(_encode_tile_shm_job, jobs, chunksize=chunk)
            else:
                if registry is not None:
                    registry.counter(
                        "ingest.pickled_gops", "GOPs shipped by pickling raw frames"
                    ).inc()
                jobs = [
                    (tile, ladder, self._crop(frames, rects[tile]))
                    for tile, ladder in ladder_map.items()
                ]
                pairs = executor.map(_encode_tile_ladder_job, jobs, chunksize=chunk)
            # dict() drains the map, so every job is done (or has raised)
            # before the finally below unlinks the block.
            return dict(pairs)
        finally:
            if published is not None:
                published.destroy()

    @staticmethod
    def _note_shm_fallback(transport: str, registry, error: OSError | None) -> None:
        if transport == "shm":
            detail = f" ({error!r})" if error is not None else ""
            warnings.warn(
                "shared-memory transport requested but unavailable"
                f"{detail}; falling back to the pickling transport",
                RuntimeWarning,
                stacklevel=4,
            )
        if registry is not None:
            registry.counter(
                "ingest.shm_fallback",
                "GOPs that fell back from shared memory to pickling",
            ).inc()
