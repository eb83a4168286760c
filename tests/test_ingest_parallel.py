"""Wire-format and parallel-ingest guarantees.

The entropy coder is a wire format: stored segments and the homomorphic
tile operators depend on exact bytes. These tests hold the vectorised
coder bit-identical to the scalar reference (the format's executable
specification) and parallel ingest byte-identical to serial.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.storage import IngestConfig, StorageManager
from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.video import shmem, tiles
from repro.video.bitstream import BitReader, BitWriter
from repro.video.codec import (
    _read_rows,
    _read_rows_reference,
    _write_rows,
    _write_rows_reference,
)
from repro.video.quality import Quality
from repro.video.tiles import TiledVideoCodec, make_encode_executor
from repro.workloads.videos import synthetic_video


def _rng_rows(rng: np.random.Generator, blocks: int, density: float, span: int):
    rows = np.zeros((blocks, 64), dtype=np.int32)
    mask = rng.random((blocks, 64)) < density
    rows[mask] = rng.integers(-span, span + 1, size=int(mask.sum()))
    return rows


class TestEntropyGoldenBytes:
    """Vectorized coder vs the scalar reference, byte for byte."""

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3, 1.0])
    @pytest.mark.parametrize("span", [1, 40, 3000])
    def test_encode_identical(self, density, span):
        rng = np.random.default_rng(int(density * 100) + span)
        rows = _rng_rows(rng, blocks=37, density=density, span=span)
        vec, ref = BitWriter(), BitWriter()
        _write_rows(vec, rows)
        _write_rows_reference(ref, rows)
        assert vec.getvalue() == ref.getvalue()

    def test_encode_identical_beyond_fused_pair_limit(self):
        # Levels at/above 2**21 take the scalar fallback inside _write_rows;
        # the bytes must still match the reference exactly.
        rows = np.zeros((4, 64), dtype=np.int32)
        rows[0, 0] = 1 << 21
        rows[1, 5] = -(1 << 21)
        rows[2, 63] = (1 << 22) + 17
        vec, ref = BitWriter(), BitWriter()
        _write_rows(vec, rows)
        _write_rows_reference(ref, rows)
        assert vec.getvalue() == ref.getvalue()

    def test_encode_identical_mid_byte_continuation(self):
        # Planes share one continuous stream: the second plane starts at a
        # non-byte-aligned position. The vectorized writer must fold the
        # pending partial byte in correctly.
        rng = np.random.default_rng(7)
        plane_a = _rng_rows(rng, blocks=5, density=0.4, span=25)
        plane_b = _rng_rows(rng, blocks=11, density=0.1, span=500)
        vec, ref = BitWriter(), BitWriter()
        for writer, write in ((vec, _write_rows), (ref, _write_rows_reference)):
            write(writer, plane_a)
            write(writer, plane_b)
        assert vec.getvalue() == ref.getvalue()

    @pytest.mark.parametrize("density", [0.05, 0.6])
    def test_decode_identical(self, density):
        rng = np.random.default_rng(13)
        rows = _rng_rows(rng, blocks=29, density=density, span=900)
        writer = BitWriter()
        _write_rows_reference(writer, rows)
        payload = writer.getvalue()
        got_vec = _read_rows(BitReader(payload), rows.shape[0])
        got_ref = _read_rows_reference(BitReader(payload), rows.shape[0])
        np.testing.assert_array_equal(got_vec, got_ref)
        np.testing.assert_array_equal(got_vec, rows)

    @given(
        blocks=st.integers(min_value=0, max_value=24),
        density=st.floats(min_value=0.0, max_value=1.0),
        span=st.integers(min_value=1, max_value=1 << 22),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, blocks, density, span, seed):
        """Any quantised rows survive encode -> decode bit-exactly."""
        rng = np.random.default_rng(seed)
        rows = _rng_rows(rng, blocks=blocks, density=density, span=span)
        vec, ref = BitWriter(), BitWriter()
        _write_rows(vec, rows)
        _write_rows_reference(ref, rows)
        payload = vec.getvalue()
        assert payload == ref.getvalue()
        decoded = _read_rows(BitReader(payload), blocks)
        np.testing.assert_array_equal(decoded, rows)


CONFIG = IngestConfig(
    grid=TileGrid(2, 2),
    qualities=(Quality.HIGH, Quality.LOW),
    gop_frames=4,
    fps=4.0,
    workers=1,
)


def _segment_files(root) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestParallelIngestByteIdentity:
    def _frames(self):
        return list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=3)
        )

    def test_parallel_matches_serial(self, tmp_path):
        """workers=2 must write exactly the bytes workers=1 writes."""
        frames = self._frames()
        serial_root = tmp_path / "serial"
        parallel_root = tmp_path / "parallel"
        StorageManager(serial_root).ingest("clip", iter(frames), CONFIG, workers=1)
        StorageManager(parallel_root).ingest("clip", iter(frames), CONFIG, workers=2)
        serial_files = _segment_files(serial_root)
        parallel_files = _segment_files(parallel_root)
        assert serial_files.keys() == parallel_files.keys()
        assert serial_files == parallel_files

    def test_encode_gop_mixed_parallel_matches_serial(self, tiny_frames):
        codec = TiledVideoCodec(TileGrid(2, 2), 64, 32)
        plan = {
            tile: (Quality.HIGH if tile[0] == 0 else Quality.LOW)
            for tile in codec.grid.tiles()
        }
        serial = codec.encode_gop_mixed(tiny_frames, plan, workers=1)
        parallel = codec.encode_gop_mixed(tiny_frames, plan, workers=2)
        assert serial.payloads.keys() == parallel.payloads.keys()
        for key in serial.payloads:
            assert serial.payloads[key] == parallel.payloads[key], f"tile {key} differs"

    def test_workers_default_resolves_to_cpu_count(self):
        import os

        assert IngestConfig().workers == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            IngestConfig(workers=0)


def _shm_blocks() -> list[str]:
    """Shared-memory blocks this process has published and not reclaimed."""
    import os

    shm_dir = Path("/dev/shm")
    if not shm_dir.exists():
        return []
    prefix = f"{shmem.BLOCK_PREFIX}-{os.getpid()}-"
    return sorted(path.name for path in shm_dir.iterdir() if path.name.startswith(prefix))


needs_shm = pytest.mark.skipif(
    not shmem.shared_memory_available(), reason="platform has no shared memory"
)


@pytest.fixture(scope="module")
def shared_pool():
    """One 2-worker pool for the whole module (forkserver warmup paid once)."""
    pool = make_encode_executor(2, 32)
    if pool is None:
        pytest.skip("platform cannot start encode worker pools")
    yield pool
    pool.shutdown()


class TestSharedMemoryTransport:
    """The shm frame transport: equality, lifecycle, and fallback."""

    @needs_shm
    def test_round_trip_equals_crop(self, tiny_frames):
        published = shmem.publish_gop(tiny_frames)
        try:
            got = shmem.read_tile_frames(published.descriptor, (16, 8, 48, 24))
        finally:
            published.destroy()
        expected = [frame.crop(16, 8, 48, 24) for frame in tiny_frames]
        assert len(got) == len(expected)
        for mine, theirs in zip(got, expected):
            assert mine.equals(theirs)

    @needs_shm
    def test_full_frame_rect_copies_out_of_the_mapping(self, tiny_frames):
        # A full-frame rect slices contiguously — the one case where a
        # lazy ascontiguousarray would alias the closed mapping.
        frame = tiny_frames[0]
        published = shmem.publish_gop(tiny_frames)
        try:
            got = shmem.read_tile_frames(
                published.descriptor, (0, 0, frame.width, frame.height)
            )
        finally:
            published.destroy()
        # The mapping is gone; the frames must still be readable.
        assert _shm_blocks() == []
        for mine, theirs in zip(got, tiny_frames):
            assert mine.equals(theirs)

    @needs_shm
    def test_destroy_is_idempotent_and_unlinks(self, tiny_frames):
        published = shmem.publish_gop(tiny_frames)
        assert _shm_blocks() != []
        published.destroy()
        published.destroy()
        assert _shm_blocks() == []

    @needs_shm
    def test_worker_failure_unlinks_block(self, tiny_frames, shared_pool):
        # THUMBNAIL encodes at half resolution, which a 16px-wide tile
        # cannot satisfy: the job raises *inside the worker*, and the
        # publisher's finally must still reclaim the block.
        codec = TiledVideoCodec(TileGrid(2, 2), 64, 32)
        ladders = {tile: (Quality.THUMBNAIL,) for tile in codec.grid.tiles()}
        with pytest.raises(ValueError, match="resolution"):
            codec.encode_gop_ladders(
                tiny_frames, ladders, executor=shared_pool, transport="shm"
            )
        assert _shm_blocks() == []

    @needs_shm
    def test_keyboard_interrupt_unlinks_block(self, tiny_frames):
        class InterruptingExecutor:
            _max_workers = 2

            def map(self, fn, jobs, chunksize=1):
                raise KeyboardInterrupt

        codec = TiledVideoCodec(TileGrid(2, 2), 64, 32)
        ladders = {tile: (Quality.LOW,) for tile in codec.grid.tiles()}
        with pytest.raises(KeyboardInterrupt):
            codec.encode_gop_ladders(
                tiny_frames, ladders, executor=InterruptingExecutor(), transport="shm"
            )
        assert _shm_blocks() == []

    @needs_shm
    def test_failed_ingest_leaves_no_blocks(self, tmp_path, monkeypatch):
        from repro.core.catalog import Catalog

        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=3)
        )
        storage = StorageManager(tmp_path)
        real = Catalog.segment_path
        calls = {"n": 0}

        def failing_segment_path(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("disk on fire")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Catalog, "segment_path", failing_segment_path)
        with pytest.raises(RuntimeError, match="disk on fire"):
            storage.ingest(
                "clip",
                iter(frames),
                IngestConfig(
                    grid=TileGrid(2, 2),
                    qualities=(Quality.HIGH, Quality.LOW),
                    gop_frames=4,
                    fps=4.0,
                    workers=2,
                    transport="shm",
                ),
            )
        assert not storage.exists("clip")
        assert _shm_blocks() == []

    def test_pickle_fallback_when_shm_unavailable(self, tiny_frames, monkeypatch):
        monkeypatch.setattr(tiles, "shared_memory_available", lambda: False)
        registry = MetricsRegistry()
        codec = TiledVideoCodec(TileGrid(2, 2), 64, 32)
        ladders = {tile: (Quality.HIGH, Quality.LOW) for tile in codec.grid.tiles()}
        serial = codec.encode_gop_ladders(tiny_frames, ladders)

        class InlineExecutor:
            _max_workers = 2

            def map(self, fn, jobs, chunksize=1):
                return map(fn, list(jobs))

        with pytest.warns(RuntimeWarning, match="falling back to the pickling"):
            parallel = codec.encode_gop_ladders(
                tiny_frames,
                ladders,
                executor=InlineExecutor(),
                transport="shm",
                registry=registry,
            )
        assert parallel == serial
        counters = registry.snapshot()["counters"]
        assert counters["ingest.shm_fallback"] == 1
        assert counters["ingest.pickled_gops"] == 1

    @needs_shm
    def test_pickle_fallback_when_publish_fails(self, tiny_frames, monkeypatch):
        def refuse(frames):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(tiles, "publish_gop", refuse)
        registry = MetricsRegistry()
        codec = TiledVideoCodec(TileGrid(2, 2), 64, 32)
        ladders = {tile: (Quality.LOW,) for tile in codec.grid.tiles()}
        serial = codec.encode_gop_ladders(tiny_frames, ladders)

        class InlineExecutor:
            _max_workers = 2

            def map(self, fn, jobs, chunksize=1):
                return map(fn, list(jobs))

        parallel = codec.encode_gop_ladders(
            tiny_frames,
            ladders,
            executor=InlineExecutor(),
            transport="auto",
            registry=registry,
        )
        assert parallel == serial
        assert registry.snapshot()["counters"]["ingest.shm_fallback"] == 1
        assert _shm_blocks() == []


class TestPoolFallbackIsLoud:
    def test_refused_pool_warns_and_counts(self, monkeypatch):
        registry = MetricsRegistry()

        def refuse(*args, **kwargs):
            raise OSError("spawn forbidden")

        monkeypatch.setattr(tiles, "ProcessPoolExecutor", refuse)
        with pytest.warns(RuntimeWarning, match="refused"):
            assert make_encode_executor(8, 32, registry=registry) is None
        assert registry.snapshot()["counters"]["ingest.pool_fallback"] == 1

    def test_deliberate_serial_stays_quiet(self):
        registry = MetricsRegistry()
        assert make_encode_executor(1, 32, registry=registry) is None
        assert make_encode_executor(4, 1, registry=registry) is None
        assert "ingest.pool_fallback" not in registry.snapshot()["counters"]


class TestBrokenPoolFinishesSerially:
    def test_break_mid_ingest_builds_no_second_pool(self, tmp_path, monkeypatch):
        """A pool that breaks on the first GOP leaves the rest of the
        version serial: same bytes as workers=1, one fallback, one pool."""
        pools = []

        class BreakingExecutor:
            def __init__(self, max_workers, mp_context=None):
                self._max_workers = max_workers
                pools.append(self)

            def map(self, fn, jobs, chunksize=1):
                raise BrokenProcessPool("encode worker killed")

            def shutdown(self, wait=True):
                pass

        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=3.0, seed=3)
        )
        StorageManager(tmp_path / "serial").ingest("clip", iter(frames), CONFIG, workers=1)
        monkeypatch.setattr(tiles, "ProcessPoolExecutor", BreakingExecutor)
        storage = StorageManager(tmp_path / "broken")
        with pytest.warns(RuntimeWarning, match="broke mid-ingest"):
            storage.ingest("clip", iter(frames), CONFIG, workers=2)
        assert _segment_files(tmp_path / "broken") == _segment_files(tmp_path / "serial")
        assert storage.metrics.snapshot()["counters"]["ingest.pool_fallback"] == 1
        assert len(pools) == 1


SRC = Path(__file__).resolve().parents[1] / "src"

_PRELOAD_SCRIPT = """
import multiprocessing.forkserver
import sys

sys.path.insert(0, {src!r})
from repro.video.tiles import make_encode_executor

PROBE = (
    "sorted(m for m in ('numpy', 'scipy.fft', 'repro.video.tiles') "
    "if m in __import__('sys').modules)"
)
for _ in range(2):
    pool = make_encode_executor(2, 4)
    try:
        print(pool.submit(eval, PROBE).result(timeout=60))
    finally:
        pool.shutdown()
    multiprocessing.forkserver._forkserver._stop()
"""


@pytest.mark.skipif(
    tiles.encode_start_method() != "forkserver", reason="no forkserver start method"
)
def test_fresh_workers_fork_with_the_codec_imported(tmp_path):
    """With ``repro`` reachable only through a run-time ``sys.path``
    entry, a fresh worker's first job already sees numpy, scipy.fft and
    the codec imported — also after the forkserver is stopped and
    restarted by the next pool."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-c", _PRELOAD_SCRIPT.format(src=str(SRC))],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    preloaded = str(["numpy", "repro.video.tiles", "scipy.fft"])
    assert result.stdout.splitlines() == [preloaded, preloaded]


class TestDispatchChunking:
    def test_chunksize_follows_executor_not_workers_param(self):
        """A shared pool sized 2 must not be chunked as if it had 16 workers."""

        class RecordingExecutor:
            def __init__(self, max_workers):
                self._max_workers = max_workers
                self.chunksizes = []

            def map(self, fn, jobs, chunksize=1):
                self.chunksizes.append(chunksize)
                return map(fn, list(jobs))

        frames = list(
            synthetic_video("venice", width=128, height=64, fps=4.0, duration=0.5, seed=1)
        )
        codec = TiledVideoCodec(TileGrid(4, 4), 128, 64)
        ladders = {tile: (Quality.LOW,) for tile in codec.grid.tiles()}
        executor = RecordingExecutor(max_workers=2)
        codec.encode_gop_ladders(
            frames, ladders, workers=16, executor=executor, transport="pickle"
        )
        # 16 jobs over 2 actual workers -> 4 chunks per worker -> 2 jobs
        # per chunk. The workers=16 parameter must not shrink this to 1.
        assert executor.chunksizes == [2]

    def test_chunksize_helper_floors_at_one(self):
        class Pool:
            _max_workers = 8

        assert tiles._dispatch_chunksize(3, Pool(), workers=1) == 1
        assert tiles._dispatch_chunksize(64, Pool(), workers=1) == 2


class TestLadderEncodeByteIdentity:
    """encode_gop_ladders across transports, against the serial oracle."""

    @needs_shm
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ladder_picks=st.lists(
            st.sampled_from(
                [
                    (Quality.HIGH,),
                    (Quality.LOW,),
                    (Quality.HIGH, Quality.LOW),
                    (Quality.HIGH, Quality.MEDIUM, Quality.LOWEST),
                ]
            ),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=8, deadline=None)
    def test_shm_parallel_matches_serial_property(self, seed, ladder_picks, shared_pool):
        frames = list(
            synthetic_video(
                "venice", width=64, height=32, fps=4.0, duration=0.75, seed=seed
            )
        )
        codec = TiledVideoCodec(TileGrid(2, 2), 64, 32)
        ladders = dict(zip(codec.grid.tiles(), ladder_picks))
        serial = codec.encode_gop_ladders(frames, ladders)
        parallel = codec.encode_gop_ladders(
            frames, ladders, executor=shared_pool, transport="shm"
        )
        assert parallel == serial
        assert _shm_blocks() == []

    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_ingest_transports_match_serial(self, tmp_path, transport):
        if transport == "shm" and not shmem.shared_memory_available():
            pytest.skip("platform has no shared memory")
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=3)
        )
        plan = {
            (0, 0): (Quality.LOW,),
            (1, 1): (Quality.HIGH,),
        }
        roots = {}
        for label, workers in (("serial", 1), ("parallel", 2)):
            root = tmp_path / f"{label}-{transport}"
            config = IngestConfig(
                grid=TileGrid(2, 2),
                qualities=(Quality.HIGH, Quality.LOW),
                gop_frames=4,
                fps=4.0,
                workers=workers,
                transport=transport,
            )
            storage = StorageManager(root)
            storage.ingest("clip", iter(frames), config, quality_plan=plan)
            roots[label] = root
            if label == "parallel":
                counters = storage.metrics.snapshot()["counters"]
                expected = "ingest.shm_gops" if transport == "shm" else "ingest.pickled_gops"
                assert counters.get(expected, 0) > 0, "requested transport never engaged"
        assert _segment_files(roots["serial"]) == _segment_files(roots["parallel"])
        assert _shm_blocks() == []

    @needs_shm
    def test_reingest_parallel_shm_matches_serial(self, tmp_path):
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=5)
        )
        metas = {}
        for label, workers in (("serial", 1), ("parallel", 2)):
            root = tmp_path / label
            storage = StorageManager(root)
            storage.ingest("clip", iter(frames), CONFIG)
            metas[label] = storage.reingest(
                "clip", workers=workers, transport="shm" if workers > 1 else "auto"
            )
        assert metas["serial"].version == metas["parallel"].version == 2
        serial_files = _segment_files(tmp_path / "serial")
        parallel_files = _segment_files(tmp_path / "parallel")
        assert serial_files == parallel_files
        assert _shm_blocks() == []


class TestReingest:
    def test_reingest_creates_new_version(self, tmp_path):
        storage = StorageManager(tmp_path)
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=5)
        )
        storage.ingest("clip", iter(frames), CONFIG)
        meta = storage.reingest("clip", workers=1)
        assert meta.version == 2
        assert meta.gop_count == storage.meta("clip", 1).gop_count

    def test_reingest_can_change_grid(self, tmp_path):
        storage = StorageManager(tmp_path)
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=5)
        )
        storage.ingest("clip", iter(frames), CONFIG)
        new_config = IngestConfig(
            grid=TileGrid(1, 2),
            qualities=(Quality.HIGH,),
            gop_frames=4,
            fps=4.0,
            workers=1,
        )
        meta = storage.reingest("clip", config=new_config)
        assert meta.grid == TileGrid(1, 2)
        assert set(meta.qualities) == {Quality.HIGH}
