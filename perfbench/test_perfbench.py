"""The benchmark's own tests: ``python3 -m pytest perfbench/test_perfbench.py``.

Tiny runs of every workload (one second of measurement each), the
generator's failure accounting against a real server, and the agreement
between the emitted metric names and ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import loadgen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _run(*argv: str, cwd: Path = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _report(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-2])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_reported_metrics_are_the_ones_benchmark_json_lists():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.metric_units(trace) == {m["name"]: m["unit"] for m in SPEC[section]}


def test_every_ladder_stays_below_the_generator_ceiling():
    ceiling = json.loads((BENCH_DIR / "ceiling.json").read_text())
    for name, spec in run.WORKLOADS.items():
        top = run.ladder(spec)[-1]
        assert top < ceiling["passed_rps"], name
        # Room to show a 2x gain: the ladder reaches 3x the baseline capacity.
        assert top >= 3 * spec["baseline_capacity_rps"], name


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    completed = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    # Every ladder attempt is long enough for a p99 with ten samples beyond.
    for attempt in _report(completed)["serve"]["ladder"]["trail"]:
        assert attempt["n"] >= 1000, attempt


def test_failed_ingest_is_counted_and_the_result_still_printed(monkeypatch, capsys):
    from repro.core.storage import StorageManager

    def broken(self, *args, **kwargs):
        raise AttributeError("pool broke")

    monkeypatch.setattr(StorageManager, "ingest", broken)
    assert run.main(["--workload", "hot-zipf", "--seed", "5", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_tiny_traced_run_reports_every_per_layer_metric():
    result = _result(_run("--workload", "cold-uniform", "--seed", "5", "--seconds", "1", "--trace", "1"))
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Cold path: every uncached read resolves its version once today.
    assert metrics["catalog.scans_per_read"] >= 1.0
    assert metrics["storage.fsyncs_per_segment"] > 0
    assert math.isfinite(metrics["trace.overhead_pct"])


def test_missing_segment_counts_as_failed(tmp_path):
    from repro.core.storage import IngestConfig, StorageManager, checksum_hex
    from repro.geometry.grid import TileGrid
    from repro.workloads.videos import synthetic_video

    storage = StorageManager(tmp_path)
    storage.ingest(
        run.VIDEO,
        synthetic_video("timelapse", width=64, height=32, fps=2, duration=1, seed=0),
        IngestConfig(grid=TileGrid(2, 2), gop_frames=2, fps=2.0, workers=1),
    )
    key = sorted(storage.build_manifest(run.VIDEO).segment_sizes, key=lambda k: k.to_path())[0]
    body = storage.read_segment(run.VIDEO, key.window, key.tile, key.quality)
    good = f"/segment/{run.VIDEO}/{key.to_path()}"
    missing = f"/segment/{run.VIDEO}/7/0/0/{key.quality.label}"
    target = loadgen.Target([good, missing], [body, body], [checksum_hex(body)] * 2)
    server = run.start_server(tmp_path, run.WORKLOADS["cold-uniform"], 1 << 20)
    try:
        due = array("d", [0.0, 0.0, 0.001])
        result = asyncio.run(
            loadgen.run_pass("127.0.0.1", server.port, target, due, [0, 1, 0], 1, 0.0, 0.0)
        )
    finally:
        server.stop()
    assert result.attempted == 3
    assert result.failed == 1
    assert result.wrong == 1
    assert len(result.latencies_ms) == 2


def test_percentiles_need_ten_samples_beyond_them():
    report = loadgen.percentile_report([float(i) for i in range(200)])
    assert report["n"] == 200
    assert report["p50"] == 100.0
    assert "p90" in report and "p99" not in report
    with_failures = loadgen.percentile_report([1.0] * 1000, failed=20)
    assert with_failures["p99"] == math.inf


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".state", "__pycache__"))
    completed = _run("--workload", "hot-zipf", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
