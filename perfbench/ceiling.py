"""Measure the load generator's ceiling against the bare stub server.

Run from the repository root::

    python3 perfbench/ceiling.py [--seconds 2] [--out perfbench/ceiling.json]

It builds the hot-zipf catalog, serves it from ``stub_server.py`` (no
framework, no storage, no metrics) and climbs the benchmark's ×1.15
ladder, with the same connections, Zipf mix and pass criterion,
until the generator itself misses the p99 limit. The highest passing
rate is written to ``ceiling.json``; every workload's ladder must top out
below it (``test_perfbench.py`` checks this).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--out", default=str(BENCH_DIR / "ceiling.json"))
    args = parser.parse_args(argv)
    bench = run.Bench(
        argparse.Namespace(workload="hot-zipf", seed=1, seconds=args.seconds, trace=0)
    )
    trail = []
    passed = 0.0
    try:
        bench.make_frames()
        live = bench.setup_once(0)
        target = bench.build_target(live["storage"])
        stub = run.ServerProcess(
            [str(BENCH_DIR / "stub_server.py"), "--root", str(live["root"]), "--video", run.VIDEO]
        )
        bench.servers.append(stub)
        rng = bench.rng("ceiling")
        choose = bench.chooser(target, rng, [])
        rate = run.ladder(run.WORKLOADS["hot-zipf"])[0]
        while True:
            result = bench.one_pass(stub, target, choose, rate, args.seconds, rng)
            ok = bench.rung_ok(result)
            late = sorted(result.late_ms)[int(0.99 * len(result.late_ms))]
            trail.append({"rate": rate, "ok": ok, "p99_ms": result.quantile(0.99),
                          "late_p99_ms": late, "backlog": result.backlog_at_end})
            print(json.dumps(trail[-1]), file=sys.stderr)
            if not ok:
                break
            passed = rate
            rate *= run.LADDER_STEP
    finally:
        bench.close()
    record = {
        "passed_rps": passed,
        "connections": min(2, os.cpu_count() or 1),
        "seconds_per_rate": args.seconds,
        "p99_limit_ms": run.P99_LIMIT_MS,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "trail": trail,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"passed_rps": passed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
