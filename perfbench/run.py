"""Benchmark entry point.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

Runs passes of one workload until --seconds have gone by (at least three),
each pass in a fresh interpreter so imports and the program's in-process
caches start cold.  One pass runs at a time; the
only other processes are the pool workers of a two-worker suite request.

--trace 0 prints the end-to-end metrics: peak RSS as measured, and the
set-up time, the pass wall time and the p50 and p90 request latency at
reference host speed (see speed.py).  Set-up time, wall time and RSS are
medians over passes; the percentiles are taken over every request of every
pass.

--trace 1 alternates untraced and traced passes and prints the per-layer
figures (medians over traced passes), the tracing overhead (traced minus
untraced median wall time at reference speed), the measured set-up time,
wall time and host slowdown, and the two-worker suite speedup (from the
untraced passes).

The last line of stdout is the result object.  Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 3
DEADLINE_S = 170.0  # the whole run, passes and checks included


class PassFailed(Exception):
    pass


def run_pass(args, index: int, traced: bool, deep: bool, stage_root: Path, budget_s: float) -> dict:
    spawned = time.monotonic()
    command = [
        sys.executable,
        str(HERE / "one_pass.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--spawned", repr(spawned),
        "--stage", str(stage_root / f"pass{index}"),
        "--trace", "1" if traced else "0",
        "--deep", "1" if deep else "0",
    ]
    # own process group, so a pass that overruns is killed with its workers
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass {index} overran the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise PassFailed(f"pass {index} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def ref_wall_s(p: dict) -> float:
    return math.fsum(p["ref_latency_s"])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict]) -> dict:
    latencies = [latency * 1e3 for p in passes for latency in p["ref_latency_s"]]
    return {
        "setup_s": metric(statistics.median(p["ref_setup_s"] for p in passes), "s"),
        "wall_ref_s": metric(statistics.median(ref_wall_s(p) for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in passes), "MB"),
        "query_p50_ref_ms": metric(statistics.median(latencies), "ms"),
        "query_p90_ref_ms": metric(statistics.quantiles(latencies, n=10)[8], "ms"),
    }


# per-layer units by the last part of the name; the rest are seconds
UNITS = {"calls": "count", "copies": "count", "bytes": "bytes", "shards": "count",
         "search_nodes": "count", "us_per_copy": "us", "repeat_ms": "ms", "nodes_per_s": "1/s",
         "repeat_share": "ratio", "shard_imbalance": "ratio", "suite_speedup_w2": "ratio",
         "failed_share": "ratio", "slowdown": "ratio"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "s")


def per_layer(untraced: list[dict], traced: list[dict], failed: int, attempted: int) -> dict:
    names = traced[0]["layers"].keys()
    values = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    values["trace.overhead_s"] = statistics.median(ref_wall_s(p) for p in traced) - statistics.median(
        ref_wall_s(p) for p in untraced
    )
    values["host.setup_s"] = statistics.median(p["setup_s"] for p in untraced)
    values["host.wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    values["host.slowdown"] = statistics.median(p["slowdown"] for p in untraced)
    speedups = []
    for p in untraced:
        by_tag = dict(zip(p["tags"], p["latency_s"]))
        if "suite-w1" in by_tag and "suite-w2" in by_tag:
            speedups.append(by_tag["suite-w1"] / by_tag["suite-w2"])
    values["parallel.suite_speedup_w2"] = statistics.median(speedups) if speedups else 0.0
    values["failed_share"] = failed / attempted
    return {name: metric(value, unit_of(name)) for name, value in values.items()}


def count_failures(passes: list[dict]) -> tuple[int, list[str]]:
    """Failed requests: responses a check rejected, the same bytes sent again
    for the same request (deep checks run in the first pass only), and any
    response whose bytes differ from the first response to its request."""
    rejected = {(f["id"], p["digests"][f["index"]]) for p in passes for f in p["failures"]}
    notes = [f"pass {n} {f['id']}: {'; '.join(f['problems'])}" for n, p in enumerate(passes) for f in p["failures"]]
    first: dict[str, str] = {}
    failed = 0
    for n, p in enumerate(passes):
        for rid, digest in zip(p["ids"], p["digests"]):
            if (rid, digest) in rejected:
                failed += 1
            elif first.setdefault(rid, digest) != digest:
                failed += 1
                notes.append(f"pass {n} {rid}: response differs from its first occurrence")
    return failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "ramsey_ba" / "cli.py").is_file():
        sys.stderr.write(f"error: no program source under {ROOT / 'src'}; run from a checkout\n")
        return 2

    begun = time.monotonic()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    stage_root = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        index = 0
        while True:
            elapsed = time.monotonic() - begun
            if args.trace:
                done = elapsed >= args.seconds and untraced and traced
            else:
                done = elapsed >= args.seconds and len(untraced) >= MIN_PASSES
            if done:
                break
            as_traced = bool(args.trace) and index % 2 == 1
            result = run_pass(args, index, as_traced, index == 0, stage_root, DEADLINE_S - elapsed)
            (traced if as_traced else untraced).append(result)
            sys.stderr.write(
                f"pass {index}{' traced' if as_traced else ''}: wall {result['wall_s']:.3f} s"
                f" ({ref_wall_s(result):.3f} s at reference speed, slowdown {result['slowdown']:.2f}),"
                f" setup {result['setup_s']:.3f} s, {len(result['failures'])} failed\n"
            )
            index += 1
    except PassFailed as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 1
    finally:
        shutil.rmtree(stage_root, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    passes = untraced + traced
    failed, notes = count_failures(passes)
    attempted = sum(len(p["ids"]) for p in passes)
    for note in notes[:20]:
        sys.stderr.write(f"check: {note}\n")
    metrics = per_layer(untraced, traced, failed, attempted) if args.trace else end_to_end(untraced)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
