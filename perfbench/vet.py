"""Vet the request catalogue and pin the expected outcome of every request.

    python3 perfbench/vet.py

For every distinct request of every workload this runs the program once,
checks the response with the definitional scans in checks.py, and writes its
exit code and summary to expected.json.  For the query-mix catalogue it also
records each entry's search nodes, copy count and time in catalogue.json,
and fails if two distinct entries reach the arrow cache with the same key:
the pinned repeats must be the only source of cache hits.  Excluded entries
are run in a child process and must still be running after EXCLUDE_AFTER_S.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from one_pass import run_config  # noqa: E402
from ramsey_ba import cli, ramsey  # noqa: E402

# A request that alone outlasts several whole query-mix passes would turn the
# workload into a benchmark of that one instance.
EXCLUDE_AFTER_S = 10.0


def _stats(request: dict, report: dict) -> dict:
    sub = request["subcommand"]
    if sub == "arrow":
        return {"search_nodes": report["certificate"]["stats"]["nodes"]}
    if sub == "witness" and report.get("constructed"):
        return {"search_nodes": report["constructed"]["certificate"]["stats"]["nodes"]}
    if sub == "copies":
        return {"copies": report["count"]}
    return {}


def run_once(request: dict, stage: Path, keys: set) -> tuple[int, str, float, int]:
    """One cold run: exit code, report, seconds and arrow cache hits; the
    cache keys it reaches are added to keys."""
    cached = ramsey._arrows
    cached.cache_clear()

    def recording(c, b, a, k):
        keys.add((c, b, a, k))
        return cached(c, b, a, k)

    ramsey._arrows = recording
    try:
        paths = workloads.stage([request], stage)[0]
        started = time.perf_counter()
        code, text = cli.run(run_config(request, paths))
        return code, text, time.perf_counter() - started, cached.cache_info().hits
    finally:
        ramsey._arrows = cached


def still_running_after(entry: dict, stage: Path, seconds: float) -> bool:
    """Whether the entry is still unfinished after seconds, in a child process."""
    paths = workloads.stage([{**entry, "tag": ""}], stage)[0]
    script = (
        "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "from one_pass import run_config; from ramsey_ba import cli;"
        "cli.run(run_config(json.loads(sys.argv[3]), json.loads(sys.argv[4])))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(HERE.parent / "src"), str(HERE),
         json.dumps(entry), json.dumps(paths)]
    )
    try:
        proc.wait(timeout=seconds)
        return False
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return True


def main() -> int:
    stage = HERE.parent / ".perfbench_work" / "vet"
    try:
        return vet(stage)
    finally:
        shutil.rmtree(stage.parent, ignore_errors=True)


def vet(stage: Path) -> int:
    expected: dict = {}
    problems: list[str] = []
    catalogue = workloads.load_catalogue()
    vetted: dict[str, dict] = {}
    keys_of: dict[str, set] = {}
    for workload in workloads.WORKLOADS:
        distinct = {r["id"]: r for r in workloads.requests_for(workload, 0)}
        for rid, request in distinct.items():
            keys: set = set()
            code, text, seconds, hits = run_once(request, stage, keys)
            if hits:
                problems.append(f"{rid} hits the arrow cache {hits} times on its own")
            report = json.loads(text)
            expected[rid] = {"code": code, "summary": checks.summarize(request["subcommand"], report)}
            found = checks.check_response(request, code, text, expected[rid], deep=True)
            problems.extend(f"{rid}: {p}" for p in found)
            if workload == "query-mix":
                keys_of[rid] = keys
                vetted[rid] = {"seconds": round(seconds, 4), **_stats(request, report)}
            print(f"{workload:13s} {rid:40s} exit {code} {seconds:8.3f} s", flush=True)

    ids = sorted(keys_of)
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            if keys_of[x] & keys_of[y]:
                problems.append(f"{x} and {y} share arrow cache keys")

    for entry in catalogue["excluded"]:
        if still_running_after(entry, stage, EXCLUDE_AFTER_S):
            entry["reason"] = f"still running after {EXCLUDE_AFTER_S:.0f} s"
        else:
            problems.append(f"excluded {entry['id']} finishes within {EXCLUDE_AFTER_S:.0f} s")
        print(f"excluded      {entry['id']:40s} {entry.get('reason', 'finished')}", flush=True)

    for entry in catalogue["entries"]:
        entry["vetted"] = vetted[entry["id"]]
    total = sum(1 + e["repeats"] for e in catalogue["entries"])
    catalogue["repeat_share"] = round(sum(e["repeats"] for e in catalogue["entries"]) / total, 4)
    with open(workloads.CATALOGUE, "w", encoding="utf-8") as handle:
        json.dump(catalogue, handle, indent=1)
        handle.write("\n")
    with open(checks.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
