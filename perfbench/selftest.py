"""Self-test of the benchmark's own code; needs no program import.

    python3 perfbench/selftest.py

Checks that one seed always yields the same request list, that different
seeds change only the order (the multiset of requests, and so the repeats,
is fixed by the catalogue), that the stated repeat share holds, that every
request has a pinned outcome, that the definitional block-map scan gives
the Stirling-number counts on level-free algebras, and that the host-speed
probe scales latencies by its samples and takes out its own time.
"""
from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(8)


def _canonical(requests: list[dict]) -> list[str]:
    return [json.dumps(r, sort_keys=True) for r in requests]


def _stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def main() -> int:
    failures = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    expected = checks.load_expected()
    for workload in workloads.WORKLOADS:
        base = _canonical(workloads.requests_for(workload, 0))
        for seed in SEEDS:
            once = _canonical(workloads.requests_for(workload, seed))
            expect(once == _canonical(workloads.requests_for(workload, seed)),
                   f"{workload}: seed {seed} gives two different lists")
            expect(Counter(once) == Counter(base),
                   f"{workload}: seed {seed} changes more than the order")
        expect(len(set(_canonical(workloads.requests_for(workload, s)) == base for s in SEEDS)) == 2,
               f"{workload}: the seed never changes the order")
        requests = workloads.requests_for(workload, 0)
        missing = sorted({r["id"] for r in requests} - expected.keys())
        expect(not missing, f"{workload}: no pinned outcome for {missing[:5]}")
        by_id: dict[str, str] = {}
        for r, text in zip(requests, _canonical(requests)):
            expect(by_id.setdefault(r["id"], text) == text, f"{workload}: id {r['id']} names two requests")

    catalogue = workloads.load_catalogue()
    stream = workloads.query_mix()
    share = 1 - len({r["id"] for r in stream}) / len(stream)
    expect(0.2 <= share <= 0.3, f"query-mix repeat share {share:.3f} is not about a quarter")
    expect(abs(share - catalogue["repeat_share"]) < 1e-3, "catalogue states a different repeat share")
    expect(all("reason" in e for e in catalogue["excluded"]), "an excluded entry has no reason")

    for n in range(1, 7):
        for k in range(1, n + 1):
            small = {"chain_length": 0, "levels": ["out"] * k}
            big = {"chain_length": 0, "levels": ["out"] * n}
            s = _stirling2(n, k)
            expect(len(checks.block_maps(small, big, ordered=True)) == s,
                   f"ordered scan {k} in {n} is not S({n},{k})")
            expect(len(checks.block_maps(small, big, ordered=False)) == s * math.factorial(k),
                   f"plain scan {k} in {n} is not {k}! S({n},{k})")

    probe = speed.Probe()
    for i in range(100):  # a sample every 10 ms at half the reference speed
        probe.at.append(0.01 * (i + 1))
        probe.cost.append(2 * speed.REF_S)
    inside = 0.2 / 0.01  # samples that fall within the 0.2 s request below
    expect(abs(probe.at_reference_speed(0.305, 0.2) - (0.2 - inside * 2 * speed.REF_S) / 2) < 1e-12,
           "probe does not halve a long request's own time at half speed")
    expect(abs(probe.at_reference_speed(0.9955, 0.001) - 0.0005) < 1e-12,
           "probe does not halve a short request at the end of the samples")
    expect(abs(probe.slowdown() - 2) < 1e-12, "probe slowdown is not 2 at half speed")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
