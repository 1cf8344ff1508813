"""One pass of a workload, in the fresh interpreter run.py starts for it.

Set-up covers the interpreter start (timed from the moment run.py spawned
this process), importing the program, generating the seeded request list and
staging its input files.  The timed region then sends every request in turn
through ramsey_ba.cli.run, one at a time (closed loop, one client).  The
host-speed probe of speed.py is active from the start of main() to the last
response.  Checks, the conversion of set-up time and latencies to reference
speed and, in a traced pass, the reduction of spans happen after the timed
region.  The pass prints one JSON object on stdout.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ramsey_ba import cli  # noqa: E402
from ramsey_ba.core import ClassKind  # noqa: E402


def run_config(request: dict, paths: dict[str, str]) -> cli.RunConfig:
    params = dict(request["params"])
    if "kind" in params:
        params["kind"] = ClassKind(params["kind"])
    return cli.RunConfig(subcommand=request["subcommand"], inputs=paths, **params)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--stage", required=True, help="directory for the staged inputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deep", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with speed.Probe() as probe:
        requests = workloads.requests_for(args.workload, args.seed)
        staged = workloads.stage(requests, Path(args.stage))
        configs = [run_config(r, p) for r, p in zip(requests, staged)]
        setup_s = time.monotonic() - args.spawned
        setup_started = time.perf_counter() - setup_s

        tracer = spans.install() if args.trace else None
        sent_at = []
        latencies = []
        responses = []
        start = time.perf_counter()
        for i, config in enumerate(configs):
            if tracer is not None:
                tracer.request_id = i
            # the garbage earlier requests left, and so when a collection
            # lands, depends on the seed's order; start each request without it
            gc.collect()
            sent = time.perf_counter()
            try:
                response = cli.run(config)
            except Exception as error:  # a crash is a failed request, not a failed pass
                response = (None, f"{type(error).__name__}: {error}")
            latencies.append(time.perf_counter() - sent)
            sent_at.append(sent)
            responses.append(response)
        wall_s = time.perf_counter() - start
    rss_mb = _peak_rss_mb()
    ref_setup_s = probe.at_reference_speed(setup_started, setup_s)
    ref_latencies = [probe.at_reference_speed(s, l) for s, l in zip(sent_at, latencies)]

    expected = checks.load_expected()
    failures = []
    digests = []
    for i, (request, (code, text)) in enumerate(zip(requests, responses)):
        digests.append(hashlib.sha256(f"{code}\n{text}".encode()).hexdigest())
        problems = checks.check_response(request, code, text, expected.get(request["id"]), bool(args.deep))
        if problems:
            failures.append({"index": i, "id": request["id"], "problems": problems})

    tags = [r["tag"] for r in requests]
    result = {
        "setup_s": setup_s,
        "ref_setup_s": ref_setup_s,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "ids": [r["id"] for r in requests],
        "tags": tags,
        "latency_s": latencies,
        "ref_latency_s": ref_latencies,
        "slowdown": probe.slowdown(),
        "digests": digests,
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = spans.layer_figures(tracer, tags)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
