"""Seeded request lists for the three workloads, and input staging.

A request is a plain dict: ``id`` (stable across seeds, shared by repeats),
``subcommand``, ``inputs`` (role -> JSON object, written to files during
set-up), ``params`` (the remaining RunConfig fields) and ``tag``.  The seed
only shuffles the order in which a fixed multiset of requests is sent, so the
work a pass does, and the share of repeats, are the same for every seed.

Nothing here imports the program: the inputs are generated from the level
alphabet directly, so the program only ever sees the staged files.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from pathlib import Path

CATALOGUE = Path(__file__).with_name("catalogue.json")

WORKLOADS = ("query-mix", "class-suites", "order-sweep")

# class-suites: the large sweep sent once at one worker and once at two, and
# a grid of small sweeps over every class and chain length at one worker.
SUITE = {"kind": "bj", "chain_length": 1, "max_atoms": 5, "suite": "both"}
GRID = (("bj", (0, 1, 2)), ("bju", (0, 1, 2)), ("bu", (1,)))
GRID_SIZES = (2, 3, 4)

# order-sweep: the pairwise forgetfulness check at 5 atoms, once per chain
# length.  At 6 atoms a single sweep takes seconds on its own (518,400 order
# pairs of the level-free 6-atom algebra), so a 30 s run held only three
# passes; at 7 atoms and one ideal it ran for over ten minutes.
FORGETFUL_ATOMS = 5
FORGETFUL_LENGTHS = (0, 1, 2, 3)
# chains: every algebra of chain length t with up to n atoms, per (t, n).
# The twelve heaviest requests (the two 8-atom chains, the four sweeps and
# the six 6-atom algebras with 720 proper orders) are a tenth of 122
# requests, which put p90 on the gap below them; the 34 small algebras of
# chain length 3 move it into the even run of lighter 6-atom requests.
CHAIN_SWEEP = ((0, 6), (1, 6), (2, 6), (3, 3))
EIGHT_ATOM_CHAINS = (
    {"chain_length": 1, "levels": [0, 0, 0, 0, "out", "out", "out", "out"]},
    {"chain_length": 2, "levels": [0, 0, 1, 1, 1, "out", "out", "out"]},
)


def suite_workers() -> int:
    """The second worker count of class-suites: two, or fewer on one core."""
    return min(2, len(os.sched_getaffinity(0)))


def load_catalogue() -> dict:
    with open(CATALOGUE, encoding="utf-8") as handle:
        return json.load(handle)


def _request(rid: str, subcommand: str, inputs=None, tag: str = "", **params) -> dict:
    return {
        "id": rid,
        "subcommand": subcommand,
        "inputs": inputs or {},
        "params": params,
        "tag": tag,
    }


def query_mix() -> list[dict]:
    """Every catalogue entry once plus its pinned number of repeats."""
    stream = []
    for entry in load_catalogue()["entries"]:
        request = _request(
            entry["id"], entry["subcommand"], entry["inputs"], "query", **entry["params"]
        )
        stream.extend([request] * (1 + entry["repeats"]))
    return stream


def class_suites() -> list[dict]:
    stream = []
    for kind, lengths in GRID:
        for t in lengths:
            for n in GRID_SIZES:
                for suite in ("hp", "ap"):
                    stream.append(
                        _request(
                            f"fraisse-{kind}-t{t}-n{n}-{suite}",
                            "fraisse",
                            tag="grid",
                            kind=kind,
                            chain_length=t,
                            max_atoms=n,
                            suite=suite,
                        )
                    )
    big = f"suite-{SUITE['kind']}-t{SUITE['chain_length']}-n{SUITE['max_atoms']}"
    for workers in sorted({1, suite_workers()}):
        stream.append(
            _request(f"{big}-w{workers}", "fraisse", tag=f"suite-w{workers}", workers=workers, **SUITE)
        )
    return stream


def signatures(n_atoms: int, chain_length: int) -> list[list]:
    """Every nondecreasing level sequence, in the wire convention."""
    alphabet = list(range(chain_length)) + ["out"]
    return [list(s) for s in itertools.combinations_with_replacement(alphabet, n_atoms)]


def order_sweep() -> list[dict]:
    stream = [
        _request(f"forgetful-t{t}", "forgetful", tag="forgetful", max_atoms=FORGETFUL_ATOMS, chain_length=t)
        for t in FORGETFUL_LENGTHS
    ]
    algebras = [
        {"chain_length": t, "levels": levels}
        for t, atoms in CHAIN_SWEEP
        for n in range(1, atoms + 1)
        for levels in signatures(n, t)
    ]
    for algebra in algebras + list(EIGHT_ATOM_CHAINS):
        rid = "chains-t{}-{}".format(algebra["chain_length"], "".join(map(str, algebra["levels"])))
        tag = "chains-8" if len(algebra["levels"]) == 8 else "chains"
        stream.append(_request(rid, "chains", {"algebra": algebra}, tag))
    return stream


_GENERATORS = {"query-mix": query_mix, "class-suites": class_suites, "order-sweep": order_sweep}


def requests_for(workload: str, seed: int) -> list[dict]:
    """The request list of one pass: the workload's multiset in seeded order."""
    stream = _GENERATORS[workload]()
    random.Random(seed).shuffle(stream)
    return stream


def stage(requests: list[dict], directory: Path) -> list[dict[str, str]]:
    """Write every distinct input object once; returns role -> path per request."""
    directory.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}
    paths = []
    for request in requests:
        roles = {}
        for role, obj in request["inputs"].items():
            text = json.dumps(obj, sort_keys=True)
            path = written.get(text)
            if path is None:
                path = str(directory / f"in{len(written)}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                written[text] = path
            roles[role] = path
        paths.append(roles)
    return paths
