"""Correctness gate: pinned outcomes plus definitional re-checks.

Every response is reduced to a small summary (exit code, verdict, witness
signature, copy count, instance counts, violation counts) and compared with
the outcome pinned in expected.json.  Search node counts and the bad
colorings themselves are not pinned, since a correct search may find a
different coloring; instead every failing certificate and every copy list is
re-validated here by scanning block maps directly against the definition of
an embedding.  Nothing in this module imports the program.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

from workloads import signatures

EXPECTED = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(subcommand: str, report: dict) -> dict:
    """The pinned part of a report."""
    if "error" in report:
        return {"error": report["error"]["type"]}
    if subcommand == "arrow":
        cert = report["certificate"]
        return {
            "verdict": cert["verdict"],
            "vacuous": cert["vacuous"],
            "a_copies": cert["stats"]["a_copies"],
            "b_copies": cert["stats"]["b_copies"],
        }
    if subcommand == "witness":
        built = report["constructed"]
        summary = {
            "witness": None if built is None else built["witness"]["levels"],
            "verdict": None if built is None else built["certificate"]["verdict"],
        }
        if "minimal" in report:
            found = report["minimal"]
            summary["minimal"] = None if found is None else found["witness"]["levels"]
        return summary
    if subcommand == "copies":
        return {"count": report["count"]}
    if subcommand == "amalgamate":
        result = report["result"]
        return {"d_atoms": None if result is None else len(result["d"]["levels"])}
    if subcommand == "validate":
        return {"member": report["member"]}
    if subcommand == "chains":
        c = report["correspondence"]
        return {
            key: c[key]
            for key in ("total_chains", "extending_chains", "proper_orders", "matched")
        }
    if subcommand == "fraisse":
        summary = {}
        for suite, count in (("hp", "algebras"), ("ap", "base_algebras")):
            if suite in report:
                part = report[suite]
                summary[suite] = {
                    count: part[count],
                    "instances": part["instances"],
                    "violations": len(part["violations"]),
                }
        return summary
    if subcommand == "forgetful":
        sweep = report["sweep"]
        return {
            "algebras_checked": sweep["algebras_checked"],
            "proper_orders_checked": sweep["proper_orders_checked"],
            "violations": len(sweep["violations"]),
        }
    raise ValueError(f"no summary for {subcommand!r}")


# ---------------------------------------------------------------------------
# definitional scans


def _key(level) -> tuple[int, int]:
    return (1, 0) if level == "out" else (0, level)


def block_maps(small: dict, big: dict, ordered: bool) -> list[tuple[int, ...]]:
    """Every block map of big onto small meeting the embedding conditions.

    A big atom may only join a block whose small atom has at least its level,
    since a block's level is its largest member's; every other condition is
    checked on the finished map.
    """
    sk = [_key(v) for v in small["levels"]]
    bk = [_key(v) for v in big["levels"]]
    k = len(sk)
    choices = [[i for i in range(k) if key <= sk[i]] for key in bk]
    found = []
    for block_of in itertools.product(*choices):
        top: list = [None] * k
        last = [-1] * k
        for b, i in enumerate(block_of):
            if top[i] is None or bk[b] > top[i]:
                top[i] = bk[b]
            last[i] = b
        if top != sk:
            continue
        if ordered and any(last[i] >= last[i + 1] for i in range(k - 1)):
            continue
        found.append(block_of)
    return found


def is_member(algebra: dict, kind: str) -> bool:
    outside = algebra["levels"].count("out")
    if kind == "bj":
        return outside >= 1
    if kind == "bu":
        return algebra["chain_length"] == 1 and outside == 1
    return outside == 1


def _run_lengths(levels: list) -> list[int]:
    return [len(list(group)) for _, group in itertools.groupby(levels)]


def _proper_orders(levels: list) -> int:
    return math.prod(math.factorial(r) for r in _run_lengths(levels))


def _signatures(max_atoms: int, chain_length: int):
    for n in range(1, max_atoms + 1):
        for levels in signatures(n, chain_length):
            yield {"chain_length": chain_length, "levels": levels}


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def _compose(outer: list[int], inner: list[int]) -> tuple[int, ...]:
    return tuple(inner[i] for i in outer)


def _check_arrow(request: dict, report: dict) -> list[str]:
    cert = report["certificate"]
    if cert["verdict"] != "fails":
        return []
    c, b, a = (request["inputs"][r] for r in ("c", "b", "a"))
    k = request["params"]["k"]
    coloring = {tuple(e["embedding"]): e["color"] for e in cert["bad_coloring"]}
    problems = []
    if len(coloring) != len(cert["bad_coloring"]):
        problems.append("bad coloring names an A-copy twice")
    if set(coloring) != set(block_maps(a, c, ordered=True)):
        problems.append("bad coloring does not cover exactly the ordered A-copies")
        return problems
    if any(not 0 <= color < k for color in coloring.values()):
        problems.append("bad coloring uses a color outside 0..k-1")
    inner = block_maps(a, b, ordered=True)
    for outer in block_maps(b, c, ordered=True):
        if len({coloring[_compose(outer, h)] for h in inner}) < 2:
            problems.append(f"B-copy {list(outer)} is monochromatic")
            break
    return problems


def _check_copies(request: dict, report: dict) -> list[str]:
    ordered = request["params"]["mode"] == "ordered"
    expected = set(block_maps(request["inputs"]["small"], request["inputs"]["big"], ordered))
    listed = [tuple(e["block_of"]) for e in report["embeddings"]]
    problems = []
    if len(listed) != len(set(listed)):
        problems.append("copies lists an embedding twice")
    if set(listed) != expected or report["count"] != len(expected):
        problems.append(f"copies lists {report['count']}, definition gives {len(expected)}")
    return problems


def _check_amalgamate(request: dict, report: dict) -> list[str]:
    result = report["result"]
    if result is None:
        return ["amalgamation failed"]
    ins = request["inputs"]
    d = result["d"]
    problems = []
    if not is_member(d, request["params"]["kind"]):
        problems.append("amalgam left the class")
    for name, side in (("r", ins["b"]), ("s", ins["c"])):
        if tuple(result[name]["block_of"]) not in set(block_maps(side, d, ordered=True)):
            problems.append(f"{name} is not an ordered embedding")
    if _compose(result["r"]["block_of"], ins["f"]["block_of"]) != _compose(
        result["s"]["block_of"], ins["g"]["block_of"]
    ):
        problems.append("amalgamation square does not commute")
    if len(d["levels"]) != len(ins["b"]["levels"]) + len(ins["c"]["levels"]) - len(ins["a"]["levels"]):
        problems.append("amalgam has the wrong atom count")
    return problems


def _check_witness(request: dict, report: dict) -> list[str]:
    kind = request["params"]["kind"]
    problems = []
    built = report["constructed"]
    if built is None or built["certificate"]["verdict"] != "holds":
        problems.append("no verified witness")
    elif not is_member(built["witness"], kind):
        problems.append("witness left the class")
    found = report.get("minimal")
    if found is not None:
        if not is_member(found["witness"], kind) or found["size"] != len(found["witness"]["levels"]):
            problems.append("minimal witness is not a sized class member")
    return problems


def _check_chains(request: dict, report: dict) -> list[str]:
    levels = request["inputs"]["algebra"]["levels"]
    c = report["correspondence"]
    proper = _proper_orders(levels)
    want = {
        "total_chains": math.factorial(len(levels)),
        "extending_chains": proper,
        "proper_orders": proper,
        "matched": True,
    }
    bad = [key for key, value in want.items() if c[key] != value]
    if len(report["extending"]) != proper:
        bad.append("extending list")
    return [f"chains {key} disagrees with the definition" for key in bad]


def _check_fraisse(request: dict, report: dict) -> list[str]:
    p = request["params"]
    members = [
        s
        for s in _signatures(p["max_atoms"], p["chain_length"])
        if is_member(s, p["kind"])
    ]
    problems = []
    if "hp" in report:
        hp = report["hp"]
        if hp["violations"]:
            problems.append("hereditary suite reports violations")
        if hp["algebras"] != len(members):
            problems.append("hereditary suite algebra count disagrees")
        if hp["instances"] != sum(_bell(len(s["levels"])) for s in members):
            problems.append("hereditary suite instance count is not the Bell sum")
    if "ap" in report:
        ap = report["ap"]
        if ap["violations"]:
            problems.append("amalgamation suite reports violations")
        if ap["base_algebras"] != len(members):
            problems.append("amalgamation suite base count disagrees")
    return problems


def _check_forgetful(request: dict, report: dict) -> list[str]:
    p = request["params"]
    algebras = list(_signatures(p["max_atoms"], p["chain_length"]))
    sweep = report["sweep"]
    problems = []
    if sweep["violations"]:
        problems.append("forgetfulness sweep reports violations")
    if sweep["algebras_checked"] != len(algebras):
        problems.append("forgetfulness algebra count disagrees")
    if sweep["proper_orders_checked"] != sum(_proper_orders(s["levels"]) for s in algebras):
        problems.append("forgetfulness order count disagrees")
    return problems


def _check_validate(request: dict, report: dict) -> list[str]:
    if report["member"] != is_member(request["inputs"]["algebra"], request["params"]["kind"]):
        return ["validate disagrees with the class definition"]
    return []


_DEEP = {
    "arrow": _check_arrow,
    "copies": _check_copies,
    "amalgamate": _check_amalgamate,
    "witness": _check_witness,
    "chains": _check_chains,
    "fraisse": _check_fraisse,
    "forgetful": _check_forgetful,
    "validate": _check_validate,
}


def check_response(request: dict, code, text: str, expected: dict | None, deep: bool) -> list[str]:
    """Problems with one response; an empty list means it is correct."""
    if code is None:
        return [f"raised {text}"]
    if expected is None:
        return ["no pinned outcome for this request"]
    problems = []
    if code != expected["code"]:
        problems.append(f"exit code {code}, pinned {expected['code']}")
    try:
        report = json.loads(text)
        summary = summarize(request["subcommand"], report)
        if summary != expected["summary"]:
            problems.append(f"summary {summary} differs from pinned {expected['summary']}")
        if deep and not problems:
            problems.extend(_DEEP[request["subcommand"]](request, report))
    except (KeyError, TypeError, ValueError) as bad:  # ValueError covers bad JSON
        problems.append(f"malformed report: {type(bad).__name__}: {bad}")
    return problems
