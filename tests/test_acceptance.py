"""Acceptance gate: eight end-to-end criteria at desk scale.

Each test prints one PASS/FAIL line.  Budgets and regression values are
pinned; a red criterion here means the workbench does not meet its
contract, not that the tolerances need loosening.
"""
from __future__ import annotations

import time
from itertools import permutations, product

from ramsey_ba import (
    ClassKind,
    OUT,
    arrows,
    canonical_order,
    construct_witness,
    count_proper_orders,
    dual_ramsey_oracle,
    enumerate_algebras,
    enumerate_embeddings,
    enumerate_maximal_chains,
    enumerate_proper_orders,
    is_proper,
    lift,
    make_algebra,
    ordered_isomorphic,
    phi,
    phi_inverse,
    recheck_bad_coloring,
    reduct,
    signature_json,
    star,
)
from ramsey_ba.chains import chains_extending, filter_family
from ramsey_ba.cli import RunConfig, run
from ramsey_ba.fraisse import check_ap, check_hp
from ramsey_ba.ramsey import _arrows, _searched
from ramsey_ba.serialize import format_io
from .oracles import brute_arrows, brute_proper_orders

HP_BUDGET = 60.0
AP_BUDGET = 300.0
ORACLE_BUDGET = 600.0
CHAINS_BUDGET = 60.0


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_hereditary_property():
    start = time.monotonic()
    instances = 0
    violations = []
    for kind in ClassKind:
        for t in (0, 1, 2):
            sweep = check_hp(kind, 5, t)
            instances += sweep["instances"]
            violations.extend(sweep["violations"])
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < HP_BUDGET
    report(
        1,
        "hereditary property",
        ok,
        f"3 kinds x t<=2, n<=5: {instances} subalgebras, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations
    assert elapsed < HP_BUDGET


def test_criterion_2_amalgamation_property():
    start = time.monotonic()
    expected = {
        ("bj", 0): 137,
        ("bj", 1): 885,
        ("bj", 2): 3305,
        ("bu", 0): 0,
        ("bu", 1): 137,
        ("bu", 2): 0,
        ("bju", 0): 1,
        ("bju", 1): 137,
        ("bju", 2): 885,
    }
    counts = {}
    violations = []
    for kind in ClassKind:
        for t in (0, 1, 2):
            sweep = check_ap(kind, 4, t, max_a_atoms=2)
            counts[(kind.value, t)] = sweep["instances"]
            violations.extend(sweep["violations"])
    elapsed = time.monotonic() - start
    ok = not violations and counts == expected and elapsed < AP_BUDGET
    report(
        2,
        "amalgamation property",
        ok,
        f"n_A<=2, n_B,n_C<=4, t<=2: {sum(counts.values())} squares, "
        f"{len(violations)} failures, {elapsed:.1f}s",
    )
    assert not violations
    assert counts == expected
    assert elapsed < AP_BUDGET


def test_criterion_3_order_forgetfulness():
    orders_checked = 0
    mismatches = 0
    for t in (0, 1, 2):
        for algebra in enumerate_algebras(6, t):
            proper = list(enumerate_proper_orders(algebra))
            brute = brute_proper_orders(algebra)
            if sorted(proper) != sorted(brute):
                mismatches += 1
            if len(proper) != count_proper_orders(algebra):
                mismatches += 1
            orders_checked += len(proper)
            # Equal level readings define ordered isomorphism, so one reading
            # decides every pair; each order is also checked against canonical.
            readings = {tuple(algebra.levels[a] for a in o) for o in proper}
            if len(readings) != 1:
                mismatches += 1
            canonical = canonical_order(algebra)
            for o in proper:
                if not ordered_isomorphic(algebra, canonical, algebra, o):
                    mismatches += 1
    ok = mismatches == 0
    report(
        3,
        "order forgetfulness",
        ok,
        f"n<=6, t<=2: {orders_checked} proper orders vs full permutation "
        f"brute force, {mismatches} mismatches",
    )
    assert ok


def test_criterion_4_arrow_sanity():
    reflexive = 0
    negative = 0
    agreement = 0
    failures = []
    for t in (0, 1, 2):
        smalls = list(enumerate_algebras(4, t))
        for a, c in product(smalls, repeat=2):
            embeds = bool(enumerate_embeddings(a, c, "ordered"))
            for k in (2, 3):
                if arrows(c, a, a, k).verdict != ("holds" if embeds else "fails"):
                    failures.append(("reflexive", t, signature_json(c), k))
                reflexive += 1
    for t in (0, 1, 2):
        for a in enumerate_algebras(3, t):
            for b in enumerate_algebras(4, t):
                if len(enumerate_embeddings(a, b, "ordered")) < 2:
                    continue
                for k in (2, 3):
                    cert = arrows(b, b, a, k)
                    sound = (
                        cert.verdict == "fails"
                        and not cert.vacuous
                        and recheck_bad_coloring(b, b, a, k, cert.bad_coloring)
                    )
                    if not sound:
                        failures.append(("negative", t, signature_json(b), k))
                    negative += 1
    for t in (0, 1, 2):
        for a in enumerate_algebras(2, t):
            for b in enumerate_algebras(3, t):
                for c in enumerate_algebras(4, t):
                    if len(enumerate_embeddings(a, c, "ordered")) > 12:
                        continue
                    for k in (2, 3):
                        cert = arrows(c, b, a, k)
                        if (cert.verdict == "holds") != brute_arrows(c, b, a, k):
                            failures.append(("brute", t, signature_json(c), k))
                        agreement += 1
    ok = not failures
    report(
        4,
        "arrow sanity",
        ok,
        f"{reflexive} reflexive + {negative} negative controls + "
        f"{agreement} brute-force comparisons, {len(failures)} disagreements",
    )
    assert not failures


def test_criterion_5_dual_ramsey_base_case():
    start = time.monotonic()
    ar = make_algebra([OUT, OUT], 0)
    br = make_algebra([OUT] * 3, 0)
    first = dual_ramsey_oracle(ar, br, 2, 8)
    first_text = format_io({"witness": first, "certificate": arrows(first, br, ar, 2)})
    _arrows.cache_clear()
    _searched.clear()
    second = dual_ramsey_oracle(ar, br, 2, 8)
    second_text = format_io({"witness": second, "certificate": arrows(second, br, ar, 2)})
    elapsed = time.monotonic() - start
    ok = (
        first.n_atoms == 6
        and first == second
        and first_text == second_text == DUAL_RAMSEY_BASE_CASE
        and elapsed < ORACLE_BUDGET
    )
    report(
        5,
        "dual Ramsey base case",
        ok,
        f"2-atom into 3-atom, 2 colors: witness size {first.n_atoms} "
        f"(regression value 6), reruns byte-identical: "
        f"{first_text == second_text}, {elapsed:.1f}s",
    )
    assert first.n_atoms == 6
    assert first_text == second_text == DUAL_RAMSEY_BASE_CASE
    assert elapsed < ORACLE_BUDGET


DUAL_RAMSEY_BASE_CASE = """\
{
  "certificate": {
    "bad_coloring": null,
    "stats": {
      "a_copies": 31,
      "b_copies": 90,
      "nodes": 51
    },
    "vacuous": false,
    "verdict": "holds"
  },
  "witness": {
    "chain_length": 0,
    "levels": [
      "out",
      "out",
      "out",
      "out",
      "out",
      "out"
    ]
  }
}
"""


def test_criterion_6_witness_construction():
    a_bu = make_algebra([0, OUT], 1)
    b_bu = make_algebra([0, 0, OUT], 1)
    c_bu, cert_bu = construct_witness(ClassKind.BU, a_bu, b_bu, 2, 8)
    base = dual_ramsey_oracle(reduct(a_bu), reduct(b_bu), 2, 8)
    shape_ok = c_bu == star(lift(base, 0, 1), make_algebra([OUT], 1))

    a_bj = make_algebra([0, OUT], 2)
    b_bj = make_algebra([0, 1, OUT], 2)
    c_bj, cert_bj = construct_witness(ClassKind.BJ, a_bj, b_bj, 2, 8)

    # minimal occupied level of B unused by A: the assembly leans on the
    # everything-absorbed composition case
    a_gap = make_algebra([1, OUT], 2)
    c_gap, cert_gap = construct_witness(ClassKind.BJ, a_gap, b_bj, 2, 8)

    ok = (
        shape_ok
        and cert_bu.verdict == "holds"
        and signature_json(c_bu) == [0, 0, 0, 0, 0, 0, "out"]
        and cert_bj.verdict == "holds"
        and signature_json(c_bj) == [0, 0, 0, 0, 0, 0, 1, 1, "out"]
        and cert_gap.verdict == "holds"
        and signature_json(c_gap) == [0, 0, 0, 0, 0, 0, 1, 1, "out"]
    )
    report(
        6,
        "witness construction",
        ok,
        f"one-out witness {signature_json(c_bu)} {cert_bu.verdict}; "
        f"two-level witness {signature_json(c_bj)} {cert_bj.verdict}; "
        f"gap instance {cert_gap.verdict}",
    )
    assert shape_ok
    assert cert_bu.verdict == "holds"
    assert cert_bj.verdict == "holds"
    assert cert_gap.verdict == "holds"


def test_criterion_7_chain_correspondence():
    start = time.monotonic()
    mismatches = 0
    for n in range(1, 7):
        chains = enumerate_maximal_chains(n)
        pure = make_algebra([OUT] * n, 0)
        count_ok = len(chains) == len(list(permutations(range(n))))
        if not count_ok:
            mismatches += 1
        for chain in chains:
            if phi_inverse(phi(chain, pure)) != chain:
                mismatches += 1
        for ord in permutations(range(n)):
            if phi(phi_inverse(ord), pure) != ord:
                mismatches += 1
    algebras_checked = 0
    for t in (0, 1, 2):
        for algebra in enumerate_algebras(6, t):
            algebras_checked += 1
            family = filter_family(algebra)
            _, correspondence = chains_extending(algebra)
            if not correspondence["matched"]:
                mismatches += 1
            for chain in enumerate_maximal_chains(algebra.n_atoms):
                through = all(e in chain.sets for e in family)
                if through != is_proper(algebra, phi(chain, algebra)):
                    mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < CHAINS_BUDGET
    report(
        7,
        "chain correspondence",
        ok,
        f"n<=6 inverses and {algebras_checked} algebras both directions, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < CHAINS_BUDGET


def test_criterion_8_determinism(tmp_path):
    import json

    def stage(name, payload):
        target = tmp_path / name
        target.write_text(json.dumps(payload))
        return str(target)

    small = stage("small.json", {"chain_length": 1, "levels": [0, "out"]})
    mid = stage("mid.json", {"chain_length": 1, "levels": [0, 0, "out"]})
    one = stage("one.json", {"chain_length": 1, "levels": ["out"]})
    pure2 = stage("pure2.json", {"chain_length": 1, "levels": ["out", "out"]})
    all_to_one = stage("f.json", {"block_of": [0, 0], "ordered": True})

    configs = [
        RunConfig("validate", {"algebra": small}, kind=ClassKind.BJ),
        RunConfig("copies", {"small": small, "big": mid}),
        RunConfig("arrow", {"c": mid, "b": mid, "a": small}, k=2),
        RunConfig(
            "witness", {"a": small, "b": mid}, kind=ClassKind.BU,
            k=2, max_atoms=8, minimal=True,
        ),
        RunConfig(
            "amalgamate",
            {"a": one, "b": small, "c": pure2, "f": all_to_one, "g": all_to_one},
            kind=ClassKind.BJ,
        ),
        RunConfig("fraisse", {}, kind=ClassKind.BJ, max_atoms=3, chain_length=1),
        RunConfig("chains", {"algebra": mid}),
        RunConfig("forgetful", {}, max_atoms=4, chain_length=1),
    ]
    unstable = []
    for config in configs:
        outputs = set()
        for workers in (1, 4):
            for _ in range(2):
                _arrows.cache_clear()
                _searched.clear()
                reconfigured = RunConfig(
                    **{
                        **config.__dict__,
                        "workers": workers,
                    }
                )
                code, text = run(reconfigured)
                outputs.add((code, text))
        if len(outputs) != 1:
            unstable.append(config.subcommand)
    ok = not unstable
    report(
        8,
        "determinism",
        ok,
        f"{len(configs)} subcommands x workers in {{1,4}} x 2 runs, "
        f"unstable: {unstable or 'none'}",
    )
    assert not unstable
