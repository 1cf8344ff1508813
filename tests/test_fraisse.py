"""Hereditary property, joint embedding, and amalgamation."""
from __future__ import annotations

import os
import time
from itertools import product

import pytest

from ramsey_ba import (
    AmalgamationFailed,
    ClassKind,
    Embedding,
    NotAnEmbedding,
    NotInClass,
    OUT,
    amalgamate,
    atom_partitions,
    check_ap,
    check_hp,
    class_membership,
    compose,
    element,
    enumerate_algebras,
    enumerate_embeddings,
    generated_subalgebra,
    identity_embedding,
    joint_embed,
    make_algebra,
    signature_json,
)

from ramsey_ba import fraisse

from .oracles import reference_amalgamate
from .test_parallel import forks, no_child_is_left  # noqa: F401 (a fixture)


def unique_embedding(small, big):
    found = enumerate_embeddings(small, big, "ordered")
    assert len(found) == 1
    return found[0]


def test_amalgamate_worked_example():
    a = make_algebra([OUT], 1)
    b = make_algebra([0, OUT], 1)
    c = make_algebra([OUT, OUT], 1)
    res = amalgamate(
        ClassKind.BJ, a, b, c, unique_embedding(a, b), unique_embedding(a, c)
    )
    assert signature_json(res.d) == [0, "out", "out"]
    assert res.r.block_of == (0, 1, 1)
    assert res.s.block_of == (0, 0, 1)
    assert res.identified == ((1, 1),)
    # the composites agree and send the A-atom to the top
    assert compose(res.r, unique_embedding(a, b)).block_of == (0, 0, 0)


def test_amalgamate_degenerate_identity():
    for t in (1, 2):
        for a in enumerate_algebras(3, t, ClassKind.BJ):
            e = identity_embedding(a)
            res = amalgamate(ClassKind.BJ, a, a, a, e, e)
            assert res.d == a and res.r == e and res.s == e


def test_amalgamate_rejects_bad_inputs():
    a = make_algebra([OUT], 2)
    b = make_algebra([0, OUT], 2)
    f = unique_embedding(a, b)
    with pytest.raises(NotInClass):
        amalgamate(ClassKind.BU, a, b, b, f, f)  # BU forces t = 1
    with pytest.raises(NotAnEmbedding):
        plain = Embedding(small=a, big=b, block_of=f.block_of, ordered=False)
        amalgamate(ClassKind.BJ, a, b, b, plain, f)
    with pytest.raises(NotAnEmbedding):
        amalgamate(ClassKind.BJ, a, b, b, f, identity_embedding(b))


def test_absorption_regression():
    # second embedding of A reverses the roles of the outside atoms in B;
    # absorption must route the loose atom into the matching stage, not
    # merely the nearest later image atom
    a = make_algebra([OUT, OUT], 1)
    b = make_algebra([0, OUT, OUT], 1)
    f = Embedding(small=a, big=b, block_of=(1, 0, 1), ordered=True)
    g = identity_embedding(a)
    res = amalgamate(ClassKind.BJ, a, b, a, f, g)
    assert signature_json(res.d) == [0, "out", "out"]
    assert res.r.block_of == (0, 1, 2)
    assert res.s.block_of == (1, 0, 1)
    assert res.identified == ((1, 0), (2, 1))


def test_amalgamate_deterministic():
    a = make_algebra([OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    c = make_algebra([0, OUT, OUT], 1)
    f, g = unique_embedding(a, b), unique_embedding(a, c)
    first = amalgamate(ClassKind.BJ, a, b, c, f, g)
    second = amalgamate(ClassKind.BJ, a, b, c, f, g)
    assert first == second


def test_amalgamate_sweep_small():
    # every ordered pair over every base amalgamates, and the postconditions
    # amalgamate itself re-checks did hold (no AmalgamationFailed)
    for t in (1, 2):
        algebras = list(enumerate_algebras(3, t, ClassKind.BJ))
        for a in enumerate_algebras(2, t, ClassKind.BJ):
            for b, c in product(algebras, repeat=2):
                for f in enumerate_embeddings(a, b, "ordered"):
                    for g in enumerate_embeddings(a, c, "ordered"):
                        res = amalgamate(ClassKind.BJ, a, b, c, f, g)
                        assert res.d.n_atoms == b.n_atoms + c.n_atoms - a.n_atoms


def test_joint_embed_two_copies():
    b = make_algebra([0, OUT], 1)
    res = joint_embed(ClassKind.BJ, b, b)
    assert res.d.n_atoms == 3
    assert res.r.block_of != res.s.block_of
    copies = enumerate_embeddings(b, res.d, "ordered")
    assert res.r in copies and res.s in copies


def test_joint_embed_two_element_side_is_neutral():
    b = make_algebra([OUT], 1)
    for c in enumerate_algebras(3, 1, ClassKind.BJ):
        res = joint_embed(ClassKind.BJ, b, c)
        assert res.d == c
        assert res.s == identity_embedding(c)
        assert res.r.block_of == (0,) * c.n_atoms


def test_joint_embed_size_invariant():
    for kind, t in ((ClassKind.BJ, 2), (ClassKind.BU, 1), (ClassKind.BJU, 2)):
        algebras = list(enumerate_algebras(3, t, kind))
        for b, c in product(algebras, repeat=2):
            res = joint_embed(kind, b, c)
            assert res.d.n_atoms == b.n_atoms + c.n_atoms - 1


def test_check_hp_no_violations():
    report = check_hp(ClassKind.BJ, 4, 2)
    assert report["violations"] == []
    assert report["instances"] == 187
    report = check_hp(ClassKind.BU, 4, 1)
    assert report["violations"] == []
    assert report["instances"] == 23


def test_hp_suite_checks_each_subalgebra_embedding(monkeypatch):
    # a block map naming a small atom the subalgebra lacks: the subalgebra
    # itself stays in the class, so only the per-instance check sees it
    real = fraisse.generated_subalgebra

    def wrong(algebra, gens):
        sub, _ = real(algebra, gens)
        return sub, Embedding(sub, algebra, (sub.n_atoms,) * algebra.n_atoms, True)

    monkeypatch.setattr(fraisse, "generated_subalgebra", wrong)
    with pytest.raises(NotAnEmbedding, match="nonexistent small atom"):
        check_hp(ClassKind.BJ, 2, 0, workers=1)


def test_hp_subalgebras_of_bu_members_keep_one_outside_atom():
    for algebra in enumerate_algebras(4, 1, ClassKind.BU):
        for blocks in atom_partitions(algebra.n_atoms):
            gens = [element(algebra, block) for block in blocks]
            sub, _ = generated_subalgebra(algebra, gens)
            assert sum(1 for l in sub.levels if l is OUT) == 1


def test_two_element_subalgebra_is_single_outside_atom():
    for kind, t in ((ClassKind.BJ, 2), (ClassKind.BU, 1), (ClassKind.BJU, 2)):
        for algebra in enumerate_algebras(3, t, kind):
            sub, emb = generated_subalgebra(algebra, [])
            assert signature_json(sub) == ["out"]
            assert emb.block_of == (0,) * algebra.n_atoms


def test_check_ap_no_violations_and_instance_count():
    report = check_ap(ClassKind.BJ, 3, 1)
    assert report["violations"] == []
    algebras = list(enumerate_algebras(3, 1, ClassKind.BJ))
    expected = sum(
        len(enumerate_embeddings(a, b, "ordered"))
        * len(enumerate_embeddings(a, c, "ordered"))
        for a in algebras
        for b, c in product(algebras, repeat=2)
        if b.n_atoms >= a.n_atoms and c.n_atoms >= a.n_atoms
    )
    assert report["instances"] == expected


def test_check_ap_bju_small():
    report = check_ap(ClassKind.BJU, 3, 2)
    assert report["violations"] == []
    assert report["instances"] > 0


def test_suites_worker_count_invariant():
    assert check_hp(ClassKind.BJ, 3, 1, workers=2) == check_hp(
        ClassKind.BJ, 3, 1, workers=1
    )
    for n in (3, 4):
        assert check_ap(ClassKind.BJ, n, 1, workers=2) == check_ap(
            ClassKind.BJ, n, 1, workers=1
        )
    for check in (check_hp, check_ap):
        assert check(ClassKind.BJU, 3, 2, workers=2) == check(ClassKind.BJU, 3, 2, workers=1)


def test_ap_violation_order_survives_the_cuts(monkeypatch):
    # reject every amalgam with three atoms at level 0: violations come from
    # many bases, and from each run of every base a two- or three-way cut
    # splits.  Forked children inherit the patch.
    definition = fraisse.class_membership
    monkeypatch.setattr(
        fraisse,
        "class_membership",
        lambda d, kind: d.levels.count(0) != 3 and definition(d, kind),
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cuts = []  # per check_ap call: the runs of each shard
    real = fraisse.ordered_map
    monkeypatch.setattr(
        fraisse,
        "ordered_map",
        lambda fn, shards, workers: cuts.append([r for _, r in shards]) or real(fn, shards, workers),
    )
    report = check_ap(ClassKind.BJ, 5, 1, workers=1)
    assert report["instances"] == 15856
    assert len({str(v["a"]) for v in report["violations"]}) > 2
    [whole] = cuts[0]  # one worker, one shard
    b_sides = [(run[0], i) for run in whole for i in range(run[2], run[3])]
    for workers in (2, 3):
        assert check_ap(ClassKind.BJ, 5, 1, workers=workers) == report
        assert len(cuts[-1]) == workers
        runs = [run for shard in cuts[-1] for run in shard]
        # the cut keeps every (A, B-side) once, in order
        assert [(run[0], i) for run in runs for i in range(run[2], run[3])] == b_sides
        split = [run for run in runs if sum(other[0] is run[0] for other in runs) > 1]
        assert split
        for run in split:
            assert fraisse._ap_shard((ClassKind.BJ, [run]))


@pytest.mark.parametrize("workers", [1, 2])
def test_ap_suite_enumerates_copies_once_in_the_caller(monkeypatch, forks, workers):
    # the caller lists each base's copies in each host once, over one host
    # list; no shard, in the caller or in a child, enumerates hosts or copies
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller = os.getpid()
    calls = []

    def spy(name):
        real = getattr(fraisse, name)

        def spied(*args):
            assert os.getpid() == caller, f"a child called {name}"
            calls.append((name, *args))
            return real(*args)

        monkeypatch.setattr(fraisse, name, spied)

    spy("_sorted_block_maps")
    spy("enumerate_algebras")
    report = check_ap(ClassKind.BJ, 4, 1, workers=workers)
    copy_calls = [call for call in calls if call[0] == "_sorted_block_maps"]
    assert len(calls) - len(copy_calls) == 2  # the bases and the hosts
    bases = hosts = len(list(enumerate_algebras(4, 1, ClassKind.BJ)))
    assert len(copy_calls) == len(set(copy_calls)) == bases * hosts == 100
    assert report["instances"] == 1134
    assert len(forks) == workers - 1
    assert no_child_is_left()


def test_ap_suites_with_one_pair_or_none_fork_nothing(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    one = check_ap(ClassKind.BU, 1, 1, workers=2)
    assert (one["base_algebras"], one["instances"], one["violations"]) == (1, 1, [])
    empty = check_ap(ClassKind.BU, 3, 0, workers=2)
    assert (empty["base_algebras"], empty["instances"], empty["violations"]) == (0, 0, [])
    assert forks == []


def ap_instances(kind, max_atoms, t):
    """Every (A, B, C, f, g) that check_ap(kind, max_atoms, t) amalgamates."""
    for a in enumerate_algebras(max_atoms, t, kind):
        copies = [
            (host, enumerate_embeddings(a, host, "ordered"))
            for host in enumerate_algebras(max_atoms, t, kind)
            if host.n_atoms >= a.n_atoms
        ]
        for b, fs in copies:
            for c, gs in copies:
                for f in fs:
                    for g in gs:
                        yield kind, a, b, c, f, g


# the check_ap suites of the differential tests, with their instance counts
REFERENCE_SUITES = [
    (
        [(kind, 4, t) for kind in (ClassKind.BJ, ClassKind.BJU) for t in (0, 1, 2)]
        + [(ClassKind.BU, 4, 1)],
        6881,
    ),
    ([(ClassKind.BJ, 5, 1)], 15856),
]


@pytest.mark.parametrize("suites, expected", REFERENCE_SUITES)
def test_amalgamate_matches_reference(suites, expected):
    instances = reported = 0
    for suite in suites:
        report = check_ap(*suite)
        assert report["violations"] == []
        reported += report["instances"]
        for kind, a, b, c, f, g in ap_instances(*suite):
            instances += 1
            res = amalgamate(kind, a, b, c, f, g)
            d, r, s, identified = reference_amalgamate(a, b, c, f, g)
            assert (res.d, res.r, res.s, res.identified) == (d, r, s, identified)
    assert instances == reported == expected


@pytest.mark.parametrize("suites, expected", REFERENCE_SUITES)
def test_interned_amalgams_match_reference(suites, expected):
    # the suite's path: _side data and one interning dict shared by every
    # pair of a suite, as a shard shares one over its pairs
    instances = 0
    for suite in suites:
        amalgams: dict = {}
        for kind, a, b, c, f, g in ap_instances(*suite):
            instances += 1
            sides = fraisse._side(f.block_of, a, b), fraisse._side(g.block_of, a, c)
            got = fraisse._amalgamate_sides(kind, a, *sides, amalgams)
            d, r, s, identified = reference_amalgamate(a, b, c, f, g)
            assert got == (d, r.block_of, s.block_of, identified)
        assert len(amalgams) < instances
    assert instances == expected


def test_ap_suite_builds_each_amalgam_once_per_level_tuple(monkeypatch):
    # D's levels are B's levels and C's loose ones, sorted; make_algebra
    # runs once per distinct such tuple within each base's shard
    built = []
    real = fraisse.make_algebra
    monkeypatch.setattr(
        fraisse, "make_algebra", lambda levels, t: built.append(tuple(levels)) or real(levels, t)
    )
    report = check_ap(ClassKind.BJ, 5, 1, workers=1)
    expected = []
    for a in enumerate_algebras(5, 1, ClassKind.BJ):
        copies = [
            f for host in enumerate_algebras(5, 1, ClassKind.BJ)
            for f in enumerate_embeddings(a, host, "ordered")
        ]
        tuples = set()
        for f, g in product(copies, repeat=2):
            maxima = {max(block) for block in g.blocks()}
            loose = [level for x, level in enumerate(g.big.levels) if x not in maxima]
            tuples.add(tuple(sorted(f.big.levels + tuple(loose))))
        expected += sorted(tuples)
    assert sorted(built) == sorted(expected)
    assert len(built) == len(expected) < report["instances"] == 15856


def test_check_ap_long_chain_within_budget():
    # members are built rather than filtered, so the bases times hosts
    # left here stay small; filtering every signature took over 15 s
    started = time.perf_counter()
    report = check_ap(ClassKind.BJ, 2, 200)
    assert time.perf_counter() - started < 5
    assert report["violations"] == []
    assert report["instances"] == 41005


def test_check_ap_lists_violations_by_copy_pairs(monkeypatch):
    # reject every 4-atom amalgam; with 3 atoms a host holds several copies
    # of A.  At one worker the suite runs in-process as one shard.
    definition = fraisse.class_membership
    monkeypatch.setattr(
        fraisse,
        "class_membership",
        lambda d, kind: d.n_atoms != 4 and definition(d, kind),
    )
    report = check_ap(ClassKind.BJ, 3, 1, workers=1)
    algebras = list(enumerate_algebras(3, 1, ClassKind.BJ))
    expected = []
    for a in algebras:
        copies = [f for b in algebras for f in enumerate_embeddings(a, b, "ordered")]
        for f, g in product(copies, repeat=2):
            if f.big.n_atoms + g.big.n_atoms - a.n_atoms == 4:
                expected.append(
                    (
                        signature_json(a),
                        signature_json(f.big),
                        signature_json(g.big),
                        list(f.block_of),
                        list(g.block_of),
                    )
                )
    got = [(v["a"], v["b"], v["c"], v["f"], v["g"]) for v in report["violations"]]
    assert got == expected
    assert (len(got), report["instances"]) == (53, 100)


def _shifted(side: tuple, k: int) -> tuple:
    """The _side data with every block of its block map moved up one, mod k."""
    host, block_of, *keys = side
    return (host, tuple((i + 1) % k for i in block_of), *keys)


def _doubled(side: tuple) -> tuple:
    """The _side data with its first loose atom listed twice on the C side."""
    *data, loose_c = side
    return (*data, sorted(loose_c + loose_c[:1]))


FREE = {n: make_algebra([OUT] * n, 0) for n in (1, 2, 3)}
POSTCONDITION_FAULTS = {
    # r is checked first; the shifted B map sends a C atom to no B atom
    "r": (
        ClassKind.BJ, FREE[2],
        _shifted(fraisse._side((0, 1), FREE[2], FREE[2]), 2),
        fraisse._side((0, 1, 1), FREE[2], FREE[3]),
        NotAnEmbedding, "nonexistent small atom",
    ),
    # r is sound here, s is not
    "s": (
        ClassKind.BJ, FREE[2],
        _shifted(fraisse._side((0, 1, 1), FREE[2], FREE[3]), 2),
        fraisse._side((0, 1), FREE[2], FREE[2]),
        NotAnEmbedding, "nonexistent small atom",
    ),
    # r and s are embeddings onto an amalgam with one atom too many
    "atom count": (
        ClassKind.BJ, FREE[1],
        fraisse._side((0,), FREE[1], FREE[1]),
        _doubled(fraisse._side((0, 0), FREE[1], FREE[2])),
        AmalgamationFailed, "wrong atom count",
    ),
    # r and s are embeddings, but r after f and s after g swap the A-atoms
    "commute": (
        ClassKind.BJ, FREE[2],
        _shifted(fraisse._side((0, 1), FREE[2], FREE[2]), 2),
        fraisse._side((0, 1), FREE[2], FREE[2]),
        AmalgamationFailed, "does not commute",
    ),
    # two-outside-atom sides amalgamated as if they were in BU
    "class": (
        ClassKind.BU, make_algebra([OUT], 1),
        fraisse._side((0, 0), make_algebra([OUT], 1), make_algebra([OUT, OUT], 1)),
        fraisse._side((0, 0), make_algebra([OUT], 1), make_algebra([OUT, OUT], 1)),
        AmalgamationFailed, "left the class bu",
    ),
}


@pytest.mark.parametrize("fault", list(POSTCONDITION_FAULTS))
def test_amalgamation_postconditions_refuse_wrong_constructions(fault):
    kind, a, side_b, side_c, refusal, detail = POSTCONDITION_FAULTS[fault]
    with pytest.raises(refusal, match=detail):
        fraisse._amalgamate_sides(kind, a, side_b, side_c, {})
    # a failing map never enters D's set of checked maps, so a shard's
    # shared dict refuses the same pair again
    amalgams: dict = {}
    for _ in range(2):
        with pytest.raises(refusal, match=detail):
            fraisse._amalgamate_sides(kind, a, side_b, side_c, amalgams)


def test_ap_suite_checks_each_block_map_once_per_amalgam(monkeypatch):
    # each copy of A is checked once, and r and s once per distinct
    # (D's levels, host levels, block map) within a base's shard
    calls = []
    real = fraisse._check_block_map
    monkeypatch.setattr(
        fraisse, "_check_block_map", lambda *args: calls.append(args) or real(*args)
    )
    report = check_ap(ClassKind.BJ, 5, 1, workers=1)
    algebras = list(enumerate_algebras(5, 1, ClassKind.BJ))
    copies = sum(
        len(enumerate_embeddings(a, host, "ordered")) for a in algebras for host in algebras
    )
    triples: dict = {}
    for kind, a, b, c, f, g in ap_instances(ClassKind.BJ, 5, 1):
        d, r, s, _ = reference_amalgamate(a, b, c, f, g)
        triples.setdefault(a, set()).update(
            {(d.levels, b.levels, r.block_of), (d.levels, c.levels, s.block_of)}
        )
    distinct = sum(map(len, triples.values()))
    assert (copies, report["instances"]) == (340, 15856)
    assert len(calls) == copies + distinct == 7076 < copies + 2 * report["instances"]


def test_ap_suite_checks_each_copy(monkeypatch):
    # a copy one entry longer than its host: only the per-copy check sees it,
    # since r and s always have one entry per amalgam atom
    real = fraisse._sorted_block_maps
    monkeypatch.setattr(
        fraisse,
        "_sorted_block_maps",
        lambda a, host: [*real(a, host), (0,) * (host.n_atoms + 1)],
    )
    with pytest.raises(NotAnEmbedding, match="block map has 2 entries for 1 atoms"):
        check_ap(ClassKind.BJ, 2, 0, workers=1)
