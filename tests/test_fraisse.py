"""Hereditary property, joint embedding, and amalgamation."""
from __future__ import annotations

import os
import time
from itertools import product

import pytest

from ramsey_ba import (
    AmalgamationFailed,
    BoundExceeded,
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
from ramsey_ba.embed import _check_block_map, _partition_subalgebra, _translate_table

from .oracles import closure_blocks, reference_amalgamate
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


def test_amalgamate_sides_up_to_the_byte_bound():
    # 255 atoms name host atoms 0 .. 254 and leave 255 for "no atom yet";
    # the blocks of f put B's last atom alone, so r and s both reach atom 254
    assert fraisse.MAX_SIDE_ATOMS == 255
    a = make_algebra([OUT, OUT], 0)
    for n in (2, 3, 255):
        b = make_algebra([OUT] * n, 0)
        f = Embedding(a, b, (1,) * (n - 2) + (0, 1), True)
        res = amalgamate(ClassKind.BJ, a, b, b, f, f)
        assert (res.d, res.r, res.s, res.identified) == reference_amalgamate(a, b, b, f, f)
        assert max(res.r.block_of) == max(res.s.block_of) == n - 1
    big = make_algebra([OUT] * 256, 0)
    f256 = Embedding(a, big, (1,) * 254 + (0, 1), True)
    for sides in ((big, b, f256, f), (b, big, f, f256)):
        name = "B" if sides[0] is big else "C"
        with pytest.raises(BoundExceeded) as raised:
            amalgamate(ClassKind.BJ, a, *sides)
        assert str(raised.value) == f"amalgamation sides have at most 255 atoms; {name} has 256"


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


def test_hp_suite_forks_only_when_the_sweep_pays(monkeypatch, forks):
    # one worker per HP_PARTITIONS_PER_WORKER = 220 partitions: bj t = 1 has
    # 340 up to 5 atoms and bu t = 1 278 up to 6, which stay in the caller;
    # bj t = 1 has 1,558 up to 6 atoms and bj t = 2 967 up to 5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for n in range(1, 6):
        assert check_hp(ClassKind.BJ, n, 1, workers=2) == check_hp(ClassKind.BJ, n, 1)
    assert check_hp(ClassKind.BU, 6, 1, workers=2) == check_hp(ClassKind.BU, 6, 1)
    assert forks == []
    for suite, partitions in (((ClassKind.BJ, 6, 1), 1558), ((ClassKind.BJ, 5, 2), 967)):
        report = check_hp(*suite, workers=2)
        assert len(forks) == 1 and report == check_hp(*suite)
        algebras = list(enumerate_algebras(suite[1], suite[2], suite[0]))
        assert sum(fraisse._partition_count(algebra.n_atoms) for algebra in algebras) == partitions
        assert report["instances"] == partitions
        forks.clear()
    assert check_hp(ClassKind.BJ, 5, 1)["instances"] == 340
    assert check_hp(ClassKind.BU, 6, 1)["instances"] == 278
    assert no_child_is_left()


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
    real = fraisse._partition_subalgebra

    def wrong(algebra, blocks):
        sub, _ = real(algebra, blocks)
        return sub, (sub.n_atoms,) * algebra.n_atoms

    monkeypatch.setattr(fraisse, "_partition_subalgebra", wrong)
    with pytest.raises(NotAnEmbedding, match="nonexistent small atom"):
        check_hp(ClassKind.BJ, 2, 0, workers=1)


def test_partition_subalgebra_is_the_closure_of_its_blocks():
    # check_hp's covering argument: every partition is the atom set of the
    # subalgebra its blocks generate, which the derivation reads off directly
    partitions = 0
    for t in range(3):
        for algebra in enumerate_algebras(6, t):
            for blocks in atom_partitions(algebra.n_atoms):
                given = [list(block) for block in blocks]
                sub, block_of = _partition_subalgebra(algebra, blocks)
                assert blocks == given  # shared with other partitions: read only
                _check_block_map(block_of, sub, algebra, True)
                derived = [[] for _ in sub.atoms]
                for a, i in enumerate(block_of):
                    derived[i].append(a)
                want = closure_blocks(algebra, [element(algebra, b) for b in blocks])
                assert sorted(map(frozenset, derived), key=sorted) == want
                for i, block in enumerate(derived):
                    assert sub.levels[i] == max(algebra.levels[a] for a in block)
                partitions += 1
    assert partitions == 9180


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
    # the caller enumerates the class once and lists each base's copies once
    # in each host with at least its atom count; no shard, in the caller or
    # in a child, enumerates algebras or copies
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
    assert len(calls) - len(copy_calls) == 1  # the bases lead the hosts
    algebras = list(enumerate_algebras(4, 1, ClassKind.BJ))
    wanted = [(a, host) for a in algebras for host in algebras if host.n_atoms >= a.n_atoms]
    assert [call[1:] for call in copy_calls] == wanted
    assert len(wanted) == 65 < len(algebras) ** 2
    assert (report["base_algebras"], report["instances"]) == (10, 1134)
    assert len(forks) == workers - 1
    assert no_child_is_left()


def test_ap_suites_with_one_pair_or_none_fork_nothing(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    one = check_ap(ClassKind.BU, 1, 1, workers=2)
    assert (one["base_algebras"], one["instances"], one["violations"]) == (1, 1, [])
    empty = check_ap(ClassKind.BU, 3, 0, workers=2)
    assert (empty["base_algebras"], empty["instances"], empty["violations"]) == (0, 0, [])
    assert forks == []


@pytest.mark.parametrize("workers", [1, 2])
def test_ap_suite_refuses_past_its_pair_budget(monkeypatch, forks, workers):
    # bj t = 1 at 5 atoms has exactly 15,856 pairs: the budget admits them
    # all, and one pair less refuses the suite before any shard or fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    shards = []
    real = fraisse._ap_shard
    monkeypatch.setattr(fraisse, "_ap_shard", lambda args: shards.append(args) or real(args))
    monkeypatch.setattr(fraisse, "MAX_AP_PAIRS", 15856)
    report = check_ap(ClassKind.BJ, 5, 1, workers=workers)
    assert (report["instances"], report["violations"]) == (15856, [])
    assert len(forks) == workers - 1 and len(shards) == 1  # a child's call is not seen
    shards.clear()
    forks.clear()
    monkeypatch.setattr(fraisse, "MAX_AP_PAIRS", 15855)
    with pytest.raises(BoundExceeded, match="at most 15855 pairs"):
        check_ap(ClassKind.BJ, 5, 1, workers=workers)
    assert shards == forks == []
    assert no_child_is_left()


def test_ap_pair_budget_admits_the_default_suite(monkeypatch):
    # the RunConfig default, bj t = 1 at 6 atoms, is the largest suite the
    # tests, demos and benchmark run; bj t = 2 at 6 atoms is refused.  The
    # shards are skipped: the budget is settled before them.
    monkeypatch.setattr(fraisse, "ordered_map", lambda fn, shards, workers: [])
    assert check_ap(ClassKind.BJ, 6, 1)["instances"] == 273424
    with pytest.raises(BoundExceeded):
        check_ap(ClassKind.BJ, 6, 2)  # 1,629,628 pairs


def counted_hosts(monkeypatch) -> list:
    """Patch the suite's class enumeration to record every algebra it yields."""
    yielded = []
    real = fraisse.enumerate_algebras

    def counting(*args):
        for algebra in real(*args):
            yielded.append(algebra)
            yield algebra

    monkeypatch.setattr(fraisse, "enumerate_algebras", counting)
    return yielded


def test_ap_suite_refuses_too_many_hosts_before_listing_copies(monkeypatch):
    # the base [OUT] has one copy in each host, so 1,001 hosts make more than
    # 1,000,000 pairs: bj t = 40 at 5 atoms (148,995 members) is refused
    # after 1,001 of them, with no copy listed
    yielded = counted_hosts(monkeypatch)
    real = fraisse._sorted_block_maps
    listed = []
    monkeypatch.setattr(fraisse, "_sorted_block_maps", lambda *args: listed.append(args) or real(*args))
    with pytest.raises(BoundExceeded) as raised:
        check_ap(ClassKind.BJ, 5, 40)
    assert str(raised.value) == "the amalgamation suite checks at most 1000000 pairs; there are more"
    assert len(yielded) == 1001 and listed == []
    # a suite with no base lists no host at all, and is admitted
    report = check_ap(ClassKind.BJ, 5, 40, max_a_atoms=0)
    assert (report["base_algebras"], report["instances"]) == (0, 0)
    assert len(yielded) == 1001
    # bj t = 1 at 5 atoms has 15 hosts: a budget of 15^2 - 1 pairs refuses
    # them on the count, and of 15^2 pairs on the copies listed
    monkeypatch.setattr(fraisse, "MAX_AP_PAIRS", 224)
    yielded.clear()
    with pytest.raises(BoundExceeded, match="at most 224 pairs"):
        check_ap(ClassKind.BJ, 5, 1)
    assert len(yielded) == 15 and listed == []
    monkeypatch.setattr(fraisse, "MAX_AP_PAIRS", 225)
    yielded.clear()
    with pytest.raises(BoundExceeded, match="at most 225 pairs"):
        check_ap(ClassKind.BJ, 5, 1)
    assert len(yielded) == 15 and listed


def test_ap_suite_refuses_hosts_past_the_byte_bound(monkeypatch):
    # at the real bound: bj t = 0 has one host per atom count, and with one
    # base the 256 hosts make 65,536 pairs, within the pair budget
    yielded = counted_hosts(monkeypatch)
    real = fraisse._sorted_block_maps
    listed = []
    monkeypatch.setattr(fraisse, "_sorted_block_maps", lambda *args: listed.append(args) or real(*args))
    with pytest.raises(BoundExceeded) as raised:
        check_ap(ClassKind.BJ, 256, 0, max_a_atoms=1)
    assert str(raised.value) == "amalgamation sides have at most 255 atoms; the largest host has 256"
    assert len(yielded) == 256 and listed == []
    # at a lowered bound, which absorption's sentinel follows, the largest
    # hosts it admits give the same report
    report = check_ap(ClassKind.BJ, 4, 1)
    monkeypatch.setattr(fraisse, "MAX_SIDE_ATOMS", 4)
    assert check_ap(ClassKind.BJ, 4, 1) == report
    assert (report["instances"], report["violations"]) == (1134, [])
    with pytest.raises(BoundExceeded, match="at most 4 atoms; the largest host has 5"):
        check_ap(ClassKind.BJ, 5, 1)


def ap_copies(kind, max_atoms, t):
    """Per base A of check_ap(kind, max_atoms, t): A and its ordered copies,
    as (host, embedding) pairs in the suite's order."""
    for a in enumerate_algebras(max_atoms, t, kind):
        copies = [
            (host, f)
            for host in enumerate_algebras(max_atoms, t, kind)
            if host.n_atoms >= a.n_atoms
            for f in enumerate_embeddings(a, host, "ordered")
        ]
        yield a, copies


def ap_instances(kind, max_atoms, t):
    """Every (A, B, C, f, g) that check_ap(kind, max_atoms, t) amalgamates."""
    for a, copies in ap_copies(kind, max_atoms, t):
        for b, f in copies:
            for c, g in copies:
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
            # the kernel's maps are bytes; amalgamate's records carry tuples
            assert type(res.r.block_of) is type(res.s.block_of) is tuple
    assert instances == reported == expected


@pytest.mark.parametrize("suites, expected", REFERENCE_SUITES)
def test_interned_amalgams_match_reference(suites, expected):
    # the suite's path: one interning dict per base's run, and one
    # _amalgamate_run pass per B-side over all of its base's C-sides
    instances = interned = 0
    for kind, max_atoms, t in suites:
        for a, copies in ap_copies(kind, max_atoms, t):
            amalgams: dict = {}
            sides = [fraisse._side(f.block_of, a, host) for host, f in copies]
            for (b, f), side_b in zip(copies, sides):
                outcomes = fraisse._amalgamate_run(kind, a, side_b, sides, amalgams)
                assert len(outcomes) == len(copies)
                for (c, g), got in zip(copies, outcomes):
                    instances += 1
                    d, r, s, _ = reference_amalgamate(a, b, c, f, g)
                    assert got == (d, bytes(r.block_of), bytes(s.block_of))
                    assert type(got[1]) is type(got[2]) is bytes
            interned += len(amalgams)
    assert interned < instances == expected


# suites whose runs share keys across many sides, with the pairs they check:
# a side's tables answer for the keys of every other side of its run
TABLE_SUITES = [((ClassKind.BJ, 4, 3), 11035), ((ClassKind.BJU, 5, 2), 15856)]


@pytest.mark.parametrize("suite, expected", TABLE_SUITES)
def test_table_kernel_matches_reference_where_key_classes_repeat(suite, expected):
    # every run through the tables, however few its sides
    kind = suite[0]
    pairs = keys = distinct = 0
    for a, copies in ap_copies(*suite):
        amalgams: dict = {}
        sides = [fraisse._side(f.block_of, a, host) for host, f in copies]
        run_keys = [key for side in sides for key in side[4] + side[5]]
        keys, distinct = keys + len(run_keys), distinct + len(set(run_keys))
        rows = fraisse._run(sides)
        for (b, f), side_b, row_b in zip(copies, sides, rows):
            outcomes = fraisse._amalgamate_run(kind, a, side_b, sides, amalgams, row_b, rows)
            for (c, g), got in zip(copies, outcomes):
                pairs += 1
                d, r, s, _ = reference_amalgamate(a, b, c, f, g)
                assert got == (d, bytes(r.block_of), bytes(s.block_of))
    assert pairs == expected == check_ap(*suite)["instances"]
    assert 2 * distinct < keys  # most keys recur in other sides of their run


def test_ap_suite_absorbs_long_runs_by_tables_and_short_ones_pairwise(monkeypatch):
    # bj t = 1 n <= 4: bases with 1 to 23 copies; runs past AP_PAIRWISE_SIDES
    # B-sides build tables, and the report is the same either way
    runs = []
    real = fraisse._run
    monkeypatch.setattr(fraisse, "_run", lambda sides: runs.append(len(sides)) or real(sides))
    report = check_ap(ClassKind.BJ, 4, 1)
    copies = sorted(len(pairs) for _, pairs in ap_copies(ClassKind.BJ, 4, 1))
    assert copies == [1, 1, 1, 1, 8, 9, 10, 10, 16, 23]
    assert sorted(runs) == [m for m in copies if m > fraisse.AP_PAIRWISE_SIDES]
    for sides in (0, 1 << 30):  # every run by tables, every run pairwise
        monkeypatch.setattr(fraisse, "AP_PAIRWISE_SIDES", sides)
        assert check_ap(ClassKind.BJ, 4, 1) == report
        assert check_ap(ClassKind.BJ, 4, 1, workers=2) == report


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
    """The _side data with every block of its block map, and of its translate
    table, moved up one, mod k; the keys keep the A-blocks of the unshifted map."""
    host, block_of, maxima, _, *keys = side
    shifted = tuple((i + 1) % k for i in block_of)
    return (host, shifted, maxima, _translate_table(shifted), *keys)


def _misread(side: tuple, k: int) -> tuple:
    """The _side data with the A-block that each key carries moved up one,
    mod k; the block map is the unshifted one."""
    *data, keys_b, loose_c = side
    moved = [[(*key[:4], (key[4] + 1) % k) for key in keys] for keys in (keys_b, loose_c)]
    return (*data, *moved)


def _doubled(side: tuple) -> tuple:
    """The _side data with its first loose atom listed twice on the C side."""
    *data, loose_c = side
    return (*data, sorted(loose_c + loose_c[:1]))


FREE = {n: make_algebra([OUT] * n, 0) for n in (1, 2, 3)}
POSTCONDITION_FAULTS = {
    # r is checked first; B's misread A-blocks send a C atom to no B atom
    "r": (
        ClassKind.BJ, FREE[2],
        _misread(fraisse._side((0, 1), FREE[2], FREE[2]), 2),
        fraisse._side((0, 1, 1), FREE[2], FREE[3]),
        NotAnEmbedding, "nonexistent small atom",
    ),
    # r is sound here; s swaps C's block maxima
    "s": (
        ClassKind.BJ, FREE[2],
        _misread(fraisse._side((0, 1, 1), FREE[2], FREE[3]), 2),
        fraisse._side((0, 1), FREE[2], FREE[2]),
        NotAnEmbedding, "block maxima not increasing",
    ),
    # r and s are embeddings onto an amalgam with one atom too many
    "atom count": (
        ClassKind.BJ, FREE[1],
        fraisse._side((0,), FREE[1], FREE[1]),
        _doubled(fraisse._side((0, 0), FREE[1], FREE[2])),
        AmalgamationFailed, "amalgam has the wrong atom count",
    ),
    # r and s are embeddings, but r after f and s after g swap the A-atoms
    "commute": (
        ClassKind.BJ, FREE[2],
        _shifted(fraisse._side((0, 1), FREE[2], FREE[2]), 2),
        fraisse._side((0, 1), FREE[2], FREE[2]),
        AmalgamationFailed, "amalgamation square does not commute",
    ),
    # two-outside-atom sides amalgamated as if they were in BU
    "class": (
        ClassKind.BU, make_algebra([OUT], 1),
        fraisse._side((0, 0), make_algebra([OUT], 1), make_algebra([OUT, OUT], 1)),
        fraisse._side((0, 0), make_algebra([OUT], 1), make_algebra([OUT, OUT], 1)),
        AmalgamationFailed, "amalgam left the class bu",
    ),
}


def _both_ways(side_b: tuple, sides_c: list) -> list:
    """The kernel's optional arguments for each way to absorb: none, for each
    pair's own pass, and the _run rows of side_b and of sides_c, taken as a
    run of their own, for the tables."""
    rows = fraisse._run([*sides_c, side_b])
    return [(), (rows[-1], rows[:-1])]


@pytest.mark.parametrize("fault", list(POSTCONDITION_FAULTS))
def test_amalgamation_postconditions_refuse_wrong_constructions(fault, monkeypatch):
    kind, a, side_b, side_c, refusal, detail = POSTCONDITION_FAULTS[fault]
    # as a suite shard records it, pair by pair and by tables: the pair twice
    # in one pass, then the pass again on the same dict.  A failing map never
    # enters D's dict of checked maps, so every pair that has it raises again.
    for tables in _both_ways(side_b, [side_c, side_c]):
        amalgams: dict = {}
        for _ in range(2):
            if refusal is NotAnEmbedding:
                with pytest.raises(NotAnEmbedding, match=detail):
                    fraisse._amalgamate_run(kind, a, side_b, [side_c, side_c], amalgams, *tables)
            else:
                outcomes = fraisse._amalgamate_run(
                    kind, a, side_b, [side_c, side_c], amalgams, *tables
                )
                assert outcomes == [detail, detail]
    # as amalgamate raises it, with its input checks passed and the faulty
    # side data in place of the real
    sides = iter([side_b, side_c])
    monkeypatch.setattr(fraisse, "_side", lambda *args: next(sides))
    monkeypatch.setattr(fraisse, "_require_member", lambda *args: None)
    monkeypatch.setattr(fraisse, "_require_ordered_embedding", lambda *args: None)
    f = Embedding(a, side_b[0], side_b[1], True)
    g = Embedding(a, side_c[0], side_c[1], True)
    with pytest.raises(refusal) as raised:
        amalgamate(kind, a, side_b[0], side_c[0], f, g)
    if refusal is AmalgamationFailed:
        assert str(raised.value) == detail
    else:
        assert detail in str(raised.value)


def test_absorption_sentinel_is_refused_as_a_nonexistent_atom(monkeypatch):
    # "no atom yet" names no atom of a side with at most 255 atoms
    for n in (2, 255):
        side = make_algebra([OUT] * n, 0)
        for block_of in (bytes([*range(n - 1), 255]), bytes([255, *range(1, n)])):
            with pytest.raises(NotAnEmbedding) as raised:
                _check_block_map(block_of, side, side, True)
            assert str(raised.value) == "block map names a nonexistent small atom"
    # the "r" fault leaves a position of r where absorption found no B atom,
    # so r keeps the byte there, pair by pair and by tables
    kind, a, side_b, side_c, *_ = POSTCONDITION_FAULTS["r"]
    real = fraisse._check_block_map
    for tables in _both_ways(side_b, [side_c]):
        checked = []
        monkeypatch.setattr(
            fraisse, "_check_block_map", lambda *args: checked.append(args[0]) or real(*args)
        )
        with pytest.raises(NotAnEmbedding) as raised:
            fraisse._amalgamate_run(kind, a, side_b, [side_c], {}, *tables)
        assert str(raised.value) == "block map names a nonexistent small atom"
        assert fraisse.MAX_SIDE_ATOMS in checked[-1] and type(checked[-1]) is bytes


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
