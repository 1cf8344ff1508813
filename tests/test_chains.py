"""Maximal subset chains and the correspondence with proper orders."""
from __future__ import annotations

import time
from itertools import permutations, product
from math import factorial

import pytest

from ramsey_ba import (
    BoundExceeded,
    ClassKind,
    MaximalChain,
    OUT,
    SizeMismatch,
    atoms_above,
    chains_extending,
    enumerate_algebras,
    enumerate_maximal_chains,
    enumerate_proper_orders,
    filter_family,
    is_proper,
    make_algebra,
    make_chain,
    phi,
    phi_inverse,
)
from ramsey_ba import chains
from ramsey_ba.chains import Chains

from .oracles import brute_chains_extending


def test_phi_example():
    chain = make_chain([set(), {2}, {1, 2}, {0, 1, 2}])
    assert phi(chain, make_algebra([OUT] * 3, 0)) == (0, 1, 2)


def test_phi_single_point():
    chain = make_chain([set(), {0}])
    assert phi(chain, make_algebra([OUT], 1)) == (0,)


def test_phi_size_mismatch():
    chain = make_chain([set(), {0}])
    with pytest.raises(SizeMismatch):
        phi(chain, make_algebra([OUT, OUT], 1))


def test_phi_inverse_examples():
    assert phi_inverse((0, 1, 2)).sets == (
        frozenset(),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    )
    assert phi_inverse((0, 1)).sets == (
        frozenset(),
        frozenset({1}),
        frozenset({0, 1}),
    )
    with pytest.raises(ValueError):
        phi_inverse((0, 0))


def test_phi_round_trips():
    from itertools import permutations

    for n in range(1, 7):
        algebra = make_algebra([OUT] * n, 0)
        for ord in permutations(range(n)):
            assert phi(phi_inverse(ord), algebra) == ord
        for chain in enumerate_maximal_chains(n):
            assert phi_inverse(phi(chain, algebra)) == chain


def test_chain_counts():
    assert len(enumerate_maximal_chains(1)) == 1
    assert len(enumerate_maximal_chains(3)) == 6
    assert len(enumerate_maximal_chains(5)) == 120
    with pytest.raises(ValueError):
        enumerate_maximal_chains(0)


def test_make_chain_rejections():
    with pytest.raises(ValueError):
        make_chain([{0}, {0, 1}])  # missing empty set
    with pytest.raises(ValueError):
        make_chain([set(), {1}])  # does not end at the full point set
    with pytest.raises(ValueError):
        make_chain([set(), {0, 1}, {0, 1}, {0, 1, 2}])  # steps add 2 then 0
    with pytest.raises(ValueError):
        make_chain([set(), {0, 1}, {2}, {0, 1, 2}])  # not increasing


def test_atoms_above_examples():
    a = make_algebra([0, 1, OUT], 2)
    assert atoms_above(a, 0) == frozenset({1, 2})
    assert atoms_above(a, 1) == frozenset({2})
    assert filter_family(a) == (frozenset({1, 2}), frozenset({2}))
    with pytest.raises(ValueError):
        atoms_above(a, 2)


def test_filter_family_decreasing():
    for t in (1, 2, 3):
        for a in enumerate_algebras(4, t):
            family = filter_family(a)
            for e_i, e_j in zip(family, family[1:]):
                assert e_i >= e_j


def test_filter_family_singleton_intersection_for_one_out_kind():
    for t in (1, 2):
        for a in enumerate_algebras(4, t, ClassKind.BJU):
            family = filter_family(a)
            meet = set(a.atoms)
            for e in family:
                meet &= e
            assert len(meet) == 1


def test_chains_extending_examples():
    extending, report = chains_extending(make_algebra([0, OUT], 1))
    assert len(extending) == 1 and report["matched"]
    assert list(extending)[0].sets == (frozenset(), frozenset({1}), frozenset({0, 1}))

    extending, report = chains_extending(make_algebra([0, 0, OUT], 1))
    assert len(extending) == 2 and report["matched"]
    assert all(frozenset({2}) in chain.sets for chain in extending)

    extending, report = chains_extending(make_algebra([OUT] * 3, 0))
    assert len(extending) == 6 and report["matched"]


def test_correspondence_exhaustive():
    for t in (0, 1, 2):
        for a in enumerate_algebras(5, t):
            extending, report = chains_extending(a)
            assert report["matched"], report
            assert report["extending_chains"] == report["proper_orders"]
            family = filter_family(a)
            for chain in enumerate_maximal_chains(a.n_atoms):
                through = all(e in chain.sets for e in family)
                assert through == is_proper(a, phi(chain, a))


def test_extending_chains_map_onto_proper_orders():
    for a in enumerate_algebras(4, 2):
        extending, _ = chains_extending(a)
        assert sorted(phi(chain, a) for chain in extending) == sorted(
            enumerate_proper_orders(a)
        )


def test_chains_additions_join_one_permutation_per_run():
    hand_built = [
        (),  # no run: the one empty chain
        (((0, 1), (1, 0)), ()),  # an empty run: no chain
        (((2, 0, 1), (0, 2, 1), (1, 2, 0)),),  # one run
        (((4,), (5,)), ((0, 2), (2, 0)), ((1, 3), (3, 1))),  # three runs
    ]
    for runs in hand_built:
        additions = Chains(runs).additions()
        assert additions == [sum(parts, ()) for parts in product(*runs)]
        assert len(additions) == len(Chains(runs))
        assert [chain.additions for chain in Chains(runs)] == additions


def test_chains_extending_matches_brute_force():
    algebras = [a for t, n in ((0, 6), (1, 6), (2, 6), (3, 5)) for a in enumerate_algebras(n, t)]
    # the two 8-atom algebras of the order-sweep benchmark
    algebras.append(make_algebra([0] * 4 + [OUT] * 4, 1))
    algebras.append(make_algebra([0, 0, 1, 1, 1, OUT, OUT, OUT], 2))
    for a in algebras:
        extending, report = chains_extending(a)
        brute_sets, brute_report = brute_chains_extending(a)
        assert [chain.sets for chain in extending] == brute_sets, report
        assert report == brute_report


def test_chains_extending_draws_output_proportional_permutations(monkeypatch):
    # one proper order among 9! = 362,880 addition sequences: the chains are
    # built run by run from the nested upper sets, not filtered from all n!
    drawn = 0

    def counting_permutations(points):
        nonlocal drawn
        for seq in permutations(points):
            drawn += 1
            yield seq

    monkeypatch.setattr(chains, "permutations", counting_permutations)
    algebra = make_algebra([*range(8), OUT], 8)
    extending, report = chains_extending(algebra)
    assert report["matched"] and list(extending) == [MaximalChain(tuple(range(8, -1, -1)))]
    assert drawn <= algebra.n_atoms * len(extending)


def test_chains_extending_tests_each_chain_against_the_upper_sets(monkeypatch):
    # with every atom in one run that run draws all n! addition sequences,
    # and its upper-set tests alone must leave the extending ones
    monkeypatch.setattr(chains, "level_blocks", lambda algebra: [tuple(algebra.atoms)])
    for t in (0, 1, 2):
        for a in enumerate_algebras(5, t):
            extending, report = chains_extending(a)
            brute_sets, brute_report = brute_chains_extending(a)
            assert [chain.sets for chain in extending] == brute_sets
            assert report == brute_report


def test_chain_stores_its_additions():
    chain = make_chain([set(), {2}, {0, 2}, {0, 1, 2}])
    assert chain.additions == (2, 0, 1)
    assert chain == phi_inverse((1, 0, 2))
    assert [c.additions for c in enumerate_maximal_chains(2)] == [(0, 1), (1, 0)]


def test_chains_extending_point_budget(monkeypatch):
    monkeypatch.setattr(chains, "MAX_CHAIN_POINTS", 3)
    _, report = chains_extending(make_algebra([0, 0, OUT], 1))
    assert report["matched"]
    with pytest.raises(BoundExceeded):
        chains_extending(make_algebra([0, 0, 0, OUT], 1))


def test_chains_extending_output_budget(monkeypatch):
    monkeypatch.setattr(chains, "MAX_CHAIN_OUTPUT", 2)
    extending, _ = chains_extending(make_algebra([0, 0, OUT], 1))
    assert len(extending) == 2
    with pytest.raises(BoundExceeded):
        chains_extending(make_algebra([0, 0, 0, OUT], 1))


def test_chains_extending_cost_does_not_grow_with_chain_length():
    # 120 extending chains each tested against one upper set, not 50,000
    levels = [0] * 5 + [OUT]
    start = time.perf_counter()
    extending, report = chains_extending(make_algebra(levels, 50_000))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    short_extending, short_report = chains_extending(make_algebra(levels, 1))
    assert extending == short_extending and len(extending) == 120
    assert report == {**short_report, "chain_length": 50_000}
