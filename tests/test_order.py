"""Proper orders, antilex comparison, order forgetfulness."""
from __future__ import annotations

from itertools import combinations, permutations, product

import pytest

from ramsey_ba import (
    BoundExceeded,
    ChainMismatch,
    ImproperOrder,
    OUT,
    antilex_compare,
    canonical_order,
    count_proper_orders,
    elements,
    enumerate_algebras,
    enumerate_proper_orders,
    forgetfulness_report,
    generated_subalgebra,
    is_proper,
    level_blocks,
    make_algebra,
    element,
    one,
    ordered_isomorphic,
    signature_json,
    zero,
)
from ramsey_ba import order
from .oracles import antilex_key, brute_proper_orders


def test_is_proper_examples():
    a = make_algebra([0, OUT], 1)
    assert is_proper(a, (0, 1))
    assert not is_proper(a, (1, 0))
    b = make_algebra([OUT, OUT], 1)
    assert is_proper(b, (0, 1)) and is_proper(b, (1, 0))


def test_is_proper_rejects_non_permutation():
    a = make_algebra([0, OUT], 1)
    with pytest.raises(ValueError):
        is_proper(a, (0, 0))


def test_canonical_order_is_proper():
    for t in (0, 1, 2):
        for a in enumerate_algebras(4, t):
            assert is_proper(a, canonical_order(a))


def test_antilex_examples():
    a = make_algebra([OUT, OUT], 0)
    ord = canonical_order(a)
    assert antilex_compare(zero(a), one(a), ord) == -1
    assert antilex_compare(element(a, [0]), element(a, [1]), ord) == -1
    assert antilex_compare(element(a, [1]), element(a, [0, 1]), ord) == -1


def test_antilex_matches_reversed_bitstring_oracle():
    for n in range(1, 6):
        a = make_algebra([OUT] * n, 0)
        for ord in permutations(a.atoms):
            ranked = sorted(elements(a), key=lambda x: antilex_key(x.atoms, ord))
            for (i, x), (j, y) in product(enumerate(ranked), repeat=2):
                want = -1 if i < j else (0 if i == j else 1)
                assert antilex_compare(x, y, ord) == want
        if n >= 4:
            break  # full pairwise scan beyond n=4 adds nothing new


def test_antilex_total_order_with_bounds():
    for t in (0, 1, 2):
        for a in enumerate_algebras(4, t):
            ord = canonical_order(a)
            ranked = sorted(
                elements(a), key=lambda x: antilex_key(x.atoms, ord)
            )
            assert ranked[0] == zero(a) and ranked[-1] == one(a)
            # atoms appear in ord order
            positions = [ranked.index(element(a, [x])) for x in ord]
            assert positions == sorted(positions)


def test_enumerate_proper_orders_counts():
    assert len(list(enumerate_proper_orders(make_algebra([0, OUT], 1)))) == 1
    assert len(list(enumerate_proper_orders(make_algebra([0, 0, OUT], 1)))) == 2
    assert len(list(enumerate_proper_orders(make_algebra([OUT], 0)))) == 1


def test_proper_orders_match_brute_force():
    for t in (0, 1, 2):
        for a in enumerate_algebras(5, t):
            got = list(enumerate_proper_orders(a))
            want = brute_proper_orders(a)
            assert got == sorted(got), signature_json(a)  # lexicographic
            assert sorted(got) == sorted(want)
            assert len(got) == count_proper_orders(a)


def test_level_blocks_partition():
    a = make_algebra([0, 0, 1, OUT, OUT], 2)
    assert level_blocks(a) == [[0, 1], [2], [3, 4]]


def test_ordered_isomorphic_examples():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([OUT, 0], 1)  # canonicalizes to the same signature
    assert ordered_isomorphic(a, (0, 1), b, (0, 1))
    with pytest.raises(ImproperOrder):
        ordered_isomorphic(a, (1, 0), b, (0, 1))
    with pytest.raises(ChainMismatch):
        ordered_isomorphic(a, (0, 1), make_algebra([0, OUT], 2), (0, 1))


def test_ordered_isomorphic_checks_both_orders():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    with pytest.raises(ImproperOrder, match=r"not a proper order: \(2, 0, 1\)"):
        ordered_isomorphic(a, (0, 1), b, (2, 0, 1))
    # both permutations are checked before either order's properness
    for ord_a, ord_b in (((0, 0), (2, 0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, 1, 1, 2))):
        with pytest.raises(ValueError, match="not a permutation"):
            ordered_isomorphic(a, ord_a, b, ord_b)
    # an order given as a one-shot iterator is read once
    assert ordered_isomorphic(a, iter((0, 1)), a, iter([0, 1]))
    assert not ordered_isomorphic(a, iter((0, 1)), b, iter((1, 0, 2)))
    with pytest.raises(ImproperOrder, match=r"not a proper order: \(1, 0\)"):
        ordered_isomorphic(a, (0, 1), a, iter((1, 0)))


def test_order_forgetfulness_within_algebras():
    for t in (0, 1, 2):
        for a in enumerate_algebras(5, t):
            orders = list(enumerate_proper_orders(a))
            for ord_a, ord_b in product(orders, repeat=2):
                assert ordered_isomorphic(a, ord_a, a, ord_b)


def test_order_forgetfulness_across_algebras():
    # same signature <=> ordered-isomorphic, for canonical proper orders
    for t in (1, 2):
        algebras = list(enumerate_algebras(4, t))
        for a, b in product(algebras, repeat=2):
            want = signature_json(a) == signature_json(b)
            got = ordered_isomorphic(a, canonical_order(a), b, canonical_order(b))
            assert got == want


def test_restriction_preserves_antilex():
    # subalgebra ordered by block maxima: its antilex order restricts A's
    for t in (1, 2):
        for a in enumerate_algebras(4, t):
            pool = list(elements(a))[1:-1]
            for size in (1, 2):
                for gens in combinations(pool, size):
                    sub, emb = generated_subalgebra(a, list(gens))
                    ord_sub = canonical_order(sub)
                    assert is_proper(sub, ord_sub)
                    for x, y in product(elements(sub), repeat=2):
                        want = antilex_compare(
                            emb.induced(x), emb.induced(y), canonical_order(a)
                        )
                        assert antilex_compare(x, y, ord_sub) == want


def test_forgetfulness_report_clean():
    report = forgetfulness_report(4, 2)
    assert report["violations"] == []
    assert report["algebras_checked"] == len(list(enumerate_algebras(4, 2)))


def test_forgetfulness_report_lists_a_count_mismatch(monkeypatch):
    monkeypatch.setattr(order, "count_proper_orders", lambda algebra: 7)
    assert forgetfulness_report(1, 0)["violations"] == [
        {"levels": ["out"], "reason": "count mismatch", "enumerated": 1, "expected": 7}
    ]


def test_forgetfulness_report_lists_orders_not_isomorphic(monkeypatch):
    monkeypatch.setattr(order, "ordered_isomorphic", lambda a, ord_a, b, ord_b: ord_a == ord_b)
    assert forgetfulness_report(2, 0)["violations"] == [
        {
            "levels": ["out", "out"],
            "reason": "orders not isomorphic",
            "ord_a": [0, 1],
            "ord_b": [1, 0],
        }
    ]


def test_forgetfulness_sweep_budget(monkeypatch):
    # 3 atoms at t = 1 bound C(2,1)*1! + C(3,2)*2! + C(4,3)*3! = 32 orders
    monkeypatch.setattr(order, "MAX_SWEEP_ORDERS", 32)
    assert forgetfulness_report(3, 1)["violations"] == []
    with pytest.raises(BoundExceeded):
        forgetfulness_report(4, 1)
    monkeypatch.setattr(order, "MAX_SWEEP_ORDERS", 31)
    with pytest.raises(BoundExceeded):
        forgetfulness_report(3, 1)


def test_forgetfulness_budget_admits_five_atoms_at_every_chain_length():
    for t in range(4):
        assert forgetfulness_report(5, t)["violations"] == []
