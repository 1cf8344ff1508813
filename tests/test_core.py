"""Representation, canonicalization, Boolean operations, class membership."""
from __future__ import annotations

import copy
import pickle
import sys
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from ramsey_ba import (
    ClassKind,
    EmptyAtomSet,
    LevelOutOfRange,
    MixedAlgebras,
    OUT,
    atom_element,
    atom_partitions,
    class_membership,
    complement,
    element,
    elements,
    enumerate_algebras,
    enumerate_signatures,
    generated_subalgebra,
    in_ideal,
    join,
    leq,
    make_algebra,
    meet,
    one,
    signature_iso,
    signature_json,
    validate_embedding,
    zero,
)
from ramsey_ba import core

from .oracles import closure_blocks


def test_make_algebra_smallest():
    a = make_algebra([OUT], 0)
    assert a.n_atoms == 1 and a.chain_length == 0
    assert len(list(elements(a))) == 2


def test_make_algebra_minimal_bu_member():
    a = make_algebra([0, OUT], 1)
    assert a.levels == (0, OUT)
    assert class_membership(a, ClassKind.BU)


def test_make_algebra_canonicalizes():
    a = make_algebra([OUT, 0], 1)
    assert a.levels == (0, OUT)


def test_make_algebra_rejects_bad_input():
    with pytest.raises(EmptyAtomSet):
        make_algebra([], 1)
    with pytest.raises(LevelOutOfRange):
        make_algebra([1], 1)
    with pytest.raises(LevelOutOfRange):
        make_algebra([0], 0)
    with pytest.raises(LevelOutOfRange):
        make_algebra([True], 1)
    with pytest.raises(LevelOutOfRange):
        make_algebra([-1], 2)


def test_level_order():
    assert 0 < 1 < OUT
    assert not OUT < OUT
    assert 3 < OUT and not OUT < 3


def test_out_stays_the_singleton_through_pickle_and_copy():
    a = make_algebra([0, OUT, OUT], 1)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(OUT, protocol)) is OUT
        again = pickle.loads(pickle.dumps(a, protocol))
        assert again == a and all(lv is OUT for lv in again.levels[1:])
    assert copy.copy(OUT) is OUT and copy.deepcopy(OUT) is OUT
    assert all(lv is OUT for lv in copy.deepcopy(a).levels[1:])
    assert repr(OUT) == f"{OUT}" == "OUT"
    assert repr(a.levels) == "(0, OUT, OUT)"


def test_make_algebra_keeps_every_ideal_index_below_out():
    with pytest.raises(LevelOutOfRange, match="chain_length must be below OUT"):
        make_algebra([OUT], sys.maxsize)
    make_algebra([OUT], sys.maxsize - 1)
    with pytest.raises(LevelOutOfRange):
        make_algebra([sys.maxsize], 1)  # OUT's value, but not OUT
    with pytest.raises(LevelOutOfRange, match="chain_length must be nonnegative, got -1"):
        make_algebra([OUT], -1)


def test_bool_ops_axioms():
    a = make_algebra([0, 0, OUT], 1)
    xs = list(elements(a))
    assert len(xs) == 8
    for x in xs:
        assert meet(one(a), x) == x
        assert join(x, complement(x)) == one(a)
        assert meet(x, complement(x)) == zero(a)
        assert complement(complement(x)) == x
    assert leq(element(a, [0]), element(a, [0, 1]))


def test_bool_ops_reject_mixed_algebras():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([OUT, OUT], 1)
    x, y = element(a, [0]), element(b, [1])
    assert meet(x, element(a, [0, 1])) == x
    with pytest.raises(MixedAlgebras):
        meet(x, y)
    # equal signatures are the same value; their elements interoperate
    assert meet(x, element(make_algebra([0, OUT], 1), [0, 1])) == x


def test_in_ideal_examples():
    a = make_algebra([0, OUT], 1)
    assert in_ideal(a, element(a, [0]), 0)
    assert not in_ideal(a, element(a, [0, 1]), 0)
    b = make_algebra([0, 1, OUT], 2)
    assert in_ideal(b, element(b, [0, 1]), 1)
    assert not in_ideal(b, element(b, [0, 1]), 0)
    with pytest.raises(LevelOutOfRange):
        in_ideal(b, element(b, [0]), 2)


def test_ideal_chain_condition():
    # in_ideal(x, i) implies in_ideal(x, j) for i <= j
    for t in (1, 2, 3):
        for a in enumerate_algebras(4, t):
            for x in elements(a):
                flags = [in_ideal(a, x, j) for j in range(t)]
                for i in range(t - 1):
                    assert not flags[i] or flags[i + 1], (signature_json(a), x.atoms)


def test_one_never_in_ideal_for_class_members():
    for t in (1, 2):
        for kind in ClassKind:
            if kind is ClassKind.BU and t != 1:
                continue
            for a in enumerate_algebras(4, t, kind):
                for j in range(t):
                    assert not in_ideal(a, one(a), j)


def test_class_membership_examples():
    assert not class_membership(make_algebra([0, 0], 1), ClassKind.BJ)
    assert not class_membership(make_algebra([0, OUT, OUT], 1), ClassKind.BU)
    assert class_membership(make_algebra([0, 1, OUT], 2), ClassKind.BJU)
    # BU forces chain length 1
    assert not class_membership(make_algebra([0, OUT], 2), ClassKind.BU)


def test_signature_iso_examples():
    a = make_algebra([0, OUT], 1)
    assert signature_iso(a, make_algebra([0, OUT], 1))
    assert not signature_iso(a, make_algebra([OUT, OUT], 1))


def test_signature_iso_permutation_invariant():
    for n in range(1, 6):
        levels = [0, 1, OUT, 0, OUT][:n]
        base = make_algebra(levels, 2)
        for p in permutations(levels):
            assert signature_iso(base, make_algebra(list(p), 2))


def test_generated_subalgebra_identity():
    a = make_algebra([0, 1, OUT], 2)
    sub, emb = generated_subalgebra(a, [atom_element(a, i) for i in a.atoms])
    assert sub.levels == a.levels
    assert emb.block_of == (0, 1, 2)


def test_generated_subalgebra_empty_gens():
    a = make_algebra([0, OUT], 1)
    sub, emb = generated_subalgebra(a, [])
    assert signature_json(sub) == ["out"]
    assert emb.block_of == (0, 0)


def test_generated_subalgebra_block_example():
    a = make_algebra([0, 0, OUT], 1)
    sub, emb = generated_subalgebra(a, [element(a, [0, 1])])
    assert signature_json(sub) == [0, "out"]
    assert emb.block_of == (0, 0, 1)


def test_generated_subalgebra_matches_closure_oracle():
    for t in (1, 2):
        for a in enumerate_algebras(4, t):
            pool = list(elements(a))
            for size in range(0, 3):
                for gens in combinations(pool[1:-1], size):
                    sub, emb = generated_subalgebra(a, list(gens))
                    validate_embedding(emb)
                    want = closure_blocks(a, list(gens))
                    got = sorted((frozenset(b) for b in emb.blocks()), key=sorted)
                    assert got == want, (signature_json(a), [g.atoms for g in gens])
                    for i, block in enumerate(emb.blocks()):
                        assert sub.levels[i] == max(a.levels[x] for x in block)


def test_generated_subalgebra_idempotent():
    a = make_algebra([0, 0, 1, OUT], 2)
    sub, _ = generated_subalgebra(a, [element(a, [0, 1]), element(a, [2])])
    again, emb = generated_subalgebra(sub, [atom_element(sub, i) for i in sub.atoms])
    assert again.levels == sub.levels
    assert emb.block_of == tuple(sub.atoms)


def test_enumerate_signatures_counts():
    # alphabet {0, out} for t=1: nondecreasing sequences = n+1 choices
    for n in range(1, 5):
        assert len(list(enumerate_signatures(n, 1))) == n + 1
    assert [sig for sig in enumerate_signatures(2, 0)] == [(OUT, OUT)]


def test_enumerate_algebras_kinds():
    got = [signature_json(a) for a in enumerate_algebras(2, 1, ClassKind.BU)]
    assert got == [["out"], [0, "out"]]  # ascending atom count, then signature
    for a in enumerate_algebras(5, 2, ClassKind.BJU):
        assert sum(1 for lv in a.levels if lv is OUT) == 1


def test_enumerate_algebras_builds_what_the_filter_keeps():
    # the definition: every nondecreasing signature by atom count, each
    # kept when class_membership says so
    for t in range(5):
        for max_atoms in range(7):
            everything = [
                make_algebra(signature, t)
                for n in range(1, max_atoms + 1)
                for signature in combinations_with_replacement((*range(t), OUT), n)
            ]
            assert list(enumerate_algebras(max_atoms, t)) == everything
            for kind in ClassKind:
                members = [a for a in everything if class_membership(a, kind)]
                assert list(enumerate_algebras(max_atoms, t, kind)) == members
    for kind in (None, *ClassKind):
        for max_atoms in range(1, 7):
            with pytest.raises(LevelOutOfRange):
                list(enumerate_algebras(max_atoms, -1, kind))


def test_enumerate_algebras_starts_at_its_start_size():
    for kind in (None, *ClassKind):
        for t in range(3):
            everything = list(enumerate_algebras(5, t, kind))
            for start in range(1, 7):
                got = list(enumerate_algebras(5, t, kind, start))
                assert got == [a for a in everything if a.n_atoms >= start]

def test_enumerate_algebras_tests_the_class_once(monkeypatch):
    # one make_algebra for the [OUT] membership test, then one per algebra;
    # an empty range builds nothing, even at a chain length make_algebra refuses
    built = []
    real = core.make_algebra
    monkeypatch.setattr(
        core, "make_algebra", lambda levels, t: built.append(tuple(levels)) or real(levels, t)
    )
    for kind in ClassKind:
        for t in range(3):
            built.clear()
            got = list(enumerate_algebras(5, t, kind))
            assert built == [(OUT,)] + [algebra.levels for algebra in got]
        for t in (-1, 1):
            built.clear()
            assert list(enumerate_algebras(0, t, kind)) == built == []


def test_atom_partitions_match_restricted_growth_codes():
    def by_codes(n):
        # code[a] names atom a's block; each code is at most one above the
        # largest before it, and the codes are listed lexicographically
        codes = [()]
        for _ in range(n):
            codes = [code + (b,) for code in codes for b in range(max(code, default=-1) + 2)]
        return [
            [[a for a in range(n) if code[a] == b] for b in range(max(code, default=-1) + 1)]
            for code in codes
        ]

    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(9):
        listed = list(atom_partitions(n))
        assert listed == by_codes(n)
        assert len(listed) == bell[n]

