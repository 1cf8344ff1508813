"""Embeddings, copy enumeration, and the algebra-building operations."""
from __future__ import annotations

from itertools import product
from math import factorial

import pytest

from ramsey_ba import (
    BoundExceeded,
    ChainMismatch,
    ClassKind,
    Embedding,
    ImproperConcatenation,
    LevelOutOfRange,
    LevelOverlap,
    NotAnEmbedding,
    OUT,
    SizeMismatch,
    amalgamate,
    antilex_compare,
    arrows,
    canonical_order,
    check_ap,
    class_membership,
    compose,
    count_proper_orders,
    elements,
    enumerate_algebras,
    enumerate_embeddings,
    identity_embedding,
    image_copy,
    is_proper,
    lift,
    make_algebra,
    reduct,
    signature_iso,
    signature_json,
    star,
    circ,
    validate_embedding,
)
from ramsey_ba import ramsey
from ramsey_ba.embed import _sorted_block_maps
from ramsey_ba.serialize import format_io, parse_embedding
from .oracles import brute_embeddings, stirling2


def test_single_atom_small_algebra_embeds_once():
    a = make_algebra([OUT], 1)
    for t in (1, 2):
        small = make_algebra([OUT], t)
        for b in enumerate_algebras(3, t, ClassKind.BJ):
            found = list(enumerate_embeddings(small, b, "plain"))
            assert len(found) == 1
            assert found[0].block_of == (0,) * b.n_atoms


def test_three_embeddings_example():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    plain = list(enumerate_embeddings(a, b, "plain"))
    ordered = list(enumerate_embeddings(a, b, "ordered"))
    # the outside atom is forced into block 1; b0,b1 split three ways
    assert [e.block_of for e in plain] == [(0, 0, 1), (0, 1, 1), (1, 0, 1)]
    assert [e.block_of for e in ordered] == [(0, 0, 1), (0, 1, 1), (1, 0, 1)]


def test_embeddings_match_brute_force():
    for t, max_atoms in ((0, 5), (1, 5), (2, 4)):
        algebras = list(enumerate_algebras(max_atoms, t))
        for small, big in product(algebras, repeat=2):
            for mode in ("plain", "ordered"):
                got = [e.block_of for e in enumerate_embeddings(small, big, mode)]
                assert got == sorted(got)
                assert sorted(got) == sorted(
                    brute_embeddings(small, big, mode == "ordered")
                ), (signature_json(small), signature_json(big), mode)
                # the output bound admits the whole list and refuses one map less
                assert list(_sorted_block_maps(small, big, mode, limit=len(got))) == got
                if got:
                    with pytest.raises(BoundExceeded):
                        _sorted_block_maps(small, big, mode, limit=len(got) - 1)


def test_embedding_counts_pure_case():
    for n in range(1, 10):
        big = make_algebra([OUT] * n, 0)
        for k in range(1, n + 1):
            small = make_algebra([OUT] * k, 0)
            ordered = len(enumerate_embeddings(small, big, "ordered"))
            assert ordered == stirling2(n, k)
            # k! S(n, k) plain maps: past these sizes the list takes seconds
            if n <= 6 or k <= 4:
                plain = len(enumerate_embeddings(small, big, "plain"))
                assert plain == factorial(k) * stirling2(n, k)


def test_plain_is_ordered_times_proper_orders():
    for t in (0, 1, 2):
        algebras = list(enumerate_algebras(7, t))
        for small, big in product(algebras, repeat=2):
            ordered = enumerate_embeddings(small, big, "ordered")
            plain = enumerate_embeddings(small, big, "plain")
            assert len(plain) == len(ordered) * count_proper_orders(small)
            for found in (ordered, plain):
                maps = [e.block_of for e in found]
                assert all(x < y for x, y in zip(maps, maps[1:]))
                for e in found:
                    validate_embedding(e)


def test_chain_mismatch_rejected():
    with pytest.raises(ChainMismatch):
        list(
            enumerate_embeddings(
                make_algebra([OUT], 1), make_algebra([OUT, OUT], 2), "plain"
            )
        )
    # one outside atom has the same level at every chain length
    small, big = make_algebra([OUT], 0), make_algebra([OUT], 1)
    with pytest.raises(ChainMismatch):
        validate_embedding(Embedding(small=small, big=big, block_of=(0,), ordered=True))
    with pytest.raises(ChainMismatch):
        parse_embedding({"block_of": [0]}, small, big)


def test_validate_embedding_rejects_level_violation():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    bad = Embedding(small=a, big=b, block_of=(1, 1, 0), ordered=False)
    with pytest.raises(NotAnEmbedding):
        validate_embedding(bad)  # block 0 holds the outside atom, wants level 0
    two = make_algebra([OUT, OUT], 1)
    with pytest.raises(NotAnEmbedding):
        validate_embedding(
            Embedding(small=two, big=two, block_of=(1, 0), ordered=True)
        )  # block maxima 1, 0 not increasing
    validate_embedding(Embedding(small=two, big=two, block_of=(1, 0), ordered=False))


def test_block_map_with_an_empty_block_is_refused():
    # block 0 takes no atom; its maximum, -1, would read the last atom's level
    two = make_algebra([OUT, OUT], 0)
    with pytest.raises(NotAnEmbedding, match="block 0 is empty"):
        validate_embedding(Embedding(small=two, big=two, block_of=(1, 1), ordered=True))
    with pytest.raises(NotAnEmbedding, match="block 0 is empty"):
        parse_embedding({"block_of": [1, 1], "ordered": True}, two, two)


def test_image_copy_identity_is_power_set():
    a = make_algebra([0, 0, OUT], 1)
    assert image_copy(identity_embedding(a)) == frozenset(elements(a))


def test_image_copies_distinct():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    copies = [image_copy(e) for e in enumerate_embeddings(a, b, "ordered")]
    assert len(copies) == 3
    assert len(set(copies)) == 3
    assert all(len(c) == 4 for c in copies)


def test_image_copy_functorial():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    c = make_algebra([0, 0, 0, OUT], 1)
    for inner in enumerate_embeddings(a, b, "ordered"):
        for outer in enumerate_embeddings(b, c, "ordered"):
            both = image_copy(compose(outer, inner))
            assert both == frozenset(
                outer.induced(x) for x in image_copy(inner)
            )


def test_compose_associative_and_identity():
    for t in (0, 1):
        algebras = list(enumerate_algebras(4, t))
        for a, b in product(algebras, repeat=2):
            for e in enumerate_embeddings(a, b, "ordered"):
                assert compose(e, identity_embedding(a)) == e
                assert compose(identity_embedding(b), e) == e
        for a, b, c in product(algebras[:6], repeat=3):
            for e1 in enumerate_embeddings(a, b, "ordered"):
                for e2 in enumerate_embeddings(b, c, "ordered"):
                    for e3 in enumerate_embeddings(c, c, "ordered"):
                        assert compose(e3, compose(e2, e1)) == compose(
                            compose(e3, e2), e1
                        )


def test_ordered_embeddings_are_antilex_monotone():
    for t in (0, 1, 2):
        for small in enumerate_algebras(3, t):
            for big in enumerate_algebras(4, t):
                for e in enumerate_embeddings(small, big, "ordered"):
                    for x, y in product(elements(small), repeat=2):
                        assert antilex_compare(
                            e.induced(x), e.induced(y), canonical_order(big)
                        ) == antilex_compare(x, y, canonical_order(small))


def test_star_examples():
    assert signature_json(
        star(make_algebra([0], 1), make_algebra([OUT], 1))
    ) == [0, "out"]
    assert signature_json(
        star(make_algebra([0, 0], 1), make_algebra([OUT], 1))
    ) == [0, 0, "out"]
    with pytest.raises(ImproperConcatenation):
        star(make_algebra([OUT], 1), make_algebra([0], 1))
    with pytest.raises(ChainMismatch):
        star(make_algebra([0], 1), make_algebra([OUT], 2))


def test_circ_examples():
    assert signature_json(
        circ(make_algebra([0, 0], 1), make_algebra([OUT], 1))
    ) == [0, "out"]
    assert signature_json(
        circ(make_algebra([0], 1), make_algebra([OUT], 1))
    ) == ["out"]  # n = m, every atom absorbed
    assert signature_json(
        circ(make_algebra([0, 0, 0], 2), make_algebra([1, OUT], 2))
    ) == [0, 1, "out"]
    with pytest.raises(SizeMismatch):
        circ(make_algebra([0], 1), make_algebra([OUT, OUT], 1))
    with pytest.raises(LevelOverlap):
        circ(make_algebra([0, 0], 1), make_algebra([0, OUT], 1))


def test_star_circ_outputs_proper():
    pool = list(enumerate_algebras(3, 2))
    for x, y in product(pool, repeat=2):
        try:
            out = star(x, y)
        except ImproperConcatenation:
            pass
        else:
            assert is_proper(out, canonical_order(out))
            assert signature_json(out) == signature_json(x) + signature_json(y)
        if x.n_atoms < y.n_atoms:
            continue
        try:
            out = circ(x, y)
        except LevelOverlap:
            continue
        assert is_proper(out, canonical_order(out))
        keep = x.n_atoms - y.n_atoms
        assert signature_json(out) == signature_json(x)[:keep] + signature_json(y)


def test_lift_examples():
    pure = make_algebra([OUT, OUT], 0)
    lifted = lift(pure, 0, 1)
    assert signature_json(lifted) == [0, 0]
    assert all(not class_membership(lifted, kind) for kind in ClassKind)
    assert reduct(lifted) == pure
    with pytest.raises(LevelOutOfRange):
        lift(pure, 1, 1)


def test_reduct_examples():
    assert signature_json(reduct(make_algebra([0, OUT], 1))) == ["out", "out"]
    a = make_algebra([0, 1, OUT], 2)
    b = make_algebra([1, 1, 1], 2)
    assert signature_iso(reduct(a), reduct(b))
    # pure embedding counts agree with the ordered-surjection count
    small, big = reduct(make_algebra([0, OUT], 1)), reduct(b)
    assert len(list(enumerate_embeddings(small, big, "ordered"))) == stirling2(3, 2)


def test_only_public_functions_build_embeddings(monkeypatch):
    built = []
    init = Embedding.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Embedding, "__init__", counting)
    check_ap(ClassKind.BJ, 4, 1)
    c, a = make_algebra([0, 0, OUT], 1), make_algebra([0, OUT], 1)
    ramsey._arrows.cache_clear()
    text = format_io(arrows(c, c, a, 2))
    assert '"verdict": "fails"' in text and text.count('"embedding"') == 3
    assert built == []
    copies = enumerate_embeddings(a, c, "ordered")
    assert len(copies) == 3 and built == copies
    base = make_algebra([OUT], 1)
    [f] = enumerate_embeddings(base, a, "ordered")
    result = amalgamate(ClassKind.BJ, base, a, a, f, f)
    assert built[-2:] == [result.r, result.s]
