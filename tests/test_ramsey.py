"""Arrow relation, base oracle, and witness construction."""
from __future__ import annotations

import gc
import json
import random
import sys
import time
from collections import Counter
from itertools import product

import pytest

from ramsey_ba import (
    BoundExceeded,
    ChainMismatch,
    ClassKind,
    NotAnEmbedding,
    NotInClass,
    OUT,
    VerificationFailed,
    arrows,
    class_membership,
    construct_witness,
    dual_ramsey_oracle,
    enumerate_algebras,
    enumerate_embeddings,
    lift,
    make_algebra,
    min_witness,
    recheck_bad_coloring,
    reduct,
    signature_json,
    star,
)
from ramsey_ba import core, ramsey
from ramsey_ba.embed import MAX_BYTE_ATOMS, Embedding, _ordered_block_maps, compose
from ramsey_ba.ramsey import (
    ARROWS_CACHE_SIZE,
    SEARCH_CACHE_MASKS,
    Coloring,
    SearchStats,
    _arrows,
    _copy_edges,
    _search_bad_coloring,
)
from ramsey_ba.serialize import format_io
from .oracles import brute_arrows, reference_recheck_bad_coloring, reference_search_bad_coloring


def test_single_copy_always_holds():
    for t in (0, 1, 2):
        for a in enumerate_algebras(3, t):
            for k in (1, 2, 5):
                cert = arrows(a, a, a, k)
                assert cert.verdict == "holds"
                assert cert.bad_coloring is None


def test_failing_example_with_certificate():
    c = make_algebra([0, 0, OUT], 1)
    a = make_algebra([0, OUT], 1)
    cert = arrows(c, c, a, 2)
    assert cert.verdict == "fails" and not cert.vacuous
    assert cert.stats.a_copies == 3 and cert.stats.b_copies == 1
    assert cert.stats.nodes == 3
    copies = enumerate_embeddings(a, c, "ordered")
    assert [e.block_of for e in copies] == [(0, 0, 1), (0, 1, 1), (1, 0, 1)]
    assert cert.bad_coloring.colors == (0, 0, 1)
    # the writer pairs each copy's block map with its color, in that order
    assert json.loads(format_io(cert.bad_coloring)) == [
        {"color": 0, "embedding": [0, 0, 1]},
        {"color": 0, "embedding": [0, 1, 1]},
        {"color": 1, "embedding": [1, 0, 1]},
    ]
    assert recheck_bad_coloring(c, c, a, 2, cert.bad_coloring)


def test_vacuous_failure_flagged():
    c = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    a = make_algebra([0, OUT], 1)
    cert = arrows(c, b, a, 2)
    assert cert.verdict == "fails" and cert.vacuous
    assert cert.stats.b_copies == 0
    assert cert.bad_coloring.colors == (0,)


def test_vacuous_arrow_draws_no_copy_of_a_in_b(monkeypatch):
    # B has no copy in C, so the A-copies of B, 127 here and 2**25 - 1 at
    # 26 atoms, are never needed
    c, b, a = (make_algebra([OUT] * n, 0) for n in (3, 8, 2))
    real = ramsey._ordered_block_maps
    drawn = Counter()  # block maps drawn, by (small, big) atom counts

    def spy(small, big):
        drawn[small.n_atoms, big.n_atoms] += 0
        for block_of in real(small, big):
            drawn[small.n_atoms, big.n_atoms] += 1
            yield block_of

    _arrows.cache_clear()
    monkeypatch.setattr(ramsey, "_ordered_block_maps", spy)
    cert = arrows(c, b, a, 2)
    monkeypatch.undo()
    _arrows.cache_clear()
    assert cert.verdict == "fails" and cert.vacuous
    assert cert.stats == SearchStats(0, 3, 0)
    assert list(drawn.items()) == [((8, 3), 0)]  # B's copies in C only, and none


def test_arrows_input_errors():
    a = make_algebra([OUT], 1)
    with pytest.raises(ChainMismatch):
        arrows(a, a, make_algebra([OUT], 2), 2)
    with pytest.raises(ValueError):
        arrows(a, a, a, 0)
    # both caches key on k, and True would hash as 1
    for k in (True, 2.5, "2"):
        with pytest.raises(ValueError, match="not an integer"):
            arrows(a, a, a, k)


def test_reflexive_relation_holds_when_a_embeds():
    for t in (0, 1):
        for a in enumerate_algebras(3, t):
            for c in enumerate_algebras(4, t):
                embeds = bool(enumerate_embeddings(a, c, "ordered"))
                for k in (2, 3):
                    cert = arrows(c, a, a, k)
                    assert (cert.verdict == "holds") == embeds


def test_arrows_matches_brute_force():
    for t in (0, 1):
        smalls = list(enumerate_algebras(2, t))
        mids = list(enumerate_algebras(3, t))
        bigs = list(enumerate_algebras(3, t))
        for a, b, c in product(smalls, mids, bigs):
            for k in (2, 3):
                cert = arrows(c, b, a, k)
                assert (cert.verdict == "holds") == brute_arrows(c, b, a, k), (
                    signature_json(c),
                    signature_json(b),
                    signature_json(a),
                    k,
                )
                if cert.verdict == "fails" and not cert.vacuous:
                    assert recheck_bad_coloring(c, b, a, k, cert.bad_coloring)


def test_search_matches_reference_search(monkeypatch):
    # every (C, B, A) with C <= 6 atoms, B <= 4 atoms, t <= 2, A in B in C;
    # each is searched cold, then read back from the search cache
    real, searches = ramsey._search, []
    monkeypatch.setattr(ramsey, "_search", lambda *args: searches.append(1) or real(*args))
    instances = 0
    verdicts = Counter()  # (genuine certificate?, recheck verdict)
    for t in (0, 1, 2):
        algebras = list(enumerate_algebras(6, t))
        for c, b in product(algebras, algebras):
            copies_b = enumerate_embeddings(b, c, "ordered") if b.n_atoms <= 4 else []
            if not copies_b:
                continue
            for a in algebras:
                inner = enumerate_embeddings(a, b, "ordered")
                if not inner:
                    continue
                copies_a = enumerate_embeddings(a, c, "ordered")
                index = {e: i for i, e in enumerate(copies_a)}
                maps = [[e.block_of for e in es] for es in (copies_a, copies_b, inner)]
                edges = _copy_edges(*maps)
                assert [sorted(edge) for edge in edges] == [
                    sorted(index[compose(outer, h)] for h in inner)
                    for outer in copies_b
                ]
                for k in (2, 3, 4):
                    instances += 1
                    ramsey._searched.clear()
                    found = _search_bad_coloring(len(copies_a), edges, k)
                    expected = reference_search_bad_coloring(len(copies_a), edges, k)
                    assert found == expected, (
                        signature_json(c),
                        signature_json(b),
                        signature_json(a),
                        k,
                    )
                    assert _search_bad_coloring(len(copies_a), edges, k) == expected
                    if found[0] is None:
                        continue
                    # the tuple recheck agrees with the Embedding-level one on
                    # the certificate and on it with one color changed
                    colors = tuple(found[0])
                    v = instances % len(colors)
                    changed = colors[:v] + ((colors[v] + 1) % k,) + colors[v + 1:]
                    for tried in (colors, changed):
                        coloring = Coloring(a, c, tried)
                        verdict = recheck_bad_coloring(c, b, a, k, coloring)
                        assert verdict == reference_recheck_bad_coloring(c, b, a, k, coloring)
                        verdicts[tried is colors, verdict] += 1
    assert instances == 5904 == len(searches)
    # every certificate passes, and changing one color sometimes breaks it
    assert verdicts[True, False] == 0
    assert verdicts[False, True] > 0 and verdicts[False, False] > 0


def _level_free_hypergraph(n_c, n_b, n_a):
    """Vertex count and edges of level-free A -> B in C."""
    c, b, a = (make_algebra([OUT] * n, 0) for n in (n_c, n_b, n_a))
    maps = [sorted(_ordered_block_maps(x, y)) for x, y in ((a, c), (b, c), (a, b))]
    return len(maps[0]), _copy_edges(*maps)


def test_search_does_not_depend_on_edge_order():
    # the instances of test_search_matches_reference_search, plus level-free
    # A2 -> B3 in C7 at k = 3: shuffling the edges, permuting each edge and
    # repeating some edges keep the certificate and the node count
    rng = random.Random(18)

    def scrambled(edges):
        out = [tuple(rng.sample(edge, len(edge))) for edge in edges]
        out += rng.sample(out, len(out) // 3)
        rng.shuffle(out)
        return out

    instances = []
    for t in (0, 1, 2):
        algebras = list(enumerate_algebras(6, t))
        for c, b in product(algebras, algebras):
            copies_b = sorted(_ordered_block_maps(b, c)) if b.n_atoms <= 4 else []
            if not copies_b:
                continue
            for a in algebras:
                inner = sorted(_ordered_block_maps(a, b))
                if inner:
                    copies_a = sorted(_ordered_block_maps(a, c))
                    edges = _copy_edges(copies_a, copies_b, inner)
                    instances += [(len(copies_a), edges, k) for k in (2, 3, 4)]
    assert len(instances) == 5904
    instances.append((*_level_free_hypergraph(7, 3, 2), 3))
    for n_vertices, edges, k in instances:
        ramsey._searched.clear()
        found = _search_bad_coloring(n_vertices, edges, k)
        ramsey._searched.clear()
        assert _search_bad_coloring(n_vertices, scrambled(edges), k) == found
    assert found[1] == 12463


def test_deep_search_has_no_recursion_limit():
    # 1,023 A-copies colored one per stack frame: deeper than the recursion limit
    c = make_algebra([0] * 10 + [OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    a = make_algebra([0, OUT], 1)
    cert = arrows(c, b, a, 40)
    assert cert.verdict == "fails" and not cert.vacuous
    assert cert.stats.a_copies == 1023
    assert recheck_bad_coloring(c, b, a, 40, cert.bad_coloring)


def test_a_search_takes_b_of_at_most_the_byte_bound(monkeypatch):
    # block maps compose as bytes, naming at most MAX_BYTE_ATOMS atoms of B;
    # the vacuous, one-color and one-inner-copy answers come before the bound
    assert MAX_BYTE_ATOMS == 255
    a = make_algebra([0, OUT], 2)
    top = make_algebra([0, 0] + [1] * 252 + [OUT], 2)
    past = make_algebra([0, 0] + [1] * 253 + [OUT], 2)
    rechecks = []
    real = ramsey.recheck_bad_coloring
    monkeypatch.setattr(
        ramsey, "recheck_bad_coloring", lambda *args: rechecks.append(args) or real(*args)
    )
    _arrows.cache_clear()
    cert = arrows(top, top, a, 2)
    assert (cert.verdict, cert.stats.nodes, len(rechecks)) == ("fails", 3, 1)
    with pytest.raises(BoundExceeded) as raised:
        arrows(past, past, a, 2)
    assert str(raised.value) == "B has 256 atoms; arrow searches take at most 255"
    # the recheck refuses such a B too, with copies of B in C or none
    for c in (past, top):
        with pytest.raises(BoundExceeded):
            recheck_bad_coloring(c, past, a, 2, Coloring(a, c, (0, 1, 1)))
    assert arrows(top, past, a, 2).vacuous
    assert arrows(past, past, a, 1).verdict == "holds"
    huge = make_algebra([OUT] * 258, 0)
    assert arrows(huge, huge, make_algebra([OUT], 0), 2).verdict == "holds"


def test_recheck_rejects_tampered_colorings():
    c = make_algebra([0, 0, OUT], 1)
    a = make_algebra([0, OUT], 1)
    genuine = arrows(c, c, a, 2).bad_coloring
    assert genuine.colors == (0, 0, 1)
    assert recheck_bad_coloring(c, c, a, 2, genuine)
    tampered = [
        (0, 0, 0),  # the one B-copy, C itself, is monochromatic
        (0, 0, 2),  # a color equal to k
        (0, 0, -1),
        (0, 0, 0.5),  # not an integer, though between 0 and k
        (0, 0, True),  # a bool, though equal to 1
        (0, 0),  # one color too few
        (0, 0, 1, 1),  # one too many
    ]
    for colors in tampered:
        assert not recheck_bad_coloring(c, c, a, 2, Coloring(a, c, colors)), colors
    # also 3 copies of A, so only the coloring's own (a, c) tells it apart
    other = make_algebra([0, 0, OUT, OUT], 1)
    assert len(enumerate_embeddings(a, other, "ordered")) == 3
    assert not recheck_bad_coloring(c, c, a, 2, Coloring(a, other, genuine.colors))
    with pytest.raises(ValueError):  # the writer pairs copies and colors strictly
        format_io(Coloring(a, c, (0, 0)))


def test_recheck_refuses_a_b_of_another_chain_length():
    c = make_algebra([0, 0, OUT], 1)
    a = make_algebra([0, OUT], 1)
    coloring = arrows(c, c, a, 2).bad_coloring
    with pytest.raises(ChainMismatch):
        recheck_bad_coloring(c, make_algebra([0, 0, OUT], 2), a, 2, coloring)


def test_search_coloring_is_rechecked(monkeypatch):
    # a search that closes its first edge monochromatic must not be trusted
    real = ramsey._search_bad_coloring

    def one_edge_monochromatic(n_vertices, edges, k):
        assignment, nodes = real(n_vertices, edges, k)
        for v in edges[0]:
            assignment[v] = assignment[edges[0][0]]
        return assignment, nodes

    c, b, a = (make_algebra([OUT] * n, 0) for n in (5, 3, 2))
    _arrows.cache_clear()
    assert arrows(c, b, a, 2).verdict == "fails"
    _arrows.cache_clear()
    monkeypatch.setattr(ramsey, "_search_bad_coloring", one_edge_monochromatic)
    with pytest.raises(VerificationFailed) as refused:
        arrows(c, b, a, 2)
    rejected = refused.value.certificate.bad_coloring
    assert not recheck_bad_coloring(c, b, a, 2, rejected)


def test_failing_certificate_holds_its_colors_not_its_copies():
    # the 1,023-copy certificate of the deep search, as the arrows cache keeps it
    c = make_algebra([0] * 10 + [OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    a = make_algebra([0, OUT], 1)
    cert = arrows(c, b, a, 40)
    assert len(cert.bad_coloring.colors) == cert.stats.a_copies == 1023
    seen, todo, copies = set(), [cert], 0
    while todo:
        obj = todo.pop()
        if isinstance(obj, type) or id(obj) in seen:
            continue
        seen.add(id(obj))
        copies += isinstance(obj, Embedding)
        todo.extend(gc.get_referents(obj))
    assert copies == 0


def test_colors_above_the_vertex_count_change_nothing():
    # level-free A2 -> B3 in C5 has 15 A-copies, the search's vertices
    c, b, a = (make_algebra([OUT] * n, 0) for n in (5, 3, 2))
    at_vertex_count = arrows(c, b, a, 15)
    assert at_vertex_count.stats.a_copies == 15
    assert at_vertex_count.verdict == "fails"
    assert arrows(c, b, a, 10**6) == at_vertex_count
    ramsey._searched.clear()
    start = time.perf_counter()
    assert arrows(c, b, a, 10**7) == at_vertex_count
    assert time.perf_counter() - start < 0.5


def test_arrows_cache_is_bounded():
    maxsize = _arrows.cache_info().maxsize
    assert maxsize is not None and maxsize == ARROWS_CACHE_SIZE


def test_level_free_arrow_and_its_lift_share_one_search(monkeypatch):
    # C7 B3 A2 at k = 3, level-free and with its atoms but the top one at
    # level 0 of one ideal: one hypergraph, one search, one recheck each
    searches, rechecks = [], []
    search, recheck = ramsey._search, ramsey.recheck_bad_coloring
    monkeypatch.setattr(ramsey, "_search", lambda *args: searches.append(1) or search(*args))
    monkeypatch.setattr(
        ramsey,
        "recheck_bad_coloring",
        lambda c, b, a, k, coloring: rechecks.append((c, a)) or recheck(c, b, a, k, coloring),
    )
    _arrows.cache_clear()
    ramsey._searched.clear()
    free = [make_algebra([OUT] * n, 0) for n in (7, 3, 2)]
    lifted = [make_algebra([0] * (n - 1) + [OUT], 1) for n in (7, 3, 2)]
    certificates = [arrows(c, b, a, 3) for c, b, a in (free, lifted)]
    assert len(searches) == 1
    assert rechecks == [(free[0], free[2]), (lifted[0], lifted[2])]
    for (c, b, a), cert in zip((free, lifted), certificates):
        assert cert.verdict == "fails" and cert.stats.nodes == 12463
        assert (cert.bad_coloring.a, cert.bad_coloring.c) == (a, c)
        assert recheck(c, b, a, 3, cert.bad_coloring)
    assert certificates[0].bad_coloring.colors == certificates[1].bad_coloring.colors


def test_search_cache_hands_each_caller_its_own_list():
    n_vertices, edges = _level_free_hypergraph(5, 3, 2)
    expected = reference_search_bad_coloring(n_vertices, edges, 2)
    ramsey._searched.clear()
    first = _search_bad_coloring(n_vertices, edges, 2)
    assert first == expected
    first[0][:] = [1] * n_vertices
    assert _search_bad_coloring(n_vertices, edges, 2) == expected


def test_search_cache_key_holds_k():
    # level-free A2 -> B3 in C6: one hypergraph, holding at k = 2, failing at 3
    c, b, a = (make_algebra([OUT] * n, 0) for n in (6, 3, 2))
    _arrows.cache_clear()
    ramsey._searched.clear()
    assert arrows(c, b, a, 2).verdict == "holds"
    assert arrows(c, b, a, 3).verdict == "fails"


def test_search_cache_holds_at_most_its_bound_of_masks(monkeypatch):
    assert ramsey._searched.max_masks == SEARCH_CACHE_MASKS
    # level-free A2 -> B3 in C5 .. C8 has S(n, 3) = 25, 90, 301, 966 edges
    graphs = {n: _level_free_hypergraph(n, 3, 2) for n in (5, 6, 7, 8)}
    assert [len(graphs[n][1]) for n in (5, 6, 7, 8)] == [25, 90, 301, 966]
    cache = ramsey._SearchCache(90 + 301)
    monkeypatch.setattr(ramsey, "_searched", cache)

    def held():
        sizes = [len(masks) for *_, masks in cache.results]
        assert cache.masks == sum(sizes) <= cache.max_masks
        return sorted(sizes)

    for n in (6, 7):
        _search_bad_coloring(*graphs[n], 2)
    assert held() == [90, 301]
    _search_bad_coloring(*graphs[5], 2)  # C6, least recently used, goes
    assert held() == [25, 301]
    _search_bad_coloring(*graphs[7], 2)  # a hit makes C7 the most recent
    _search_bad_coloring(*graphs[6], 2)  # so C5 goes
    assert held() == [90, 301]
    # above the bound on its own: searched, not kept, and nothing evicted
    assert _search_bad_coloring(*graphs[8], 2) == reference_search_bad_coloring(*graphs[8], 2)
    assert held() == [90, 301]


def test_color_monotone():
    for t in (0, 1):
        for a in enumerate_algebras(2, t):
            for b in enumerate_algebras(3, t):
                for c in enumerate_algebras(4, t):
                    if arrows(c, b, a, 3).verdict == "holds":
                        assert arrows(c, b, a, 2).verdict == "holds"
                        assert arrows(c, b, a, 1).verdict == "holds"


def test_embedding_monotone():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    hosts = list(enumerate_algebras(4, 1, ClassKind.BJ))
    for c in hosts:
        if arrows(c, b, a, 2).verdict != "holds":
            continue
        for bigger in hosts:
            if enumerate_embeddings(c, bigger, "ordered"):
                assert arrows(bigger, b, a, 2).verdict == "holds"


def test_certificates_deterministic_across_fresh_searches():
    c = make_algebra([0, 0, 0, OUT], 1)
    a = make_algebra([0, OUT], 1)
    first = arrows(c, c, a, 2)
    _arrows.cache_clear()
    ramsey._searched.clear()
    second = arrows(c, c, a, 2)
    assert first == second


def test_oracle_identity_and_single_atom_cases():
    br = make_algebra([OUT] * 3, 0)
    assert dual_ramsey_oracle(br, br, 4, 10) == br
    assert dual_ramsey_oracle(make_algebra([OUT], 0), br, 7, 10) == br


def test_oracle_two_into_three_regression():
    ar = make_algebra([OUT, OUT], 0)
    br = make_algebra([OUT] * 3, 0)
    witness = dual_ramsey_oracle(ar, br, 2, 8)
    assert witness.n_atoms == 6
    with pytest.raises(BoundExceeded):
        dual_ramsey_oracle(ar, br, 2, 5)


def test_oracle_input_errors():
    pure = make_algebra([OUT, OUT], 0)
    with pytest.raises(ChainMismatch):
        dual_ramsey_oracle(pure, make_algebra([OUT, OUT], 1), 2, 6)
    with pytest.raises(NotAnEmbedding):
        dual_ramsey_oracle(pure, make_algebra([OUT], 0), 2, 6)
    with pytest.raises(ValueError):
        dual_ramsey_oracle(pure, pure, 0, 6)


@pytest.fixture
def asked(monkeypatch):
    """The (c, b, a, k) of every ramsey.arrows call, in order."""
    calls = []

    def spy(c, b, a, k):
        calls.append((c, b, a, k))
        return arrows(c, b, a, k)

    monkeypatch.setattr(ramsey, "arrows", spy)
    return calls


def test_oracle_is_the_first_holding_level_free_size(asked):
    # the per-size definition: the first C_n, n = |br| .. max_atoms, with
    # C_n -> (br)^ar_k; the oracle asks arrows of exactly those sizes, in order
    answers = set()
    for nb in (1, 2, 3):
        br = make_algebra([OUT] * nb, 0)
        for na in range(1, nb + 1):
            ar = make_algebra([OUT] * na, 0)
            for k in (1, 2, 3):
                sizes, answer = [], None
                for n in range(nb, 8):
                    sizes.append(n)
                    if arrows(make_algebra([OUT] * n, 0), br, ar, k).verdict == "holds":
                        answer = n
                        break
                answers.add(answer)
                asked.clear()
                if answer is None:
                    with pytest.raises(BoundExceeded, match="within 7 atoms"):
                        dual_ramsey_oracle(ar, br, k, 7)
                else:
                    assert dual_ramsey_oracle(ar, br, k, 7) == make_algebra([OUT] * answer, 0)
                assert asked == [(make_algebra([OUT] * n, 0), br, ar, k) for n in sizes]
    assert {None, 6} <= answers  # A2 -> B3: 6 atoms at k = 2, past 7 at k = 3


def test_oracle_refuses_leveled_operands_of_one_chain_length():
    one, two = make_algebra([OUT], 1), make_algebra([OUT, OUT], 1)
    with pytest.raises(ChainMismatch, match="level-free"):
        dual_ramsey_oracle(one, two, 2, 6)


def test_witness_bu_example():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    c, cert = construct_witness(ClassKind.BU, a, b, 2, 8)
    assert signature_json(c) == [0, 0, 0, 0, 0, 0, "out"]
    assert cert.verdict == "holds"
    assert class_membership(c, ClassKind.BU)
    # assembled as base witness lifted to the occupied level, one atom on top
    base = dual_ramsey_oracle(reduct(a), reduct(b), 2, 8)
    assert c == star(lift(base, 0, 1), make_algebra([OUT], 1))


def test_witness_level_free_base_case():
    a = make_algebra([OUT, OUT], 1)
    b = make_algebra([OUT, OUT, OUT], 1)
    c, cert = construct_witness(ClassKind.BJ, a, b, 2, 8)
    assert signature_json(c) == ["out"] * 6
    assert cert.verdict == "holds"


def test_witness_trivial_algebras():
    one = make_algebra([OUT], 1)
    c, cert = construct_witness(ClassKind.BJU, one, one, 2, 8)
    assert c == one and cert.verdict == "holds"


def test_witness_two_level_example():
    a = make_algebra([0, OUT], 2)
    b = make_algebra([0, 1, OUT], 2)
    c, cert = construct_witness(ClassKind.BJ, a, b, 2, 8)
    assert signature_json(c) == [0, 0, 0, 0, 0, 0, 1, 1, "out"]
    assert cert.verdict == "holds"


def test_witness_no_small_atoms_in_a():
    # B occupies the minimal level, A does not; the recursion still verifies
    a = make_algebra([1, OUT], 2)
    b = make_algebra([0, 1, OUT], 2)
    c, cert = construct_witness(ClassKind.BJ, a, b, 2, 8)
    assert signature_json(c) == [0, 0, 0, 0, 0, 0, 1, 1, "out"]
    assert cert.verdict == "holds"
    assert cert.stats.a_copies == 192 and cert.stats.b_copies == 1995


def test_witness_input_errors():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    with pytest.raises(NotInClass):
        construct_witness(ClassKind.BU, make_algebra([0, 0], 1), b, 2, 8)
    with pytest.raises(NotAnEmbedding):
        construct_witness(ClassKind.BU, b, a, 2, 8)
    with pytest.raises(ValueError):
        construct_witness(ClassKind.BU, a, b, 0, 8)
    with pytest.raises(BoundExceeded):
        construct_witness(ClassKind.BU, a, b, 2, 4)


def test_witness_outside_the_class_is_refused(monkeypatch):
    # the genuine BU witness plus a second outside atom: the arrow still
    # holds, so only the class check can refuse it
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    outside = make_algebra([0] * 6 + [OUT, OUT], 1)
    monkeypatch.setattr(ramsey, "_assemble_witness", lambda a, b, k, max_atoms: outside)
    with pytest.raises(VerificationFailed, match="left the class bu") as refused:
        construct_witness(ClassKind.BU, a, b, 2, 8)
    assert refused.value.certificate.verdict == "holds"


def test_witness_whose_arrow_fails_is_refused(monkeypatch):
    # B itself is in the class, but 2 colors split its 3 copies of A
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    monkeypatch.setattr(ramsey, "_assemble_witness", lambda a, b, k, max_atoms: b)
    with pytest.raises(VerificationFailed, match="fails its arrow check") as refused:
        construct_witness(ClassKind.BU, a, b, 2, 8)
    assert refused.value.certificate.verdict == "fails"


def test_witness_operands_of_two_chain_lengths_are_refused_before_any_arrow(asked):
    # one outside atom embeds into two at any chain length, so only the
    # chain check stops the construction before it asks an arrow relation
    a = make_algebra([OUT], 0)
    b = make_algebra([OUT, OUT], 1)
    with pytest.raises(ChainMismatch, match="witness operands must share the chain length"):
        construct_witness(ClassKind.BJ, a, b, 2, 8)
    with pytest.raises(ChainMismatch, match="witness operands must share the chain length"):
        min_witness(ClassKind.BJ, a, b, 2, 8)
    assert asked == []


def test_min_witness_examples():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    found = min_witness(ClassKind.BU, a, b, 2, 8)
    assert found is not None
    minimal, size = found
    assert signature_json(minimal) == [0, 0, 0, 0, 0, "out"] and size == 6
    assert min_witness(ClassKind.BU, a, a, 2, 8) == (a, 2)
    assert min_witness(ClassKind.BU, a, b, 2, 4) is None


def test_min_witness_builds_no_candidate_below_b(monkeypatch):
    # after the [OUT] membership test, the candidates start at |B| atoms
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    built = []
    real = core.make_algebra
    monkeypatch.setattr(
        core, "make_algebra", lambda levels, t: built.append(tuple(levels)) or real(levels, t)
    )
    minimal, size = min_witness(ClassKind.BU, a, b, 2, 8)
    assert built == [(OUT,)] + [(0,) * n + (OUT,) for n in range(2, size)]
    assert built[-1] == minimal.levels

def test_min_witness_never_beats_construction():
    cases = [
        (ClassKind.BU, make_algebra([0, OUT], 1), make_algebra([0, 0, OUT], 1), 2),
        (ClassKind.BJ, make_algebra([OUT, OUT], 1), make_algebra([OUT] * 3, 1), 2),
        (ClassKind.BJ, make_algebra([0, OUT], 2), make_algebra([0, 1, OUT], 2), 2),
    ]
    for kind, a, b, k in cases:
        constructed, _ = construct_witness(kind, a, b, k, 10)
        found = min_witness(kind, a, b, k, constructed.n_atoms)
        assert found is not None and found[1] <= constructed.n_atoms


def test_oracle_certificate_counts_the_b_copies():
    # _assemble_witness reads its color inflation off this count
    for nb in (1, 2, 3):
        for na in range(1, nb + 1):
            ar = make_algebra([OUT] * na, 0)
            br = make_algebra([OUT] * nb, 0)
            for k in (1, 2, 3) if na == 1 else (1, 2):
                c0 = dual_ramsey_oracle(ar, br, k, 8)
                copies = enumerate_embeddings(br, c0, mode="ordered")
                assert arrows(c0, br, ar, k).stats.b_copies == len(copies)


def test_witness_enumerates_the_base_copies_once(monkeypatch):
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    real = ramsey._ordered_block_maps
    calls = []

    def spy(small, big):
        calls.append((small, big, sys._getframe(1).f_code.co_name))
        return real(small, big)

    _arrows.cache_clear()
    monkeypatch.setattr(ramsey, "_ordered_block_maps", spy)
    construct_witness(ClassKind.BU, a, b, 2, 8)
    monkeypatch.undo()
    c0 = dual_ramsey_oracle(reduct(a), reduct(b), 2, 8)
    base_copies = [call for call in calls if call[:2] == (reduct(b), c0)]
    assert [caller for *_, caller in base_copies] == ["_arrows"]


def test_witness_input_check_enumerates_no_copies(monkeypatch):
    # whether A embeds into B is an existence question: one ordered block map settles it
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    real = ramsey._ordered_block_maps
    drawn = []  # per call: its caller and the block maps it took

    def spy(small, big):
        record = [sys._getframe(1).f_code.co_name, 0]
        drawn.append(record)

        def counted():
            for block_of in real(small, big):
                record[1] += 1
                yield block_of

        return counted()

    _arrows.cache_clear()
    monkeypatch.setattr(ramsey, "_ordered_block_maps", spy)
    construct_witness(ClassKind.BU, a, b, 2, 8)
    min_witness(ClassKind.BU, a, b, 2, 8)
    checks = [taken for caller, taken in drawn if caller == "_check_witness_inputs"]
    assert checks and max(checks) == 1
    assert any(caller == "_arrows" and taken > 1 for caller, taken in drawn)
