"""Hereditary property, joint embedding, and constructive amalgamation.

Given ordered embeddings f of A into B and g of A into C, an amalgam is
built on the disjoint union of the atom sets of B and C with the block
maxima of f and g identified pairwise.  A linear order of the merged atoms
is grown left to right by interleaving the two canonical atom sequences,
keeping levels nondecreasing (a merged atom is placed when it heads both
sequences); the first completion in branch order, B head tried before C
head, is used.  Absorption then makes the square commute: a loose atom of
one side joins the block of the nearest image atom of the other side at or
above it that maps into the same A-block.  The identified block maximum of
its own A-block is always such an atom, so absorption never fails, and it
keeps levels and block maxima intact, so r and s are ordered embeddings
with r after f equal to s after g.  Postconditions are re-checked rather
than trusted.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    ClassKind,
    LabeledAlgebra,
    Level,
    OUT,
    atom_partitions,
    class_membership,
    element,
    enumerate_algebras,
    generated_subalgebra,
    level_key,
    make_algebra,
    signature_json,
)
from .embed import Embedding, compose, enumerate_embeddings, validate_embedding
from .errors import AmalgamationFailed, NotAnEmbedding, NotInClass
from .parallel import ordered_map


@dataclass(frozen=True)
class AmalgamationResult:
    """Amalgam D with embeddings r of B and s of C, and the merged atom pairs."""

    d: LabeledAlgebra
    r: Embedding
    s: Embedding
    identified: tuple[tuple[int, int], ...]


def _require_member(algebra: LabeledAlgebra, kind: ClassKind, name: str) -> None:
    if not class_membership(algebra, kind):
        raise NotInClass(
            f"{name} with levels {signature_json(algebra)} is not in {kind.value}"
        )


def _require_ordered_embedding(
    e: Embedding, small: LabeledAlgebra, big: LabeledAlgebra, name: str
) -> None:
    if e.small != small or e.big != big:
        raise NotAnEmbedding(f"{name} does not connect the given algebras")
    if not e.ordered:
        raise NotAnEmbedding(f"{name} must be an ordered embedding")
    validate_embedding(e)


def amalgamate(
    kind: ClassKind,
    a: LabeledAlgebra,
    b: LabeledAlgebra,
    c: LabeledAlgebra,
    f: Embedding,
    g: Embedding,
) -> AmalgamationResult:
    """Amalgamate B and C over A along ordered embeddings f and g."""
    for algebra, name in ((a, "A"), (b, "B"), (c, "C")):
        _require_member(algebra, kind, name)
    _require_ordered_embedding(f, a, b, "f")
    _require_ordered_embedding(g, a, c, "g")

    k = a.n_atoms
    f_max = [max(block) for block in f.blocks()]
    g_max = [max(block) for block in g.blocks()]

    # Token streams: the canonical atom sequences of B and C, block maxima
    # replaced by shared merged tokens ("M", i).
    merged_of_b = {f_max[i]: i for i in range(k)}
    merged_of_c = {g_max[i]: i for i in range(k)}
    tokens_b = [("M", merged_of_b[x]) if x in merged_of_b else ("B", x) for x in b.atoms]
    tokens_c = [("M", merged_of_c[x]) if x in merged_of_c else ("C", x) for x in c.atoms]

    def token_level(token: tuple[str, int]) -> Level:
        tag, x = token
        if tag == "B":
            return b.levels[x]
        if tag == "C":
            return c.levels[x]
        return a.levels[x]

    placed: list[tuple[str, int]] = []

    def interleavings(pb: int, pc: int) -> Iterator[list[tuple[str, int]]]:
        if pb == len(tokens_b) and pc == len(tokens_c):
            yield list(placed)
            return
        last = level_key(token_level(placed[-1])) if placed else None
        candidates = []
        if pb < len(tokens_b):
            head = tokens_b[pb]
            if head[0] != "M" or (pc < len(tokens_c) and tokens_c[pc] == head):
                candidates.append((head, pb + 1, pc + (head[0] == "M")))
        if pc < len(tokens_c):
            head = tokens_c[pc]
            if head[0] == "C":
                candidates.append((head, pb, pc + 1))
        for token, nb, nc in candidates:
            if last is not None and level_key(token_level(token)) < last:
                continue
            placed.append(token)
            yield from interleavings(nb, nc)
            placed.pop()

    solution = next(interleavings(0, 0), None)
    if solution is None:
        raise AmalgamationFailed(
            f"no proper interleaving for A={signature_json(a)},"
            f" B={signature_json(b)}, C={signature_json(c)},"
            f" f={list(f.block_of)}, g={list(g.block_of)}"
        )

    # Absorption: image atoms anchor their own positions; a loose atom joins
    # the nearest later image atom of the other side in the same A-block.
    d = make_algebra([token_level(token) for token in solution], a.chain_length)
    r_block = [-1] * d.n_atoms
    s_block = [-1] * d.n_atoms
    for pos, (tag, x) in enumerate(solution):
        if tag in ("B", "M"):
            r_block[pos] = x if tag == "B" else f_max[x]
        if tag in ("C", "M"):
            s_block[pos] = x if tag == "C" else g_max[x]
    for pos, (tag, x) in enumerate(solution):
        if tag == "C":
            stage = g.block_of[x]
            target = next(
                q
                for q in range(pos + 1, d.n_atoms)
                if r_block[q] >= 0 and f.block_of[r_block[q]] == stage
            )
            r_block[pos] = r_block[target]
        elif tag == "B":
            stage = f.block_of[x]
            target = next(
                q
                for q in range(pos + 1, d.n_atoms)
                if s_block[q] >= 0 and g.block_of[s_block[q]] == stage
            )
            s_block[pos] = s_block[target]

    r = Embedding(small=b, big=d, block_of=tuple(r_block), ordered=True)
    s = Embedding(small=c, big=d, block_of=tuple(s_block), ordered=True)

    # postconditions, never trusted
    validate_embedding(r)
    validate_embedding(s)
    if d.n_atoms != b.n_atoms + c.n_atoms - k:
        raise AmalgamationFailed("amalgam has the wrong atom count")
    if compose(r, f) != compose(s, g):
        raise AmalgamationFailed("amalgamation square does not commute")
    if not class_membership(d, kind):
        raise AmalgamationFailed(f"amalgam left the class {kind.value}")
    return AmalgamationResult(
        d=d,
        r=r,
        s=s,
        identified=tuple((f_max[i], g_max[i]) for i in range(k)),
    )


def joint_embed(
    kind: ClassKind, b: LabeledAlgebra, c: LabeledAlgebra
) -> AmalgamationResult:
    """Joint embedding: amalgamate over the one-atom algebra with an OUT atom."""
    a = make_algebra([OUT], b.chain_length)
    f = enumerate_embeddings(a, b, mode="ordered")
    g = enumerate_embeddings(a, c, mode="ordered")
    if len(f) != 1 or len(g) != 1:
        raise NotAnEmbedding("operands do not admit the one-block embedding")
    return amalgamate(kind, a, b, c, f[0], g[0])


# ---------------------------------------------------------------------------
# exhaustive suites


def _hp_shard(args: tuple[str, tuple[Level, ...], int]) -> tuple[int, list[dict]]:
    kind_value, levels, chain_length = args
    kind = ClassKind(kind_value)
    algebra = make_algebra(levels, chain_length)
    instances = 0
    violations: list[dict] = []
    for blocks in atom_partitions(algebra.n_atoms):
        gens = [element(algebra, block) for block in blocks]
        sub, emb = generated_subalgebra(algebra, gens)
        validate_embedding(emb)
        instances += 1
        if not class_membership(sub, kind):
            violations.append(
                {
                    "algebra": signature_json(algebra),
                    "partition": blocks,
                    "subalgebra": signature_json(sub),
                }
            )
    return instances, violations


def check_hp(
    kind: ClassKind, max_atoms: int, chain_length: int, workers: int = 1
) -> dict:
    """Hereditary property sweep: every generated subalgebra stays in kind.

    Generated subalgebras are quantified by atom partitions; any generator
    family induces the partition of atoms by membership fingerprint, and any
    partition arises from its own blocks, so this covers every subalgebra a
    generator subset can produce.
    """
    shards = [
        (kind.value, algebra.levels, chain_length)
        for algebra in enumerate_algebras(max_atoms, chain_length, kind)
    ]
    results = ordered_map(_hp_shard, shards, workers)
    return {
        "kind": kind.value,
        "chain_length": chain_length,
        "max_atoms": max_atoms,
        "algebras": len(shards),
        "instances": sum(r[0] for r in results),
        "violations": [v for r in results for v in r[1]],
    }


def _ap_shard(
    args: tuple[str, tuple[Level, ...], int, int]
) -> tuple[int, list[dict]]:
    kind_value, a_levels, chain_length, max_atoms = args
    kind = ClassKind(kind_value)
    a = make_algebra(a_levels, chain_length)
    instances = 0
    violations: list[dict] = []
    copies = [
        (host, enumerate_embeddings(a, host, mode="ordered"))
        for host in enumerate_algebras(max_atoms, chain_length, kind)
        if host.n_atoms >= a.n_atoms
    ]
    for b, fs in copies:
        for c, gs in copies:
            for f in fs:
                for g in gs:
                    instances += 1
                    try:
                        amalgamate(kind, a, b, c, f, g)
                    except AmalgamationFailed as failure:
                        violations.append(
                            {
                                "a": signature_json(a),
                                "b": signature_json(b),
                                "c": signature_json(c),
                                "f": list(f.block_of),
                                "g": list(g.block_of),
                                "error": str(failure),
                            }
                        )
    return instances, violations


def check_ap(
    kind: ClassKind,
    max_atoms: int,
    chain_length: int,
    max_a_atoms: int | None = None,
    workers: int = 1,
) -> dict:
    """Amalgamation sweep over every ordered embedding pair in the bounds."""
    cap = max_atoms if max_a_atoms is None else max_a_atoms
    shards = [
        (kind.value, algebra.levels, chain_length, max_atoms)
        for algebra in enumerate_algebras(cap, chain_length, kind)
    ]
    results = ordered_map(_ap_shard, shards, workers)
    return {
        "kind": kind.value,
        "chain_length": chain_length,
        "max_atoms": max_atoms,
        "max_a_atoms": cap,
        "base_algebras": len(shards),
        "instances": sum(r[0] for r in results),
        "violations": [v for r in results for v in r[1]],
    }
