"""Hereditary property, joint embedding, and constructive amalgamation.

Given ordered embeddings f of A into B and g of A into C, an amalgam is
built on the disjoint union of the atom sets of B and C with the block
maxima of f and g identified pairwise.  Its atom order is one sort of B's
atoms and C's loose atoms by the key (the A-block of the nearest block
maximum at or after the atom, its level, 0 if loose in B / 1 if loose in C
/ 2 if a block maximum, the atom).  Segment j's atoms on both sides have
levels at most A-atom j's level and segment j + 1's at least that, so levels
never decrease; within a segment B goes before C at equal levels and the
identified maximum last, the first completion of the walk that places B's
head before C's.  A completion always exists, so ordering never fails.
Absorption then makes the square commute: a loose atom of one side joins
the block of the nearest image atom of the other side above it that maps
into the same A-block.  One right-to-left pass finds these, keeping per
side the nearest image atom of each A-block seen so far.  The identified
block maximum of its own A-block is always such an atom, so absorption
never fails, and it keeps levels and block maxima intact, so r and s are
ordered embeddings with r after f equal to s after g.  Postconditions are
re-checked rather than trusted.  The amalgamation suite enumerates and checks
each copy of A once, in the caller, over one host list, and cuts the pairs
into one run of B-sides per base and shard, whatever the worker count.  A
shard computes each copy's merge keys once per run and reuses them for every
pair.  Within a run it builds each amalgam D once per level tuple and checks
D's class membership once per tuple, a function of the levels.  It checks each
distinct block map r or s once per interned D, a function of the map and its
host's levels; the atom count and the commuting square run on every pair.
Copies travel as bare block maps, the square commutes by index arithmetic,
and only amalgamate wraps its result into Embedding records.
Suite shards are handed the ClassKind and LabeledAlgebra values and the
copies themselves; forked children inherit them, and send back only results.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    ClassKind,
    LabeledAlgebra,
    OUT,
    _require_member,
    atom_partitions,
    class_membership,
    element,
    enumerate_algebras,
    generated_subalgebra,
    make_algebra,
    signature_json,
)
from .embed import Embedding, _block_maxima, _check_block_map, _sorted_block_maps
from .embed import enumerate_embeddings, validate_embedding
from .errors import AmalgamationFailed, NotAnEmbedding
from .parallel import ordered_map, usable_workers


@dataclass(frozen=True)
class AmalgamationResult:
    """Amalgam D with embeddings r of B and s of C, and the merged atom pairs."""

    d: LabeledAlgebra
    r: Embedding
    s: Embedding
    identified: tuple[tuple[int, int], ...]


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
    """Amalgamate B and C over A along ordered embeddings f and g.

    D's atom order sorts the _side keys of B's atoms and C's loose atoms.
    Both canonical sequences are level-sorted with the block maxima in
    A-block order, so the sort is proper, and it is the first completion of
    the walk that tries B's head before C's.  One right-to-left pass, keeping
    the nearest image atom of each A-block per side, absorbs the loose atoms.
    """
    for algebra, name in ((a, "A"), (b, "B"), (c, "C")):
        _require_member(algebra, kind, name)
    _require_ordered_embedding(f, a, b, "f")
    _require_ordered_embedding(g, a, c, "g")
    sides = _side(f.block_of, a, b), _side(g.block_of, a, c)
    d, r, s, identified = _amalgamate_sides(kind, a, *sides, {})
    return AmalgamationResult(d, Embedding(b, d, r, True), Embedding(c, d, s, True), identified)


def _side(block_of: tuple[int, ...], a: LabeledAlgebra, host: LabeledAlgebra) -> tuple:
    """Per-copy data: the host, the block map, its block maxima, and its merge
    keys, for all atoms as the B side and for loose atoms as the C side.  A
    key is (the A-block of the nearest block maximum at or after the atom, its
    level, 0 if loose in B / 1 if loose in C / 2 if a block maximum, the atom)."""
    maxima = _block_maxima(block_of, a.n_atoms)
    keys_b: list[tuple] = []
    loose_c: list[tuple] = []
    j = 0  # maxima increase, so the nearest one at or after x is maxima[j]
    for x, level in enumerate(host.levels):
        if x == maxima[j]:
            keys_b.append((j, level, 2, x))
            j += 1
        else:
            keys_b.append((j, level, 0, x))
            loose_c.append((j, level, 1, x))
    return host, block_of, maxima, keys_b, loose_c


def _amalgamate_sides(
    kind: ClassKind, a: LabeledAlgebra, side_b: tuple, side_c: tuple, amalgams: dict
) -> tuple:
    """Amalgamate two checked copies of A, given as _side data, into
    (d, r's block map, s's block map, the identified atom pairs).

    amalgams interns D by its level tuple, with D's class membership and the
    set of (host levels, block map) keys already checked into D, within one
    run of a suite shard, whose pairs all share one base A; amalgamate passes
    a fresh dict.
    Membership is a function of the levels, and the check of r or s a function
    of its key, so each is checked once per D; a key enters the set only after
    its check passes, so every failure is still raised on every pair that has it.
    """
    b, f, f_max, keys_b, _ = side_b
    c, g, g_max, _, loose_c = side_c
    keys = sorted(keys_b + loose_c)
    levels = tuple([key[1] for key in keys])
    if levels not in amalgams:
        d = make_algebra(levels, a.chain_length)
        amalgams[levels] = d, class_membership(d, kind), set()
    d, member, checked = amalgams[levels]

    # Absorption: image atoms anchor their own positions; a loose atom joins
    # the nearest later image atom of the other side in the same A-block,
    # which a right-to-left pass over the keys holds in near_b and near_c.
    n = len(keys)
    r_block = [0] * n
    s_block = [0] * n
    near_b = [-1] * len(a.levels)
    near_c = [-1] * len(a.levels)
    for pos in range(n - 1, -1, -1):
        j, _, tag, x = keys[pos]
        if tag == 0:  # loose in B
            r_block[pos] = near_b[f[x]] = x
            s_block[pos] = near_c[f[x]]
        elif tag == 1:  # loose in C
            r_block[pos] = near_b[g[x]]
            s_block[pos] = near_c[g[x]] = x
        else:  # B's block maximum j, identified with C's
            y = g_max[j]
            r_block[pos] = near_b[f[x]] = x
            s_block[pos] = near_c[g[y]] = y

    # postconditions, never trusted
    r, s = tuple(r_block), tuple(s_block)
    if (b.levels, r) not in checked:
        _check_block_map(r, b, d, True)
        checked.add((b.levels, r))
    if (c.levels, s) not in checked:
        _check_block_map(s, c, d, True)
        checked.add((c.levels, s))
    if len(d.levels) != len(b.levels) + len(c.levels) - len(a.levels):
        raise AmalgamationFailed("amalgam has the wrong atom count")
    if [f[x] for x in r_block] != [g[y] for y in s_block]:
        raise AmalgamationFailed("amalgamation square does not commute")
    if not member:
        raise AmalgamationFailed(f"amalgam left the class {kind.value}")
    return d, r, s, tuple(zip(f_max, g_max))


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


def _hp_shard(args: tuple[ClassKind, LabeledAlgebra]) -> tuple[int, list[dict]]:
    kind, algebra = args
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
    shards = [(kind, algebra) for algebra in enumerate_algebras(max_atoms, chain_length, kind)]
    results = ordered_map(_hp_shard, shards, workers)
    return {
        "kind": kind.value,
        "chain_length": chain_length,
        "max_atoms": max_atoms,
        "algebras": len(shards),
        "instances": sum(r[0] for r in results),
        "violations": [v for r in results for v in r[1]],
    }


def _ap_shard(args: tuple[ClassKind, list]) -> list[dict]:
    kind, runs = args
    violations: list[dict] = []
    for a, copies, start, stop in runs:
        # one per run: a shard holds one base's amalgams at a time
        amalgams: dict = {}  # level tuple -> (D, D in the class, keys checked into D)
        sides = [_side(block_of, a, host) for host, block_of in copies]
        for side_b, side_c in itertools.product(sides[start:stop], sides):
            try:
                _amalgamate_sides(kind, a, side_b, side_c, amalgams)
            except AmalgamationFailed as failure:
                violations.append(
                    {
                        "a": signature_json(a),
                        "b": signature_json(side_b[0]),
                        "c": signature_json(side_c[0]),
                        "f": list(side_b[1]),
                        "g": list(side_c[1]),
                        "error": str(failure),
                    }
                )
    return violations


def check_ap(
    kind: ClassKind,
    max_atoms: int,
    chain_length: int,
    max_a_atoms: int | None = None,
    workers: int = 1,
) -> dict:
    """Amalgamation sweep over every ordered embedding pair in the bounds.

    A base A contributes every pair of its ordered copies over all hosts:
    the square of its copy count m_A.  The caller lists and checks each
    base's copies once, as (host, block map) pairs, and cuts the (A, B-side)
    list, in order, into one contiguous run of near-equal pair counts per
    usable worker; a cut with no run is dropped, so one worker runs one
    shard.  A shard pairs each B-side of a run with all of its base's
    copies.  Violations list pairs by base, then by (B, f), then by (C, g),
    the same for any worker count.
    """
    # a base with more atoms than max_atoms has no copy in any host
    cap = max_atoms if max_a_atoms is None else min(max_a_atoms, max_atoms)
    bases = list(enumerate_algebras(cap, chain_length, kind))
    hosts = list(enumerate_algebras(max_atoms, chain_length, kind))
    copies = []  # per base: its checked ordered copies, as (host, block map) pairs
    for a in bases:
        pairs = []
        for host in hosts:
            for block_of in _sorted_block_maps(a, host):
                _check_block_map(block_of, a, host, True)
                pairs.append((host, block_of))
        copies.append(pairs)
    instances = sum(len(pairs) ** 2 for pairs in copies)
    workers = max(usable_workers(workers), 1)
    cuts: list[list] = [[] for _ in range(workers)]
    done = 0  # a run is [A, A's copies, first B-side index, end index]
    for a, pairs in zip(bases, copies):
        for i in range(len(pairs)):
            runs = cuts[done * workers // instances]
            if runs and runs[-1][0] is a:
                runs[-1][3] = i + 1
            else:
                runs.append([a, pairs, i, i + 1])
            done += len(pairs)
    shards = [(kind, runs) for runs in cuts if runs]
    results = ordered_map(_ap_shard, shards, workers)
    return {
        "kind": kind.value,
        "chain_length": chain_length,
        "max_atoms": max_atoms,
        "max_a_atoms": cap,
        "base_algebras": len(bases),
        "instances": instances,
        "violations": [v for r in results for v in r],
    }
