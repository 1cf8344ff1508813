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
re-checked rather than trusted.  One kernel, _amalgamate_run, amalgamates one
B-side against a list of C-sides of the same base in one pass: it unpacks
the B-side once, and the merge keys carry each atom's A-block, so absorption
reads no block map.  Within one base's run it builds each amalgam D once per
level tuple and checks D's class membership once per tuple, a function of the
levels.  The kernel builds r and s in bytearrays and freezes them as bytes,
so a side B or C has at most MAX_SIDE_ATOMS = 255 atoms, and 255, which names
none of them, is absorption's "no atom yet".  It checks each distinct block
map r or s once per interned D and host level tuple: a map that passes into
D fixes its host's levels, so D keeps one dict from each checked map, a
bytes key that hashes once, to those levels.  The atom count and the
commuting square run on every pair, the square as one translate of r by f's
256-byte table against one of s by g's, and a failed one comes back as its
text.  The amalgamation suite enumerates the class lazily and refuses it,
before listing any copy, once it has more hosts than the square root of
MAX_AP_PAIRS (the base [OUT] has one copy in each) or a host with more than
MAX_SIDE_ATOMS atoms.  It lists and checks each copy of A once, in the
caller, and refuses a suite of more than MAX_AP_PAIRS pairs while it lists
them.  It cuts the pairs into one run of
B-sides per base and shard, whatever the worker count, and a shard calls the
kernel once per B-side; amalgamate refuses a side past MAX_SIDE_ATOMS, calls
the kernel on one pair and raises the failure it returns.  Copies travel as
bare block maps, and only amalgamate turns r and s into tuples, wraps them
into Embedding records and lists the identified atom pairs.
Suite shards are handed the ClassKind and LabeledAlgebra values and the
copies themselves; forked children inherit them, and send back only results.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    ClassKind,
    LabeledAlgebra,
    OUT,
    _require_member,
    atom_partitions,
    class_membership,
    enumerate_algebras,
    make_algebra,
    signature_json,
)
from .embed import Embedding, _block_maxima, _check_block_map, _partition_subalgebra
from .embed import _sorted_block_maps, enumerate_embeddings, validate_embedding
from .errors import AmalgamationFailed, BoundExceeded, NotAnEmbedding
from .parallel import ordered_map, usable_workers

# the most (B, C) copy pairs one amalgamation suite checks: the sum over its
# bases A of the square of A's copy count; bj t = 1 at 6 atoms has 273,424
MAX_AP_PAIRS = 1_000_000

# the most atoms an amalgamation side B or C may have: block maps travel as
# bytes, naming a side's atoms 0 .. 254, and 255 is absorption's "no atom yet"
MAX_SIDE_ATOMS = 255


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
    _require_small_side(b, "B")
    _require_small_side(c, "C")
    _require_ordered_embedding(f, a, b, "f")
    _require_ordered_embedding(g, a, c, "g")
    side_b, side_c = _side(f.block_of, a, b), _side(g.block_of, a, c)
    [outcome] = _amalgamate_run(kind, a, side_b, [side_c], {})
    if type(outcome) is str:
        raise AmalgamationFailed(outcome)
    d, r, s = outcome
    identified = tuple(zip(side_b[2], side_c[2]))
    return AmalgamationResult(
        d, Embedding(b, d, tuple(r), True), Embedding(c, d, tuple(s), True), identified
    )


def _require_small_side(host: LabeledAlgebra, name: str) -> None:
    if host.n_atoms > MAX_SIDE_ATOMS:
        raise BoundExceeded(
            f"amalgamation sides have at most {MAX_SIDE_ATOMS} atoms; {name} has {host.n_atoms}"
        )


def _side(block_of: tuple[int, ...], a: LabeledAlgebra, host: LabeledAlgebra) -> tuple:
    """Per-copy data: the host, the block map, its block maxima, the map as a
    256-byte translate table (zeros past the host's atoms), and its merge
    keys, for all atoms as the B side and for loose atoms as the C side.  A
    key is (the A-block of the nearest block maximum at or after the atom, its
    level, 0 if loose in B / 1 if loose in C / 2 if a block maximum, the atom,
    the atom's own A-block)."""
    maxima = _block_maxima(block_of, a.n_atoms)
    square = bytes(block_of).ljust(256, b"\0")
    keys_b: list[tuple] = []
    loose_c: list[tuple] = []
    j = 0  # maxima increase, so the nearest one at or after x is maxima[j]
    for x, level in enumerate(host.levels):
        if x == maxima[j]:
            keys_b.append((j, level, 2, x, j))
            j += 1
        else:
            keys_b.append((j, level, 0, x, block_of[x]))
            loose_c.append((j, level, 1, x, block_of[x]))
    return host, block_of, maxima, square, keys_b, loose_c


def _amalgamate_run(
    kind: ClassKind, a: LabeledAlgebra, side_b: tuple, sides_c: list, amalgams: dict
) -> list:
    """Amalgamate one checked copy of A with each copy in sides_c, all given
    as _side data of hosts with at most MAX_SIDE_ATOMS atoms, in one pass; per
    C-side, (d, r's block map, s's block map) with the maps as bytes, or the
    text of the first postcondition the pair fails: the atom count, the
    commuting square, then D's class membership.

    amalgams interns D by its level tuple, with D's class membership and a
    dict from each block map already checked into D to its host's levels,
    within one run of a suite shard, whose pairs all share one base A;
    amalgamate passes a fresh dict.
    Membership is a function of the levels, and the check of r or s a function
    of the map and its host's levels, so each is checked once per D; a map
    that passes fixes its host's levels (block i's is the level in D of its
    largest atom), so with other host levels the same map would fail.  A map
    enters the dict only after its check passes, so a NotAnEmbedding is still
    raised on every pair that has it.  The atom count and the square are
    checked on every pair; the square translates r by f's table and s by g's.
    """
    b, _, _, f_square, keys_b, _ = side_b
    b_levels = b.levels
    k = len(a.levels)
    size = len(b_levels) - k  # D has size atoms besides C's
    unset = bytes([MAX_SIDE_ATOMS]) * k  # no host atom has this index
    outcomes: list = []
    for c, _, g_max, g_square, _, loose_c in sides_c:
        keys = sorted(keys_b + loose_c)
        levels = tuple([key[1] for key in keys])
        interned = amalgams.get(levels)
        if interned is None:
            d = make_algebra(levels, a.chain_length)
            interned = amalgams[levels] = d, class_membership(d, kind), {}
        d, member, checked = interned

        # Absorption: image atoms anchor their own positions; a loose atom joins
        # the nearest later image atom of the other side in the same A-block,
        # which a right-to-left pass over the keys holds in near_b and near_c.
        n = len(keys)
        r_block = bytearray(n)
        s_block = bytearray(n)
        near_b = bytearray(unset)
        near_c = bytearray(unset)
        for pos in range(n - 1, -1, -1):
            _, _, tag, x, i = keys[pos]
            if tag == 0:  # loose in B
                r_block[pos] = near_b[i] = x
                s_block[pos] = near_c[i]
            elif tag == 1:  # loose in C
                r_block[pos] = near_b[i]
                s_block[pos] = near_c[i] = x
            else:  # B's block maximum i, identified with C's
                r_block[pos] = near_b[i] = x
                s_block[pos] = near_c[i] = g_max[i]

        # postconditions, never trusted
        r, s = bytes(r_block), bytes(s_block)
        if checked.get(r) != b_levels:
            _check_block_map(r, b, d, True)
            checked[r] = b_levels
        if checked.get(s) != c.levels:
            _check_block_map(s, c, d, True)
            checked[s] = c.levels
        if len(d.levels) != size + len(c.levels):
            outcomes.append("amalgam has the wrong atom count")
        elif r.translate(f_square) != s.translate(g_square):
            outcomes.append("amalgamation square does not commute")
        elif not member:
            outcomes.append(f"amalgam left the class {kind.value}")
        else:
            outcomes.append((d, r, s))
    return outcomes


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
        sub, block_of = _partition_subalgebra(algebra, blocks)
        _check_block_map(block_of, sub, algebra, True)
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
    generator subset can produce.  Each partition's subalgebra and checked
    block map come from embed._partition_subalgebra, which the test
    test_partition_subalgebra_is_the_closure_of_its_blocks compares with the
    Boolean closure of the blocks on every partition for n <= 6 and t <= 2.
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
        amalgams: dict = {}  # level tuple -> (D, D in the class, maps checked into D)
        sides = [_side(block_of, a, host) for host, block_of in copies]
        for side_b in sides[start:stop]:
            outcomes = _amalgamate_run(kind, a, side_b, sides, amalgams)
            for side_c, outcome in zip(sides, outcomes):
                if type(outcome) is str:
                    violations.append(
                        {
                            "a": signature_json(a),
                            "b": signature_json(side_b[0]),
                            "c": signature_json(side_c[0]),
                            "f": list(side_b[1]),
                            "g": list(side_c[1]),
                            "error": outcome,
                        }
                    )
    return violations


def _too_many_pairs() -> BoundExceeded:
    return BoundExceeded(
        f"the amalgamation suite checks at most {MAX_AP_PAIRS} pairs; there are more"
    )


def check_ap(
    kind: ClassKind,
    max_atoms: int,
    chain_length: int,
    max_a_atoms: int | None = None,
    workers: int = 1,
) -> dict:
    """Amalgamation sweep over every ordered embedding pair in the bounds.

    A base A contributes every pair of its ordered copies over all hosts:
    the square of its copy count m_A.  The class is enumerated once, lazily;
    the bases are its leading members with at most cap atoms, since members
    come by atom count, and a base's copies are listed only in hosts with at
    least its atom count.  With cap >= 1 the base [OUT] has one copy in each
    host, so H hosts make at least H^2 pairs: the listing stops and raises
    BoundExceeded at isqrt(MAX_AP_PAIRS) + 1 hosts, and a largest host with
    more than MAX_SIDE_ATOMS atoms, which block maps as bytes cannot name, is
    refused too; with cap < 1 there is no base and no host is listed.  The
    caller lists and checks each base's copies once, as (host, block map)
    pairs, keeping the running sum of m_A squared, and raises BoundExceeded
    as soon as it passes MAX_AP_PAIRS, before any shard is cut or forked.
    It cuts the (A, B-side) list, in order, into one contiguous run of
    near-equal pair counts per usable worker; a cut with no run is dropped,
    so one worker runs one shard.  A shard amalgamates
    each B-side of a run with all of its base's copies in one
    _amalgamate_run pass.  Violations list pairs by base, then by (B, f),
    then by (C, g), the same for any worker count.
    """
    # a base with more atoms than max_atoms has no copy in any host
    cap = max_atoms if max_a_atoms is None else min(max_a_atoms, max_atoms)
    # the base [OUT] has one copy in every host, so with any base H hosts make
    # at least H^2 pairs: stop at the first host past the budget's square root
    limit = math.isqrt(MAX_AP_PAIRS) + 1 if cap >= 1 else 0
    hosts = list(itertools.islice(enumerate_algebras(max_atoms, chain_length, kind), limit))
    if len(hosts) == limit > 0:
        raise _too_many_pairs()
    if hosts:
        _require_small_side(hosts[-1], "the largest host")  # hosts come by atom count
    bases = list(itertools.takewhile(lambda a: a.n_atoms <= cap, hosts))
    copies = []  # per base: its checked ordered copies, as (host, block map) pairs
    instances = 0  # the sum of m_A squared so far
    for a in bases:
        pairs = []
        for host in [host for host in hosts if host.n_atoms >= a.n_atoms]:
            for block_of in _sorted_block_maps(a, host):
                _check_block_map(block_of, a, host, True)
                instances += 2 * len(pairs) + 1  # (m + 1)^2 - m^2
                if instances > MAX_AP_PAIRS:
                    raise _too_many_pairs()
                pairs.append((host, block_of))
        copies.append(pairs)
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
