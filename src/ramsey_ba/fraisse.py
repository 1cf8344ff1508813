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
into the same A-block.  The identified block maximum of its own A-block is
always such an atom, so absorption never fails, and it keeps levels and
block maxima intact, so r and s are ordered embeddings with r after f equal
to s after g.  Postconditions are re-checked rather than trusted.

The atom a loose atom joins depends only on its key's segment, level and
tag, its own A-block, and the other side, so each side answers once for
every key of its run, the copies of one base: _run ranks all keys of the
run's sides, and one right-to-left pass per side (_absorb) fills two tables
by rank, r's as a B-side and s's as a C-side.  One kernel, _amalgamate_run,
amalgamates one B-side against a list of C-sides of its run: a pair's merge
is one sort of ranks, and D's levels, r and s are three C-level gathers at
those ranks.  A suite shard keeps one amalgam table for all its runs: it
builds each amalgam D once per level tuple and checks D's class membership
once per tuple, a function of the levels, the kind and the chain length,
never of the base; past MAX_AP_AMALGAMS amalgams it clears the table.  r and
s are bytes, so a side B or C has at most MAX_SIDE_ATOMS =
embed.MAX_BYTE_ATOMS = 255 atoms, and 255, which names none of them, is
absorption's "no atom yet".  The kernel checks each distinct block map r or
s once per interned D and host level tuple: a map that passes into D fixes
its host's levels, so D keeps one dict from each checked map, a bytes key
that hashes once, to those levels.  The atom count and the commuting square
run on every pair, the square as one translate of r by f's
embed._translate_table against one of s by g's, and a failed one comes back
as its text.

The amalgamation suite enumerates the class lazily and refuses it, before
listing any copy, once it has more hosts than the square root of
MAX_AP_PAIRS (the base [OUT] has one copy in each) or a host with more than
MAX_SIDE_ATOMS atoms.  It lists and checks each copy of A once, in the
caller, and refuses a suite of more than MAX_AP_PAIRS pairs while it lists
them.  It cuts the pairs into one run of B-sides per base and shard,
whatever the worker count; a shard builds each run's tables once and calls
the kernel once per B-side.  amalgamate refuses a side past MAX_SIDE_ATOMS,
takes its two sides as a run, calls the kernel on the one pair and raises
the failure it returns.  Copies travel as bare block maps, and only
amalgamate turns r and s into tuples, wraps them into Embedding records and
lists the identified atom pairs.  Suite shards are handed the ClassKind and
LabeledAlgebra values and the copies themselves; forked children inherit
them, and send back only results.  The hereditary suite refuses more than
MAX_HP_PARTITIONS partitions while it lists the class, before any shard,
and forks only when it has enough partitions to pay for a child
(HP_PARTITIONS_PER_WORKER).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

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
from .embed import MAX_BYTE_ATOMS as MAX_SIDE_ATOMS, Embedding, _block_maxima
from .embed import _check_block_map, _partition_subalgebra, _sorted_block_maps
from .embed import _translate_table, enumerate_embeddings, validate_embedding
from .errors import AmalgamationFailed, BoundExceeded, NotAnEmbedding
from .parallel import ordered_map, usable_workers

# the most (B, C) copy pairs one amalgamation suite checks: the sum over its
# bases A of the square of A's copy count; bj t = 1 at 6 atoms has 273,424
MAX_AP_PAIRS = 1_000_000

# the most interned amalgams a suite shard keeps: past this it clears its
# table before the next B-side, so a shard holds at most this many plus one
# B-side's C-sides.  check_ap(bj, 2, 997), whose base [OUT] makes about half a
# million level tuples, then peaks at 63 MB against 331 MB with no bound, and
# takes 10.1-15.4 s against 8.9-11.0 s (seven alternating rounds on a shared
# 2-vCPU Linux host).  No benchmark suite holds more than 45 (bj t = 1 at 5 atoms)
MAX_AP_AMALGAMS = 1 << 16

# the most atom partitions, the sum of Bell(n) over its members, one
# hereditary sweep checks; bj t = 1 at 6 atoms has 1,558.  A partition costs
# 6-13 us on a 2-vCPU Linux host, more at more atoms, so this bounds a sweep
# to about 10 s
MAX_HP_PARTITIONS = 1_000_000

# the hereditary sweep takes one worker per this many atom partitions, at most
# the workers asked for.  On a 2-vCPU Linux host a partition costs about
# c = 6 us and a forked child about F = 1.3 ms, and this is F / c: a second
# worker comes at 2F / c partitions, where the half of the sweep it takes off
# the caller first pays for its fork.  Best of 9 at one worker against two:
# 278 partitions (bu t = 1, bj t = 0 at 6 atoms) 1.6-1.8 against 2.8-3.0 ms,
# 340 (bj t = 1, bju t = 2 at 5 atoms) 2.1 against 2.3 ms, 967 (bj t = 2 at
# 5 atoms) 5.7 against 4.3 ms, 1,155 (bj t = 0 at 7 atoms) 7.2 against 6.5 ms
# and 1,558 (bj t = 1 at 6 atoms) 9.5 against 6.2 ms
HP_PARTITIONS_PER_WORKER = 220


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
    the walk that tries B's head before C's.  The two sides are one run, and
    their _run tables absorb the loose atoms.
    """
    for algebra, name in ((a, "A"), (b, "B"), (c, "C")):
        _require_member(algebra, kind, name)
    _require_small_side(b, "B")
    _require_small_side(c, "C")
    _require_ordered_embedding(f, a, b, "f")
    _require_ordered_embedding(g, a, c, "g")
    side_b, side_c = _side(f.block_of, a, b), _side(g.block_of, a, c)
    level_of, (copy_b, copy_c) = _run([side_b, side_c])
    [outcome] = _amalgamate_run(kind, a, level_of, copy_b, [copy_c], {})
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
    """Per-copy data: the host, the block map, its block maxima, its
    embed._translate_table, and its merge keys, for all atoms as the B side
    and for loose atoms as the C side.  A key is (the A-block of the nearest
    block maximum at or after the atom, its level, 0 if loose in B / 1 if
    loose in C / 2 if a block maximum, the atom, the atom's own A-block)."""
    maxima = _block_maxima(block_of, a.n_atoms)
    square = _translate_table(block_of)
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


def _run(sides: list) -> tuple[list, list]:
    """One run, sides being _side data of copies of one base: the level of
    each rank, and per side, in order, its copy (the host, the block map, its
    translate table, its B keys' ranks, its r table, its loose keys' ranks,
    its s table).  Every B key and C-loose key of the run gets its rank in
    sorted order, so a pair's merge sorts ranks, and a key's level is its
    atom's level in D."""
    keys: set[tuple] = set()
    for side in sides:
        keys.update(side[4], side[5])
    order = sorted(keys)
    rank = dict(zip(order, range(len(order)))).__getitem__
    copies = []
    for host, block_of, maxima, square, keys_b, loose_c in sides:
        own_b, own_c = list(map(rank, keys_b)), list(map(rank, loose_c))
        r_of, s_of = _absorb(order, {*own_b, *own_c}, maxima)
        copies.append((host, block_of, square, own_b, r_of, own_c, s_of))
    return [key[1] for key in order], copies


# absorption's "no atom yet": MAX_SIDE_ATOMS names no atom of a side
_UNSET = bytes([MAX_SIDE_ATOMS])


def _absorb(order: list[tuple], own: set[int], maxima: list[int]) -> tuple:
    """One side's absorption tables by rank in order, the run's sorted keys,
    where own holds the side's ranks: r, as a B-side, for its keys and every
    C-loose key of the run, and s, as a C-side, for its loose keys and every
    B key of the run.  One right-to-left pass over order builds both.

    Each table sends an own key to its own atom, and a key of the other side
    to the nearest later own atom of that key's A-block i; for s, B's block
    maximum i is the side's maxima[i], the identified atom.  That is a pair's
    absorption, though the pass also walks the keys of the run's other sides:
    the own atoms past a key are the same, and the maxima of block i of all
    B-sides share (i, A-atom i's level, 2), so any one of them stands for the
    pair's.  Other ranks, and keys with no such atom, hold _UNSET."""
    r = bytearray(_UNSET * len(order))
    s = bytearray(r)
    near_b = bytearray(_UNSET * len(maxima))  # per A-block, the nearest own atom as B
    near_c = bytearray(near_b)  # and as C
    for p in range(len(order) - 1, -1, -1):
        _, _, tag, x, i = order[p]
        if tag == 1:  # a C-loose key: r answers it, s only if it is own
            r[p] = near_b[i]
            if p in own:
                s[p] = near_c[i] = x
        else:  # a B key: s answers it, r only if it is own
            if tag == 2:  # B's block maximum i, identified with C's maxima[i]
                near_c[i] = maxima[i]
            s[p] = near_c[i]
            if p in own:
                r[p] = near_b[i] = x
    return r, s


def _amalgamate_run(
    kind: ClassKind,
    a: LabeledAlgebra,
    level_of: list,
    copy_b: tuple,
    copies_c: list,
    amalgams: dict,
) -> list:
    """Amalgamate one checked copy of A with each copy in copies_c, all
    copies of one _run with its levels level_of, of hosts with at most
    MAX_SIDE_ATOMS atoms, in one pass; per C-side, (d, r's block map, s's
    block map) with the maps as bytes, or the text of the first postcondition
    the pair fails: the atom count, the commuting square, then D's class
    membership.  A pair sorts the ranks of its keys, and D's levels, r and s
    are three C-level gathers at them: of level_of, of B's r table and of C's
    s table.

    amalgams interns D by its level tuple, with D's class membership and a
    dict from each block map already checked into D to its host's levels,
    across all runs of a suite shard, whose bases share the kind and the
    chain length; amalgamate passes a fresh dict.
    Membership is a function of the levels, and the check of r or s a function
    of the map and its host's levels, so each is checked once per D; a map
    that passes fixes its host's levels (block i's is the level in D of its
    largest atom), so with other host levels the same map would fail.  A map
    enters the dict only after its check passes, so a NotAnEmbedding is still
    raised on every pair that has it.  The atom count and the square are
    checked on every pair; the square translates r by f's table and s by g's.
    """
    b, _, f_square, own_b, r_of, _, _ = copy_b
    b_levels = b.levels
    size = len(b_levels) - len(a.levels)  # D has size atoms besides C's
    outcomes: list = []
    for c, _, g_square, _, _, own_c, s_of in copies_c:
        ranks = sorted(own_b + own_c)
        # itemgetter of one index returns the item, not a 1-tuple
        gather = itemgetter(*ranks) if len(ranks) > 1 else lambda seq: (seq[ranks[0]],)
        levels = gather(level_of)
        r, s = bytes(gather(r_of)), bytes(gather(s_of))
        interned = amalgams.get(levels)
        if interned is None:
            d = make_algebra(levels, a.chain_length)
            interned = amalgams[levels] = d, class_membership(d, kind), {}
        d, member, checked = interned

        # postconditions, never trusted
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


def _partition_count(n: int) -> int:
    """Bell(n), the number of partitions of n >= 1 atoms: the last entry of
    row n - 1 of the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for entry in row:
            nxt.append(nxt[-1] + entry)
        row = nxt
    return row[-1]


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
    The class is listed lazily, keeping the running sum of Bell(n) over its
    members, and a sweep of more than MAX_HP_PARTITIONS partitions raises
    BoundExceeded before any shard is cut or forked.  The sweep takes one
    worker per HP_PARTITIONS_PER_WORKER partitions, at most workers, so a
    small sweep runs in the caller; the report is the same for any worker
    count.
    """
    shards = []
    partitions = 0
    for algebra in enumerate_algebras(max_atoms, chain_length, kind):
        partitions += _partition_count(algebra.n_atoms)
        if partitions > MAX_HP_PARTITIONS:
            raise BoundExceeded(
                f"the hereditary suite checks at most {MAX_HP_PARTITIONS} partitions;"
                " there are more"
            )
        shards.append((kind, algebra))
    workers = min(workers, partitions // HP_PARTITIONS_PER_WORKER)
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
    # one amalgam table per shard: D, its membership and its checked maps
    # depend on D's levels, the kind and the chain length, none on the base
    amalgams: dict = {}  # level tuple -> (D, D in the class, maps checked into D)
    for a, copies, start, stop in runs:
        level_of, run = _run([_side(block_of, a, host) for host, block_of in copies])
        for copy_b in run[start:stop]:
            if len(amalgams) > MAX_AP_AMALGAMS:
                amalgams.clear()  # only time is lost: the pairs rebuild what they need
            outcomes = _amalgamate_run(kind, a, level_of, copy_b, run, amalgams)
            for copy_c, outcome in zip(run, outcomes):
                if type(outcome) is str:
                    violations.append(
                        {
                            "a": signature_json(a),
                            "b": signature_json(copy_b[0]),
                            "c": signature_json(copy_c[0]),
                            "f": list(copy_b[1]),
                            "g": list(copy_c[1]),
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
