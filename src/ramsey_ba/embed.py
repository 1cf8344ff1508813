"""Embeddings between algebras, and the gluing operations on signatures.

An embedding of a small algebra into a big one is recorded contravariantly
as a surjective block map on atoms: block_of[b] names the small atom whose
image absorbs big atom b.  The induced element map sends a small element to
the union of its blocks.  Conditions:

* partition: every block is nonempty,
* levels: the maximal level inside block i equals the small atom i's level,
* ordered (optional): block maxima strictly increase with i, which is
  equivalent to the induced map preserving the natural orders on both sides.

Since atoms are stored level-sorted, a block's level is its largest atom's.
An ordered embedding is block maxima m_0 < ... < m_{k-1} = n-1, big atom m_i
at small atom i's level, plus any block i with m_i > b for each other big
atom b.  Ordered embeddings are rigid, so they are in bijection with copies.
Sorting a plain embedding's blocks by their maxima leaves a unique ordered
one and a level-preserving relabelling of the small atoms: a proper order.

Block maps are the internal currency.  Every sorted copy list, of either
mode, comes from _sorted_block_maps, which also enforces the copies report's
output bound: the arrow check, the amalgamation suite and the coloring writer
read it, enumerate_embeddings wraps each map in an Embedding, and the copies
report carries them bare in a Copies value.  The suite checks each copy with
_check_block_map, and each distinct r and s once per amalgam, which it builds
once per level tuple.  Subalgebras are derived here, from a partition of the
host's atoms, by _partition_subalgebra: the hereditary-property suite checks
its bare block map, and generated_subalgebra wraps the map in an Embedding.
Embedding records are built only by public functions.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

from .core import OUT, Element, LabeledAlgebra, _require_same_chain, elements, make_algebra
from .errors import (
    BoundExceeded,
    ImproperConcatenation,
    LevelOutOfRange,
    LevelOverlap,
    MixedAlgebras,
    NotAnEmbedding,
    SizeMismatch,
)
from .order import count_proper_orders, enumerate_proper_orders

Mode = Literal["plain", "ordered"]

MAX_BYTE_ATOMS = 255  # a block map in bytes names small atoms 0 .. 254; 255 names none


@dataclass(frozen=True)
class Embedding:
    """A block map atoms(big) -> atoms(small) meeting the conditions above."""

    small: LabeledAlgebra
    big: LabeledAlgebra
    block_of: tuple[int, ...]
    ordered: bool = False

    def blocks(self) -> list[list[int]]:
        """Big atoms per small atom."""
        out: list[list[int]] = [[] for _ in range(self.small.n_atoms)]
        for b, i in enumerate(self.block_of):
            out[i].append(b)
        return out

    def induced(self, x: Element) -> Element:
        """Image of a small element: the union of its blocks."""
        if x.algebra != self.small:
            raise MixedAlgebras("element does not belong to the small algebra")
        return Element(
            self.big,
            frozenset(b for b, i in enumerate(self.block_of) if i in x.atoms),
        )


def _partition_subalgebra(algebra: LabeledAlgebra, blocks: Iterable[list[int]]) -> tuple:
    """The subalgebra with a partition's blocks as atoms, and its ordered block
    map: blocks by their largest atom, each at its level.  blocks is only read."""
    blocks = sorted(blocks, key=max)
    block_of = [0] * algebra.n_atoms
    for i, block in enumerate(blocks):
        for a in block:
            block_of[a] = i
    levels = [algebra.levels[max(block)] for block in blocks]
    return make_algebra(levels, algebra.chain_length), tuple(block_of)


def generated_subalgebra(
    algebra: LabeledAlgebra, gens: Iterable[Element]
) -> tuple[LabeledAlgebra, Embedding]:
    """Subalgebra generated by gens, with its ordered embedding into the host:
    its atoms are the host atoms grouped by membership in the generators."""
    gens = list(gens)
    if any(g.algebra != algebra for g in gens):
        raise MixedAlgebras("generator does not belong to the given algebra")
    fingerprint: dict[tuple[bool, ...], list[int]] = {}
    for a in algebra.atoms:
        fingerprint.setdefault(tuple(a in g.atoms for g in gens), []).append(a)
    sub, block_of = _partition_subalgebra(algebra, fingerprint.values())
    return sub, Embedding(small=sub, big=algebra, block_of=block_of, ordered=True)


def _translate_table(block_of: Sequence[int]) -> bytes:
    """block_of as a bytes.translate table, zeros past its atoms: a copy of B in
    C as bytes, translated by a copy of A in B's table, is compose's block map."""
    return bytes(block_of).ljust(256, b"\0")


def _block_maxima(block_of: tuple[int, ...], k: int) -> list[int]:
    """The largest big atom of each block, -1 where a block is empty."""
    maxima = [-1] * k
    for b, i in enumerate(block_of):
        maxima[i] = b
    return maxima


def validate_embedding(e: Embedding) -> None:
    """Raise NotAnEmbedding unless all conditions hold (ordered only if flagged)."""
    _check_block_map(e.block_of, e.small, e.big, e.ordered)


def _check_block_map(
    block_of: Sequence[int], small: LabeledAlgebra, big: LabeledAlgebra, ordered: bool
) -> None:
    """validate_embedding on a bare block map, a tuple or the amalgamation
    kernel's bytes, ChainMismatch included."""
    if small.chain_length != big.chain_length:
        _require_same_chain(small, big)  # raises; the comparison spares the call
    small_levels, big_levels = small.levels, big.levels
    k = len(small_levels)
    if len(block_of) != len(big_levels):
        raise NotAnEmbedding(
            f"block map has {len(block_of)} entries for {len(big_levels)} atoms"
        )
    if min(block_of) < 0 or max(block_of) >= k:
        raise NotAnEmbedding("block map names a nonexistent small atom")
    maxima = [-1] * k  # the largest big atom of each block, -1 where it is empty
    for b, i in enumerate(block_of):
        maxima[i] = b
    for i, m in enumerate(maxima):
        if m < 0:
            raise NotAnEmbedding(f"block {i} is empty")
        # atoms are level-sorted, so a block's level is its largest atom's
        if big_levels[m] != small_levels[i]:
            raise NotAnEmbedding(
                f"block {i} has maximal level {big_levels[m]!r},"
                f" atom needs {small_levels[i]!r}"
            )
    # nonempty blocks have distinct maxima, so sorted means increasing
    if ordered and maxima != sorted(maxima):
        raise NotAnEmbedding("block maxima not increasing for an ordered embedding")


def _ordered_block_maps(
    small: LabeledAlgebra, big: LabeledAlgebra
) -> Iterator[tuple[int, ...]]:
    """Ordered block maps: m_{k-1} = n-1, and each level run of the other
    small atoms takes an increasing choice of the big atoms at its level."""
    k, n = small.n_atoms, big.n_atoms
    if small.levels[-1] != big.levels[-1]:
        return
    runs = []
    for level, run in itertools.groupby(small.levels[:-1]):
        at_level = [b for b in range(n - 1) if big.levels[b] == level]
        runs.append(itertools.combinations(at_level, len(list(run))))
    for parts in itertools.product(*runs):
        maxima = (*itertools.chain.from_iterable(parts), n - 1)
        choices: list = []
        for i, (low, m) in enumerate(zip((-1, *maxima), maxima)):
            choices += [range(i, k)] * (m - low - 1) + [(i,)]
        yield from itertools.product(*choices)


@dataclass(frozen=True)
class Copies:
    """Every embedding of small into big in one mode, as its block maps in
    lexicographic order: what enumerate_embeddings lists, with no Embedding."""

    small: LabeledAlgebra
    big: LabeledAlgebra
    ordered: bool
    maps: tuple[tuple[int, ...], ...]


def _sorted_block_maps(
    small: LabeledAlgebra, big: LabeledAlgebra, mode: Mode = "ordered", limit: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The block maps of every embedding of small into big in this mode, sorted;
    plain mode relabels each ordered one by every proper order of small.  Past
    limit maps it raises BoundExceeded, having enumerated at most limit + 1."""
    _require_same_chain(small, big)
    if mode not in ("plain", "ordered"):
        raise ValueError(f"unknown mode {mode!r}")
    stop = None if limit is None else limit + 1
    maps = list(itertools.islice(_ordered_block_maps(small, big), stop))
    per_map = count_proper_orders(small) if mode == "plain" else 1
    if limit is not None and len(maps) * per_map > limit:
        raise BoundExceeded(f"copies lists at most {limit} embeddings; there are more")
    if mode == "plain" and maps:
        relabels = enumerate_proper_orders(small)
        maps = [tuple(map(s.__getitem__, bo)) for bo in maps for s in relabels]
    return tuple(sorted(maps))


def enumerate_embeddings(
    small: LabeledAlgebra, big: LabeledAlgebra, mode: Mode = "plain"
) -> list[Embedding]:
    """All embeddings of small into big, lexicographic in block_of."""
    ordered = mode == "ordered"
    return [
        Embedding(small=small, big=big, block_of=bo, ordered=ordered)
        for bo in _sorted_block_maps(small, big, mode)
    ]


def identity_embedding(algebra: LabeledAlgebra) -> Embedding:
    return Embedding(
        small=algebra,
        big=algebra,
        block_of=tuple(algebra.atoms),
        ordered=True,
    )


def compose(outer: Embedding, inner: Embedding) -> Embedding:
    """Function-style composition: inner embeds A into B, outer embeds B into C."""
    if inner.big != outer.small:
        raise MixedAlgebras("embeddings do not compose: middle algebras differ")
    block_of = tuple(inner.block_of[i] for i in outer.block_of)
    maxima = _block_maxima(block_of, inner.small.n_atoms)
    return Embedding(
        small=inner.small,
        big=outer.big,
        block_of=block_of,
        ordered=maxima == sorted(maxima),
    )


def image_copy(e: Embedding) -> frozenset[Element]:
    """The image subalgebra as a set of 2^k big elements."""
    return frozenset(map(e.induced, elements(e.small)))


def star(x: LabeledAlgebra, y: LabeledAlgebra) -> LabeledAlgebra:
    """Concatenate level sequences; defined when the result stays nondecreasing."""
    _require_same_chain(x, y)
    if x.levels[-1] > y.levels[0]:
        raise ImproperConcatenation(
            f"levels {x.levels[-1]!r} then {y.levels[0]!r} would decrease"
        )
    return make_algebra(x.levels + y.levels, x.chain_length)


def circ(x: LabeledAlgebra, y: LabeledAlgebra) -> LabeledAlgebra:
    """Absorb y into the top of x: keep the first n-m levels of x, then y's.

    Defined for n >= m with every level of x strictly below every level of y.
    With n = m the result is just y's signature.
    """
    _require_same_chain(x, y)
    n, m = x.n_atoms, y.n_atoms
    if n < m:
        raise SizeMismatch(f"left operand has {n} atoms, right needs at most that, got {m}")
    if x.levels[-1] >= y.levels[0]:
        raise LevelOverlap(
            f"levels of the left operand must stay strictly below the right's:"
            f" {x.levels[-1]!r} vs {y.levels[0]!r}"
        )
    return make_algebra(x.levels[: n - m] + y.levels, x.chain_length)


def lift(pure: LabeledAlgebra, j: int, chain_length: int) -> LabeledAlgebra:
    """Place every atom of a pure algebra at ideal level j."""
    if pure.chain_length != 0 or any(l is not OUT for l in pure.levels):
        raise ValueError("lift expects a pure algebra (chain length 0)")
    if not 0 <= j < chain_length:
        raise LevelOutOfRange(f"level {j} outside 0 .. {chain_length - 1}")
    return make_algebra([j] * pure.n_atoms, chain_length)


def reduct(x: LabeledAlgebra) -> LabeledAlgebra:
    """Forget the ideals: same atoms, all levels OUT, chain length 0."""
    return make_algebra([OUT] * x.n_atoms, 0)
