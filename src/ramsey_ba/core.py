"""Finite Boolean algebras carrying an increasing chain of ideals.

An algebra here is the power set of a finite atom set together with an
increasing chain of t ideals, encoded per atom: an atom at level j first
appears in the j-th ideal, an atom at level OUT, an int above every ideal
index, lies in no ideal.  An element belongs to the j-th ideal exactly when
every atom below it has level at most j.  Atoms are stored sorted by level
(canonical order), so an algebra is determined by its chain length and its
nondecreasing level sequence.

Three classes of such algebras are distinguished:

* BJ: at least one atom outside every ideal,
* BU: a single ideal (t = 1) and exactly one atom outside it,
* BJU: exactly one atom outside every ideal.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import (
    ChainMismatch,
    EmptyAtomSet,
    LevelOutOfRange,
    MixedAlgebras,
    NotInClass,
)


def _restore_out() -> "_OutsideLevel":
    return OUT


class _OutsideLevel(int):
    """Level of an atom lying in no ideal: an int above every ideal index."""

    __slots__ = ()

    def __repr__(self):
        return "OUT"

    def __reduce__(self):
        # unpickle to the module singleton so identity checks survive
        # process boundaries (worker pools pickle algebras)
        return (_restore_out, ())


OUT = _OutsideLevel(sys.maxsize)

# How OUT is written in the wire format.
OUTSIDE_TOKEN = "out"

Level = int


def level_alphabet(chain_length: int) -> tuple[Level, ...]:
    """All levels available at a given chain length, in increasing order."""
    return tuple(range(chain_length)) + (OUT,)


class ClassKind(Enum):
    BJ = "bj"
    BU = "bu"
    BJU = "bju"


@dataclass(frozen=True)
class LabeledAlgebra:
    """A finite Boolean algebra with an ideal chain, in canonical atom order.

    chain_length is the number t of ideals; levels[a] is the level of atom a
    and the sequence is nondecreasing.
    """

    chain_length: int
    levels: tuple[Level, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.levels)

    @property
    def atoms(self) -> range:
        return range(len(self.levels))


def make_algebra(levels: Sequence[Level], chain_length: int) -> LabeledAlgebra:
    """Build an algebra from per-atom levels, re-sorting into canonical order."""
    if chain_length < 0:
        raise LevelOutOfRange(f"chain_length must be nonnegative, got {chain_length}")
    if chain_length >= OUT:
        raise LevelOutOfRange(f"chain_length must be below {OUT!r}, got {chain_length}")
    levels = tuple(levels)
    if not levels:
        raise EmptyAtomSet("an algebra needs at least one atom")
    for pos, level in enumerate(levels):
        if level is OUT:
            continue
        if isinstance(level, bool) or not isinstance(level, int):
            raise LevelOutOfRange(f"levels[{pos}] is not an ideal index or OUT: {level!r}")
        if not 0 <= level < chain_length:
            raise LevelOutOfRange(
                f"levels[{pos}] = {level} outside 0 .. {chain_length - 1}"
            )
    return LabeledAlgebra(chain_length=chain_length, levels=tuple(sorted(levels)))


@dataclass(frozen=True)
class Element:
    """An element of a fixed algebra: the join of a set of its atoms."""

    algebra: LabeledAlgebra
    atoms: frozenset[int]

    def __post_init__(self):
        if not self.atoms <= set(self.algebra.atoms):
            bad = sorted(set(self.atoms) - set(self.algebra.atoms))
            raise ValueError(f"atom indices {bad} outside the algebra")

    def __and__(self, other: "Element") -> "Element":
        return meet(self, other)

    def __or__(self, other: "Element") -> "Element":
        return join(self, other)

    def __invert__(self) -> "Element":
        return complement(self)

    def __le__(self, other: "Element") -> bool:
        return leq(self, other)


def element(algebra: LabeledAlgebra, atoms: Iterable[int]) -> Element:
    return Element(algebra, frozenset(atoms))


def zero(algebra: LabeledAlgebra) -> Element:
    return Element(algebra, frozenset())


def one(algebra: LabeledAlgebra) -> Element:
    return Element(algebra, frozenset(algebra.atoms))


def atom_element(algebra: LabeledAlgebra, atom: int) -> Element:
    return element(algebra, (atom,))


def elements(algebra: LabeledAlgebra) -> Iterator[Element]:
    """All 2^n elements, by size then lexicographically by atom set."""
    for size in range(algebra.n_atoms + 1):
        for atoms in itertools.combinations(algebra.atoms, size):
            yield Element(algebra, frozenset(atoms))


def _same_algebra(x: Element, y: Element) -> None:
    if x.algebra != y.algebra:
        raise MixedAlgebras("operands live in different algebras")


def meet(x: Element, y: Element) -> Element:
    _same_algebra(x, y)
    return Element(x.algebra, x.atoms & y.atoms)


def join(x: Element, y: Element) -> Element:
    _same_algebra(x, y)
    return Element(x.algebra, x.atoms | y.atoms)


def complement(x: Element) -> Element:
    return Element(x.algebra, frozenset(x.algebra.atoms) - x.atoms)


def leq(x: Element, y: Element) -> bool:
    _same_algebra(x, y)
    return x.atoms <= y.atoms


def in_ideal(algebra: LabeledAlgebra, x: Element, j: int) -> bool:
    """True iff x lies in the j-th ideal: every atom of x has level at most j."""
    if x.algebra != algebra:
        raise MixedAlgebras("element does not belong to the given algebra")
    if not 0 <= j < algebra.chain_length:
        raise LevelOutOfRange(f"ideal index {j} outside 0 .. {algebra.chain_length - 1}")
    return all(algebra.levels[a] <= j for a in x.atoms)


def class_membership(algebra: LabeledAlgebra, kind: ClassKind) -> bool:
    """Decide membership in BJ, BU, or BJU from the level signature."""
    outside = sum(1 for level in algebra.levels if level is OUT)
    if kind is ClassKind.BJ:
        return outside >= 1
    if kind is ClassKind.BU:
        return algebra.chain_length == 1 and outside == 1
    if kind is ClassKind.BJU:
        return outside == 1
    raise ValueError(f"unknown class kind {kind!r}")


def _require_member(algebra: LabeledAlgebra, kind: ClassKind, name: str) -> None:
    """Raise NotInClass unless the algebra belongs to the class."""
    if not class_membership(algebra, kind):
        raise NotInClass(
            f"{name} with levels {signature_json(algebra)} is not in {kind.value}"
        )


def _require_same_chain(a: LabeledAlgebra, b: LabeledAlgebra) -> None:
    """Raise ChainMismatch unless both algebras carry the same chain length."""
    if a.chain_length != b.chain_length:
        raise ChainMismatch(
            f"chain lengths differ: {a.chain_length} vs {b.chain_length}"
        )


def signature_iso(a: LabeledAlgebra, b: LabeledAlgebra) -> bool:
    """Isomorphism test: equal canonical level sequences."""
    _require_same_chain(a, b)
    return a.levels == b.levels


def generated_subalgebra(
    algebra: LabeledAlgebra, gens: Iterable[Element]
) -> tuple[LabeledAlgebra, "Embedding"]:
    """Subalgebra generated by gens, with the block map embedding it back.

    Atoms of the subalgebra are the classes of algebra atoms sharing a
    membership fingerprint across the generators; the class containing an
    atom of maximal index comes last, which keeps levels nondecreasing.
    Returns the subalgebra and the embedding of it into the host.
    """
    from .embed import Embedding  # local import, embed builds on core

    gens = list(gens)
    for g in gens:
        if g.algebra != algebra:
            raise MixedAlgebras("generator does not belong to the given algebra")
    fingerprint: dict[tuple[bool, ...], list[int]] = {}
    for a in algebra.atoms:
        fingerprint.setdefault(tuple(a in g.atoms for g in gens), []).append(a)
    blocks = sorted(fingerprint.values(), key=max)
    block_of = [0] * algebra.n_atoms
    for i, block in enumerate(blocks):
        for a in block:
            block_of[a] = i
    sub = make_algebra(
        [max(algebra.levels[a] for a in block) for block in blocks],
        algebra.chain_length,
    )
    return sub, Embedding(
        small=sub, big=algebra, block_of=tuple(block_of), ordered=True
    )


def signature_json(algebra: LabeledAlgebra) -> list[int | str]:
    """Level sequence in the wire convention: ideal index or \"out\"."""
    return [OUTSIDE_TOKEN if l is OUT else l for l in algebra.levels]


def enumerate_signatures(
    n_atoms: int, chain_length: int
) -> Iterator[tuple[Level, ...]]:
    """All canonical level sequences of a given length, lexicographically."""
    yield from itertools.combinations_with_replacement(
        level_alphabet(chain_length), n_atoms
    )


def enumerate_algebras(
    max_atoms: int, chain_length: int, kind: ClassKind | None = None, min_atoms: int = 1
) -> Iterator[LabeledAlgebra]:
    """All algebras with min_atoms .. max_atoms atoms, or the members of one
    class, by atom count and then lexicographically.

    Members are built, not filtered: sorted levels put the OUT atom every
    class needs last, after any levels for BJ and ideal indices for BJU and
    BU.  The one-atom [OUT] is a member whenever the class has any, so
    testing it once finds where a class is empty (BU at every t but 1).
    """
    if max_atoms < 1:
        return
    if kind is not None and not class_membership(make_algebra((OUT,), chain_length), kind):
        return
    lead = level_alphabet(chain_length) if kind is ClassKind.BJ else range(chain_length)
    for n in range(min_atoms, max_atoms + 1):
        if kind is None:
            signatures = enumerate_signatures(n, chain_length)
        else:
            heads = itertools.combinations_with_replacement(lead, n - 1)
            signatures = (head + (OUT,) for head in heads)
        for signature in signatures:
            yield make_algebra(signature, chain_length)


def atom_partitions(n: int) -> Iterator[list[list[int]]]:
    """Partitions of range(n) as block lists, in restricted-growth order:
    each partition of n - 1 atoms, the last atom joining each block in turn,
    then alone.  Partitions share the blocks they did not grow; read only."""

    def grow(m: int) -> Iterator[list[list[int]]]:
        if m == 0:
            yield []
            return
        for blocks in grow(m - 1):
            for i in range(len(blocks)):
                yield blocks[:i] + [blocks[i] + [m - 1]] + blocks[i + 1:]
            yield blocks + [[m - 1]]

    return grow(n)
