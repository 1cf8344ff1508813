"""Maximal subset chains versus atom orders, at finite scale.

Points are the atoms.  A maximal chain of subsets from the empty set to the
full set adds one point per step, so it is stored as its addition sequence,
a permutation of the points; member i is the set of the first i additions.
The reversed sequence is an atom order (phi), and a chain passes through
every upper set (the atoms with level strictly above some ideal position)
exactly when that order is proper.  The upper sets are nested, so the chains
through all of them are derived, run by run, rather than found among all n!:
each upper-set test reads one run's permutation only, so the extending chains
are the product of the per-run permutation lists that pass, one Chains value.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod
from typing import Iterable, Sequence

from .core import LabeledAlgebra, signature_json
from .errors import BoundExceeded, SizeMismatch
from .order import AtomOrder, count_proper_orders, enumerate_proper_orders, level_blocks

MAX_CHAIN_POINTS = 9  # chains_extending takes at most 9 atoms
MAX_CHAIN_OUTPUT = 40_320  # and lists at most 8! extending chains


@dataclass(frozen=True)
class MaximalChain:
    """Maximal subset chain as its addition sequence; its sets are the prefixes."""

    additions: tuple[int, ...]

    @property
    def n_points(self) -> int:
        return len(self.additions)

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(self.additions[:i]) for i in range(self.n_points + 1))


@dataclass(frozen=True)
class Chains:
    """Chains as the product of per-run permutation lists.

    A chain adds the runs in turn, each by one of its run's listed
    permutations; iteration yields them as MaximalChains, lexicographic in
    additions when each list is.
    """

    runs: tuple[tuple[tuple[int, ...], ...], ...]

    def additions(self):
        """Each chain's addition sequence, in product order."""
        return (sum(parts, ()) for parts in product(*self.runs))

    def __iter__(self):
        return map(MaximalChain, self.additions())

    def __len__(self) -> int:
        return prod(map(len, self.runs))


def make_chain(sets: Iterable[Iterable[int]]) -> MaximalChain:
    members = tuple(frozenset(s) for s in sets)
    if not members or members[0] != frozenset():
        raise ValueError("chain must start at the empty set")
    n = len(members) - 1
    if members[-1] != frozenset(range(n)):
        raise ValueError("chain must end at the full point set")
    # n steps of one new point each reach n points only if no step drops one.
    steps = [after - before for before, after in zip(members, members[1:])]
    if any(len(step) != 1 for step in steps):
        raise ValueError("each chain step must add exactly one point")
    return MaximalChain(tuple(p for step in steps for p in step))


def enumerate_maximal_chains(n: int) -> list[MaximalChain]:
    """All n! chains, lexicographic in addition sequence."""
    if n < 1:
        raise ValueError("at least one point is required")
    return list(map(MaximalChain, permutations(range(n))))


def phi(chain: MaximalChain, algebra: LabeledAlgebra) -> AtomOrder:
    """Atom order induced by a chain: reverse of the addition order.

    The first chain member containing a point shrinks as the point is added
    later, so later additions are order-smaller.
    """
    if chain.n_points != algebra.n_atoms:
        raise SizeMismatch(
            f"chain over {chain.n_points} points against {algebra.n_atoms} atoms"
        )
    return chain.additions[::-1]


def phi_inverse(ord: Sequence[int]) -> MaximalChain:
    """The chain adding points in reverse order of ord."""
    ord = tuple(ord)
    if sorted(ord) != list(range(len(ord))):
        raise ValueError(f"not a permutation of the point set: {ord}")
    return MaximalChain(ord[::-1])


def atoms_above(algebra: LabeledAlgebra, j: int) -> frozenset[int]:
    """Atoms with level strictly above j; an element is in ideal j iff disjoint from this set."""
    if not 0 <= j < algebra.chain_length:
        raise ValueError(f"no ideal at position {j}")
    return frozenset(a for a in algebra.atoms if algebra.levels[a] > j)


def filter_family(algebra: LabeledAlgebra) -> tuple[frozenset[int], ...]:
    """The family of upper sets over the whole chain, decreasing in j."""
    return tuple(atoms_above(algebra, j) for j in range(algebra.chain_length))


def chains_extending(algebra: LabeledAlgebra) -> tuple[Chains, dict]:
    """Chains containing every upper set, with the correspondence report.

    A chain contains a set of size k iff its first k additions are that set.
    The upper sets at occupied levels are nested, and consecutive ones
    differ by the atoms of one level, so a chain contains them all exactly
    when it adds the level runs one by one, highest level first.  The runs
    are the reversed level_blocks.  A chain's first k additions, for k inside
    a run, are the atoms of the earlier runs and a prefix of its permutation
    of that run, so the upper-set test of size k depends on that one
    permutation: each run keeps the permutations of its atoms that pass the
    tests ending inside it, and the chains are the product of these lists,
    lexicographic in additions.  The cost follows the output rather than n!.

    The report checks phi against the proper orders, enumerated on their
    own: it maps the chains into and onto them, injectively.  Every other
    chain then maps to an improper order, because phi (reversal) is a
    bijection on all n! addition sequences and the proper orders are already
    covered.  Refuses above MAX_CHAIN_POINTS atoms, and above
    MAX_CHAIN_OUTPUT extending chains, one per proper order.
    """
    if algebra.n_atoms > MAX_CHAIN_POINTS:
        raise BoundExceeded(f"chains need at most {MAX_CHAIN_POINTS} atoms, not {algebra.n_atoms}")
    listed = count_proper_orders(algebra)
    if listed > MAX_CHAIN_OUTPUT:
        raise BoundExceeded(f"chains list at most {MAX_CHAIN_OUTPUT} extending chains, not {listed}")
    # upper sets change only at occupied ideal levels; the rest of
    # filter_family is the full set, which every chain contains
    occupied = [j for j in dict.fromkeys(algebra.levels) if j < algebra.chain_length]
    family = [(len(e), e) for e in (atoms_above(algebra, j) for j in occupied)]
    runs = []
    earlier: frozenset[int] = frozenset()
    for run in reversed(level_blocks(algebra)):
        start = len(earlier)
        kept = list(permutations(run))
        for k, e in family:
            if start < k <= start + len(run):
                kept = [perm for perm in kept if earlier.union(perm[:k - start]) == e]
        runs.append(tuple(kept))
        earlier = earlier.union(run)
    extending = Chains(tuple(runs))
    proper = set(enumerate_proper_orders(algebra))
    mapped = [seq[::-1] for seq in extending.additions()]
    image = set(mapped)
    into = all(o in proper for o in mapped)
    onto = image >= proper
    injective = len(image) == len(mapped)
    report = {
        "signature": signature_json(algebra),
        "chain_length": algebra.chain_length,
        "n_atoms": algebra.n_atoms,
        "total_chains": factorial(algebra.n_atoms),
        "extending_chains": len(mapped),
        "proper_orders": len(proper),
        "extending_map_to_proper": into,
        "map_is_injective": injective,
        "map_is_onto": onto,
        "non_extending_map_to_improper": into and onto,
        "matched": into and injective and onto,
    }
    return extending, report
