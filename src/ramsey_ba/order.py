"""Proper atom orders and the natural (antilexicographic) element order.

A proper order lists atoms with nondecreasing levels, atoms outside every
ideal last.  It extends to the whole algebra antilexicographically: two
elements compare at the largest atom in their symmetric difference, and the
side containing that atom is the larger.  The classes handled here are order
forgetful: any two proper orders of isomorphic algebras give isomorphic
ordered structures, because both read off the same nondecreasing level
sequence.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

from .core import (
    Element,
    LabeledAlgebra,
    _require_same_chain,
    enumerate_algebras,
    signature_json,
)
from .errors import BoundExceeded, ImproperOrder, MixedAlgebras

AtomOrder = tuple[int, ...]

MAX_SWEEP_ORDERS = 500_000  # a forgetfulness sweep bounds at most this many orders

LT, EQ, GT = -1, 0, 1


def _check_permutation(algebra: LabeledAlgebra, ord: Sequence[int]) -> AtomOrder:
    ord = tuple(ord)
    if sorted(ord) != list(algebra.atoms):
        raise ValueError(f"not a permutation of the atom set: {ord}")
    return ord


def is_proper(algebra: LabeledAlgebra, ord: Sequence[int]) -> bool:
    """True iff levels are nondecreasing along ord."""
    levels = [algebra.levels[a] for a in _check_permutation(algebra, ord)]
    return levels == sorted(levels)


def canonical_order(algebra: LabeledAlgebra) -> AtomOrder:
    """The storage order itself, which is always proper."""
    return tuple(algebra.atoms)


def antilex_compare(x: Element, y: Element, ord: Sequence[int]) -> int:
    """Compare two elements antilexicographically along ord; returns -1/0/1.

    The deciding atom is the ord-largest one on which x and y differ.
    """
    if x.algebra != y.algebra:
        raise MixedAlgebras("comparing elements of different algebras")
    ord = _check_permutation(x.algebra, ord)
    diff = x.atoms ^ y.atoms
    if not diff:
        return EQ
    position = {a: i for i, a in enumerate(ord)}
    deciding = max(diff, key=position.__getitem__)
    return GT if deciding in x.atoms else LT


def level_blocks(algebra: LabeledAlgebra) -> list[list[int]]:
    """Canonical atoms grouped into maximal runs of equal level."""
    runs = itertools.groupby(algebra.atoms, key=algebra.levels.__getitem__)
    return [list(run) for _, run in runs]


def _concatenations(lists) -> list[tuple]:
    """Every concatenation of one tuple from each list, in product order.

    The order is lexicographic when each list is and the tuples of one list
    have one length.  Each step joins the pairs of a product in C, so no
    Python frame runs per item; the memory held is the output's.
    """
    joined = [()]
    for items in lists:
        joined = itertools.starmap(operator.add, itertools.product(joined, items))
    return list(joined)


def enumerate_proper_orders(algebra: LabeledAlgebra) -> list[AtomOrder]:
    """All proper orders, lexicographically, as one list.

    A proper order permutes atoms within each level run of the canonical
    order, so the count is the product of the run factorials; size a
    request with count_proper_orders before listing it.
    """
    return _concatenations(map(itertools.permutations, level_blocks(algebra)))


def count_proper_orders(algebra: LabeledAlgebra) -> int:
    return math.prod(math.factorial(len(b)) for b in level_blocks(algebra))


def ordered_isomorphic(
    a: LabeledAlgebra, ord_a: Sequence[int], b: LabeledAlgebra, ord_b: Sequence[int]
) -> bool:
    """True iff the level sequences read along the two proper orders agree."""
    _require_same_chain(a, b)
    ord_a = _check_permutation(a, ord_a)
    ord_b = _check_permutation(b, ord_b)
    levels_a = [a.levels[i] for i in ord_a]
    levels_b = [b.levels[i] for i in ord_b]
    if levels_a != sorted(levels_a):
        raise ImproperOrder(f"not a proper order: {ord_a}")
    if levels_b != sorted(levels_b):
        raise ImproperOrder(f"not a proper order: {ord_b}")
    return levels_a == levels_b


def forgetfulness_report(max_atoms: int, chain_length: int) -> dict:
    """Sweep all algebras up to a size: order forgetfulness plus order counts.

    For every algebra, every proper order must be ordered-isomorphic to the
    canonical one (an equivalence, so every pair is) and the enumerated count
    must match the run-factorial product.  Refuses before sweeping when
    the sum over n <= max_atoms of C(n+t, n) * n!, signatures times a bound
    on each one's orders, exceeds MAX_SWEEP_ORDERS.
    """
    if chain_length >= 0:  # a negative one is refused by make_algebra
        bound = 0
        for n in range(1, max_atoms + 1):
            bound += math.comb(n + chain_length, n) * math.factorial(n)
            if bound > MAX_SWEEP_ORDERS:
                raise BoundExceeded(
                    f"forgetful sweeps at most {MAX_SWEEP_ORDERS} orders by the sum"
                    f" of C(n+t, n)*n!, which reaches {bound} at {n} atoms"
                    f" with chain length {chain_length}"
                )

    algebras = 0
    orders = 0
    violations: list[dict] = []
    for algebra in enumerate_algebras(max_atoms, chain_length):
        algebras += 1
        proper = enumerate_proper_orders(algebra)
        orders += len(proper)
        if len(proper) != count_proper_orders(algebra):
            violations.append(
                {
                    "levels": signature_json(algebra),
                    "reason": "count mismatch",
                    "enumerated": len(proper),
                    "expected": count_proper_orders(algebra),
                }
            )
        canonical = canonical_order(algebra)
        for ord_b in proper:
            if not ordered_isomorphic(algebra, canonical, algebra, ord_b):
                violations.append(
                    {
                        "levels": signature_json(algebra),
                        "reason": "orders not isomorphic",
                        "ord_a": list(canonical),
                        "ord_b": list(ord_b),
                    }
                )
    return {
        "max_atoms": max_atoms,
        "chain_length": chain_length,
        "algebras_checked": algebras,
        "proper_orders_checked": orders,
        "violations": violations,
    }
