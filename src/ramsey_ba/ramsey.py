"""Arrow relations with machine-checkable certificates.

The arrow check colors ordered copies (copies and ordered embeddings agree
by rigidity) and is exact: a failed relation ships a bad coloring that a
direct scan re-validates, a held relation means the backtracking search
exhausted every coloring.  The search works on the hypergraph whose
vertices are the ordered copies of A in C and whose edges collect the
copies lying inside each ordered copy of B; a bad coloring is one leaving
every edge non-monochromatic.  It is kept as its colors, one per A-copy in
enumeration order.  Block maps are the internal currency: copies are
block_of tuples, A's sorted by embed._sorted_block_maps; no Embedding is built.
The composite of a B-copy and an A-copy of B is index arithmetic, looked up
among the A-copies by block map.  Vertices are numbered in enumeration
order, the first vertex is pinned to color 0, and branching is DSATUR
first-fail (most forbidden colors, lowest index breaking ties, colors in
increasing order), so certificates and node counts are deterministic.  The
depth-first search keeps an explicit stack of frames and undoes a color
from its trail, so depth is not bounded by Python's recursion limit.
Uncolored vertices sit in one bitmask per level, the popcount of a vertex's
forbidden-color mask, so the next vertex is the lowest bit of the highest
non-empty level.  An edge is the bitmask of its vertices; one bitmask per
color and one of all colored vertices tell whether an edge can still close
monochromatic and which of its vertices is last uncolored, so no edge keeps
state, and neither the order of the edges, nor the order within one, nor a
repeated edge changes the search.

So the search is a function of its hypergraph, and its result is kept per
process under (vertex count, k up to the vertex count, frozenset of edge
masks): a level-free instance and its lift to one ideal level share that
key, and the lift reuses the level-free search.  The kept keys hold at most
SEARCH_CACHE_MASKS masks together, least recently used evicted first; a
hypergraph above that alone is searched and not kept.  The arrow cache
stays keyed by algebras, and a failing certificate built from a kept
result is still re-checked on its own (C, B, A).

The witness builders follow the recursive scheme: split B at its minimal
occupied level, take the minimal witness of the level-free class (the Dual
Ramsey Theorem's case) as the base, solve the remainder recursively with
the color count inflated by the number of level-free B-copies in the base,
read off its holding certificate, then reassemble with lift and star.
Constructions are always re-verified, never trusted.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .core import (
    ClassKind,
    LabeledAlgebra,
    OUT,
    _require_member,
    _require_same_chain,
    class_membership,
    enumerate_algebras,
    make_algebra,
    signature_json,
)
from .embed import _ordered_block_maps, _sorted_block_maps, lift, reduct, star
from .errors import (
    BoundExceeded,
    ChainMismatch,
    NotAnEmbedding,
    VerificationFailed,
)

# Arrow certificates kept per process; a failing one holds one int per A-copy.
ARROWS_CACHE_SIZE = 256
# Edge masks held by the keys of the search results kept per process.
SEARCH_CACHE_MASKS = 100_000


@dataclass(frozen=True)
class Coloring:
    """Colors of the ordered copies of A in C, one per copy in enumeration order."""

    a: LabeledAlgebra
    c: LabeledAlgebra
    colors: tuple[int, ...]


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    a_copies: int
    b_copies: int


@dataclass(frozen=True)
class ArrowCertificate:
    """Outcome of an arrow check.

    verdict is "holds" or "fails"; a failing certificate carries the bad
    coloring that defeats every ordered B-copy.  vacuous marks the
    degenerate failure where B has no ordered copy in C at all.
    """

    verdict: str
    bad_coloring: Coloring | None
    stats: SearchStats
    vacuous: bool = False


class _SearchCache:
    """Search results by hypergraph, evicting the least recently used first.

    A key ends with its frozenset of edge masks; the keys together hold at
    most max_masks masks, and a key above that alone is not kept.
    """

    def __init__(self, max_masks: int) -> None:
        self.max_masks = max_masks
        self.masks = 0
        self.results: OrderedDict[tuple, tuple[tuple[int, ...] | None, int]] = OrderedDict()

    def get(self, key: tuple) -> tuple[tuple[int, ...] | None, int] | None:
        found = self.results.get(key)
        if found is not None:
            self.results.move_to_end(key)
        return found

    def put(self, key: tuple, result: tuple[tuple[int, ...] | None, int]) -> None:
        size = len(key[-1])
        if size > self.max_masks:
            return
        self.results[key] = result
        self.masks += size
        while self.masks > self.max_masks:
            (*_, old), _ = self.results.popitem(last=False)
            self.masks -= len(old)

    def clear(self) -> None:
        self.results.clear()
        self.masks = 0


_searched = _SearchCache(SEARCH_CACHE_MASKS)


def _search_bad_coloring(
    n_vertices: int, edges: list[tuple[int, ...]], k: int
) -> tuple[list[int] | None, int]:
    """First bad coloring in branch order, or None after exhausting all.

    The outcome is a function of the vertex count, k up to the vertex count
    and the set of edge bitmasks, so _searched keeps it under exactly that
    key; each caller gets a list of its own.
    """
    # exact: a color no colored vertex uses lies below the vertex count and
    # always completes, so no color at or above the vertex count is tried
    k = min(k, n_vertices)
    bits = [1 << v for v in range(n_vertices)]
    # an edge is the bitmask of its vertices
    masks = {sum(map(bits.__getitem__, edge)): edge for edge in edges}
    key = (n_vertices, k, frozenset(masks))
    found = _searched.get(key)
    if found is None:
        found = _search(bits, masks, k)
        _searched.put(key, found)
    assignment, nodes = found
    return (None if assignment is None else list(assignment)), nodes


def _search(
    bits: list[int], masks: dict[int, tuple[int, ...]], k: int
) -> tuple[tuple[int, ...] | None, int]:
    """The search itself, over one bit per vertex and each edge mask's vertices."""
    n_vertices = len(bits)
    # each edge mask is listed at each of its vertices
    touching: list[list[int]] = [[] for _ in range(n_vertices)]
    for mask, edge in masks.items():
        for v in edge:
            touching[v].append(mask)

    color = [-1] * n_vertices
    forbid = [0] * n_vertices  # a vertex's forbidden colors; its popcount is its level
    # uncolored vertices per level, as bitmasks; level k means a dead end
    buckets = [0] * (k + 1)
    buckets[0] = (1 << n_vertices) - 1
    # the vertices of each color, and all colored vertices, as bitmasks
    in_color = [0] * k
    colored = 0
    # undo trail: vertices a coloring forbade its color to; a frame holds its
    # vertex, next color, color limit and the trail length before its color
    forbidden: list[int] = []
    nodes = 0

    def select() -> int:
        """Most forbidden colors, lowest index; taken out of its bucket."""
        for level in range(k - 1, -1, -1):
            bucket = buckets[level]
            if bucket:
                low = bucket & -bucket
                buckets[level] = bucket ^ low
                return low.bit_length() - 1
        return -1

    v = select()
    if v < 0:
        return tuple(color), nodes
    stack = [[v, 0, 1, 0]]  # color names are symmetric; pin the first vertex
    while stack:
        frame = stack[-1]
        v, col, limit, mark = frame
        if color[v] >= 0:
            in_color[color[v]] ^= bits[v]
            colored ^= bits[v]
            bit = 1 << color[v]
            for u in forbidden[mark:]:
                forbid[u] ^= bit
                level = forbid[u].bit_count()
                buckets[level + 1] ^= bits[u]
                buckets[level] |= bits[u]
            del forbidden[mark:]
            color[v] = -1
        while col < limit and forbid[v] >> col & 1:
            col += 1
        if col == limit:
            stack.pop()
            buckets[forbid[v].bit_count()] |= bits[v]
            continue
        frame[1] = col + 1
        nodes += 1
        color[v] = col
        in_color[col] |= bits[v]
        colored |= bits[v]
        # an edge meeting another color never closes; otherwise its
        # uncolored rest is empty (monochromatic) or names its last vertex
        other = colored ^ in_color[col]
        uncolored = ~colored
        bit = 1 << col
        for mask in touching[v]:
            if mask & other:
                continue
            rest = mask & uncolored
            if not rest:
                break  # monochromatic
            if rest & (rest - 1):
                continue
            u = rest.bit_length() - 1
            if not forbid[u] & bit:
                level = forbid[u].bit_count()
                forbid[u] |= bit
                buckets[level] ^= rest
                buckets[level + 1] |= rest
                forbidden.append(u)
                if level + 1 == k:
                    break  # u has no color left
        else:
            u = select()
            if u < 0:
                return tuple(color), nodes
            stack.append([u, 0, k, len(forbidden)])
    return None, nodes


def _copy_edges(
    copies_a: list[tuple], copies_b: list[tuple], inner: list[tuple]
) -> list[tuple[int, ...]]:
    """Per B-copy, the indices of the A-copies inside it.

    The composite of outer and h maps C-atom x to h[outer[x]], which is
    itemgetter(*outer)(h).  Over a one-atom C that is a bare item, so the
    A-copies are looked up by their one entry there.
    """
    index = {bo if len(bo) > 1 else bo[0]: i for i, bo in enumerate(copies_a)}
    edges = []
    for outer in copies_b:
        composite = itemgetter(*outer)
        edges.append(tuple([index[composite(h)] for h in inner]))
    return edges


def recheck_bad_coloring(
    c: LabeledAlgebra, b: LabeledAlgebra, a: LabeledAlgebra, k: int, coloring: Coloring
) -> bool:
    """Validate a bad coloring by direct scan, independent of the search."""
    if (coloring.a, coloring.c) != (a, c):
        return False
    copies_a = _sorted_block_maps(a, c)
    if len(coloring.colors) != len(copies_a):
        return False
    if any(
        not (isinstance(col, int) and not isinstance(col, bool) and 0 <= col < k)
        for col in coloring.colors
    ):
        return False
    _require_same_chain(a, b)
    assigned = dict(zip(copies_a, coloring.colors))
    inner = list(_ordered_block_maps(a, b))
    for outer in _ordered_block_maps(b, c):
        seen = {assigned[tuple(h[x] for x in outer)] for h in inner}
        if len(seen) <= 1:
            return False
    return True


@lru_cache(maxsize=ARROWS_CACHE_SIZE)
def _arrows(
    c: LabeledAlgebra, b: LabeledAlgebra, a: LabeledAlgebra, k: int
) -> ArrowCertificate:
    copies_a = _sorted_block_maps(a, c)
    copies_b = list(_ordered_block_maps(b, c))
    inner = list(_ordered_block_maps(a, b))
    if not copies_b:
        bad = Coloring(a, c, (0,) * len(copies_a))
        return ArrowCertificate(
            "fails", bad, SearchStats(0, len(copies_a), 0), vacuous=True
        )
    if k == 1 or len(inner) <= 1:
        # every edge has at most one vertex, or one color: always monochromatic
        return ArrowCertificate(
            "holds", None, SearchStats(0, len(copies_a), len(copies_b))
        )
    edges = _copy_edges(copies_a, copies_b, inner)
    assignment, nodes = _search_bad_coloring(len(copies_a), edges, k)
    stats = SearchStats(nodes, len(copies_a), len(copies_b))
    if assignment is None:
        return ArrowCertificate("holds", None, stats)
    bad = Coloring(a, c, tuple(assignment))
    certificate = ArrowCertificate("fails", bad, stats)
    if not recheck_bad_coloring(c, b, a, k, bad):
        raise VerificationFailed(
            "search returned a coloring the direct scan rejects",
            certificate=certificate,
        )
    return certificate


def arrows(
    c: LabeledAlgebra, b: LabeledAlgebra, a: LabeledAlgebra, k: int
) -> ArrowCertificate:
    """Decide whether every k-coloring of A-copies in C has a monochromatic B-copy."""
    if not (a.chain_length == b.chain_length == c.chain_length):
        raise ChainMismatch("arrow operands must share the chain length")
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"the color count is not an integer: {k!r}")
    if k < 1:
        raise ValueError("at least one color is required")
    return _arrows(c, b, a, k)


def dual_ramsey_oracle(
    ar: LabeledAlgebra, br: LabeledAlgebra, k: int, max_atoms: int
) -> LabeledAlgebra:
    """Smallest level-free algebra C0 with arrows(C0, br, ar, k): the minimal
    witness of the level-free class, the bj members at chain length 0."""
    if ar.chain_length != 0 or br.chain_length != 0:
        raise ChainMismatch("oracle operands must be level-free")
    found = min_witness(ClassKind.BJ, ar, br, k, max_atoms)
    if found is None:
        raise BoundExceeded(
            f"no level-free witness for ({ar.n_atoms} -> {br.n_atoms} atoms,"
            f" {k} colors) within {max_atoms} atoms"
        )
    return found[0]


def _split_above(algebra: LabeledAlgebra, j: int) -> LabeledAlgebra:
    kept = [lv for lv in algebra.levels if lv > j]
    return make_algebra(kept, algebra.chain_length)


def _assemble_witness(
    a: LabeledAlgebra, b: LabeledAlgebra, k: int, max_atoms: int
) -> LabeledAlgebra:
    ar, br = reduct(a), reduct(b)
    c0 = dual_ramsey_oracle(ar, br, k, max_atoms)
    j0 = b.levels[0]  # levels are sorted, so OUT means none is occupied
    if j0 is OUT:
        return make_algebra([OUT] * c0.n_atoms, b.chain_length)
    # the oracle's holding certificate, cached, counted the B-copies in c0
    inflation = arrows(c0, br, ar, k).stats.b_copies
    c1 = _assemble_witness(
        _split_above(a, j0), _split_above(b, j0), k * inflation, max_atoms
    )
    return star(lift(c0, j0, b.chain_length), c1)


def _check_witness_inputs(
    kind: ClassKind, a: LabeledAlgebra, b: LabeledAlgebra, k: int
) -> None:
    for algebra, name in ((a, "A"), (b, "B")):
        _require_member(algebra, kind, name)
    if a.chain_length != b.chain_length:
        raise ChainMismatch("witness operands must share the chain length")
    if next(_ordered_block_maps(a, b), None) is None:
        raise NotAnEmbedding("A must embed into B")
    if k < 1:
        raise ValueError("at least one color is required")


def construct_witness(
    kind: ClassKind, a: LabeledAlgebra, b: LabeledAlgebra, k: int, max_atoms: int
) -> tuple[LabeledAlgebra, ArrowCertificate]:
    """Build a Ramsey witness by the level-splitting recursion and verify it."""
    _check_witness_inputs(kind, a, b, k)
    c = _assemble_witness(a, b, k, max_atoms)
    certificate = arrows(c, b, a, k)
    if not class_membership(c, kind):
        raise VerificationFailed(
            f"constructed witness {signature_json(c)} left the class {kind.value}",
            certificate=certificate,
        )
    if certificate.verdict != "holds":
        raise VerificationFailed(
            f"constructed witness {signature_json(c)} fails its arrow check",
            certificate=certificate,
        )
    return c, certificate


def min_witness(
    kind: ClassKind, a: LabeledAlgebra, b: LabeledAlgebra, k: int, max_atoms: int
) -> tuple[LabeledAlgebra, int] | None:
    """Smallest class member C with arrows(C, b, a, k), ties by signature."""
    _check_witness_inputs(kind, a, b, k)
    for candidate in enumerate_algebras(max_atoms, b.chain_length, kind, b.n_atoms):
        if arrows(candidate, b, a, k).verdict == "holds":
            return candidate, candidate.n_atoms
    return None
