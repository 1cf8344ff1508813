"""Independent reference implementations the tests cross-check against.

Everything here recomputes results from definitions: block maps are filtered
by direct condition checks, colorings are enumerated in full, subalgebra
closures iterate the Boolean operations to a fixed point, and report values
map to JSON values by the wire format's definition.  Nothing imports the
search, enumeration or formatting code under test beyond the value types,
except reference_recheck_bad_coloring: it is the Embedding-level scan the
tuple recheck replaced, kept as it was, so it composes public Embeddings.
reference_load_json_file is likewise the text-mode reader the bytes reader
replaced.
"""
from __future__ import annotations

import json
from dataclasses import fields
from itertools import permutations, product

from ramsey_ba.chains import MaximalChain
from ramsey_ba.core import OUT, LabeledAlgebra, make_algebra, signature_json
from ramsey_ba.embed import Embedding, compose, enumerate_embeddings
from ramsey_ba.errors import AmalgamationFailed, ParseError
from ramsey_ba.fraisse import AmalgamationResult
from ramsey_ba.ramsey import ArrowCertificate, Coloring, SearchStats


def level_key(level) -> tuple[int, int]:
    """Level order from the definition: ideal indices ascending, OUT last."""
    return (1, 0) if level is OUT else (0, level)


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks, standard recurrence."""
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def brute_embeddings(
    small: LabeledAlgebra, big: LabeledAlgebra, ordered: bool
) -> list[tuple[int, ...]]:
    """All block maps, each condition checked straight off the definition."""
    k, n = small.n_atoms, big.n_atoms
    found = []
    for block_of in product(range(k), repeat=n):
        blocks = [[a for a in range(n) if block_of[a] == i] for i in range(k)]
        if any(not block for block in blocks):
            continue
        if any(
            max(level_key(big.levels[a]) for a in block)
            != level_key(small.levels[i])
            for i, block in enumerate(blocks)
        ):
            continue
        if ordered:
            maxima = [max(block) for block in blocks]
            if any(maxima[i] >= maxima[i + 1] for i in range(k - 1)):
                continue
        found.append(block_of)
    return found


def antilex_key(atoms: frozenset[int], ord: tuple[int, ...]):
    """Characteristic vector read along ord reversed; lexicographic rank."""
    return tuple(1 if ord[i] in atoms else 0 for i in reversed(range(len(ord))))


def brute_proper_orders(algebra: LabeledAlgebra) -> list[tuple[int, ...]]:
    keys = [level_key(lv) for lv in algebra.levels]
    return [
        p
        for p in permutations(algebra.atoms)
        if all(keys[p[i]] <= keys[p[i + 1]] for i in range(len(p) - 1))
    ]


def brute_chains_extending(
    algebra: LabeledAlgebra,
) -> tuple[list[tuple[frozenset[int], ...]], dict]:
    """Extending chains as member tuples and the correspondence report.

    Chains are the frozenset prefixes of every permutation; a chain's order
    is its additions reversed, proper iff level keys are nondecreasing.
    """
    n = algebra.n_atoms
    keys = [level_key(lv) for lv in algebra.levels]
    uppers = [
        frozenset(a for a in range(n) if keys[a] > (0, j))
        for j in range(algebra.chain_length)
    ]
    proper = set(brute_proper_orders(algebra))
    extending, mapped = [], []
    total = 0
    outside_all_improper = True
    for seq in permutations(range(n)):
        total += 1
        sets = tuple(frozenset(seq[:i]) for i in range(n + 1))
        order = tuple(next(iter(sets[i] - sets[i - 1])) for i in range(n, 0, -1))
        is_proper = all(keys[order[i]] <= keys[order[i + 1]] for i in range(n - 1))
        if all(upper in sets for upper in uppers):
            extending.append(sets)
            mapped.append(order)
        elif is_proper:
            outside_all_improper = False
    report = {
        "signature": signature_json(algebra),
        "chain_length": algebra.chain_length,
        "n_atoms": n,
        "total_chains": total,
        "extending_chains": len(extending),
        "proper_orders": len(proper),
        "extending_map_to_proper": all(o in proper for o in mapped),
        "map_is_injective": len(set(mapped)) == len(mapped),
        "map_is_onto": set(mapped) >= proper,
        "non_extending_map_to_improper": outside_all_improper,
    }
    report["matched"] = (
        report["extending_map_to_proper"]
        and report["map_is_injective"]
        and report["map_is_onto"]
        and outside_all_improper
    )
    return extending, report


def closure_blocks(algebra: LabeledAlgebra, gens) -> list[frozenset[int]]:
    """Atoms of the generated subalgebra, by closing under the Boolean ops."""
    universe = frozenset(algebra.atoms)
    members = {frozenset(), universe} | {frozenset(g.atoms) for g in gens}
    while True:
        fresh = set()
        for x in members:
            fresh.add(universe - x)
            for y in members:
                fresh.add(x & y)
                fresh.add(x | y)
        if fresh <= members:
            break
        members |= fresh
    nonzero = [m for m in members if m]
    return sorted(
        (m for m in nonzero if not any(other < m for other in nonzero)),
        key=sorted,
    )


def brute_arrows(
    c: LabeledAlgebra, b: LabeledAlgebra, a: LabeledAlgebra, k: int
) -> bool:
    """Definitional arrow check: enumerate every coloring of the A-copies."""
    copies_a = brute_embeddings(a, c, ordered=True)
    copies_b = brute_embeddings(b, c, ordered=True)
    inner = brute_embeddings(a, b, ordered=True)
    if not copies_b:
        return False
    index = {m: i for i, m in enumerate(copies_a)}
    edges = [
        [index[tuple(h[o[x]] for x in range(c.n_atoms))] for h in inner]
        for o in copies_b
    ]
    for coloring in product(range(k), repeat=len(copies_a)):
        if all(len({coloring[v] for v in e}) >= 2 for e in edges):
            return False
    return True


def reference_search_bad_coloring(
    n_vertices: int, edges: list[tuple[int, ...]], k: int
) -> tuple[list[int] | None, int]:
    """The recursive first-fail search the iterative one replaced, verbatim.

    First bad coloring in branch order, or None after exhausting all.
    """
    edges = sorted(set(edges))
    touching: list[list[int]] = [[] for _ in range(n_vertices)]
    for ei, edge in enumerate(edges):
        for v in edge:
            touching[v].append(ei)

    color = [-1] * n_vertices
    forbid = [0] * n_vertices
    # per edge: count of assigned vertices while still single-colored
    e_count = [0] * len(edges)
    e_color = [-1] * len(edges)
    e_open = [True] * len(edges)
    full = (1 << k) - 1
    nodes = 0

    def assign(v: int, col: int, trail: list) -> bool:
        color[v] = col
        trail.append((0, v, -1))
        for ei in touching[v]:
            if not e_open[ei]:
                continue
            if e_count[ei] == 0 or e_color[ei] == col:
                trail.append((1, ei, e_color[ei]))
                e_color[ei] = col
                e_count[ei] += 1
                size = len(edges[ei])
                if e_count[ei] == size:
                    return False
                if e_count[ei] == size - 1:
                    u = next(x for x in edges[ei] if color[x] < 0)
                    bit = 1 << col
                    if not forbid[u] & bit:
                        forbid[u] |= bit
                        trail.append((2, u, bit))
                        if forbid[u] == full:
                            return False
            else:
                e_open[ei] = False
                trail.append((3, ei, -1))
        return True

    def undo(trail: list) -> None:
        for kind, idx, payload in reversed(trail):
            if kind == 0:
                color[idx] = -1
            elif kind == 1:
                e_color[idx] = payload
                e_count[idx] -= 1
            elif kind == 2:
                forbid[idx] &= ~payload
            else:
                e_open[idx] = True

    def select() -> int:
        best, best_forbidden = -1, -1
        for v in range(n_vertices):
            if color[v] < 0:
                count = bin(forbid[v]).count("1")
                if count > best_forbidden:
                    best, best_forbidden = v, count
        return best

    def dfs() -> bool:
        nonlocal nodes
        v = select()
        if v < 0:
            return True
        first_decision = nodes == 0
        for col in range(k):
            if forbid[v] & (1 << col):
                continue
            nodes += 1
            trail: list = []
            if assign(v, col, trail) and dfs():
                return True
            undo(trail)
            if first_decision:
                break  # color names are symmetric; pin the first vertex
        return False

    if dfs():
        return list(color), nodes
    return None, nodes


def reference_recheck_bad_coloring(
    c: LabeledAlgebra, b: LabeledAlgebra, a: LabeledAlgebra, k: int, coloring: Coloring
) -> bool:
    """The recheck as it was before it read block maps: every copy an
    Embedding, every composite built by compose."""
    if (coloring.a, coloring.c) != (a, c):
        return False
    copies_a = enumerate_embeddings(a, c, mode="ordered")
    if len(coloring.colors) != len(copies_a):
        return False
    if any(not (isinstance(col, int) and 0 <= col < k) for col in coloring.colors):
        return False
    assigned = dict(zip(copies_a, coloring.colors))
    inner = enumerate_embeddings(a, b, mode="ordered")
    for outer in enumerate_embeddings(b, c, mode="ordered"):
        seen = {assigned[compose(outer, h)] for h in inner}
        if len(seen) <= 1:
            return False
    return True


def reference_amalgamate(a: LabeledAlgebra, b: LabeledAlgebra, c: LabeledAlgebra, f, g):
    """The recursive interleaving and scan absorption the merge replaced, verbatim.

    Returns (d, r, s, identified) for ordered embeddings f: A -> B and
    g: A -> C that the caller has already checked; postconditions are left
    to the code under test.
    """
    k = a.n_atoms
    f_max = [max(block) for block in f.blocks()]
    g_max = [max(block) for block in g.blocks()]

    # Token streams: the canonical atom sequences of B and C, block maxima
    # replaced by shared merged tokens ("M", i).
    merged_of_b = {f_max[i]: i for i in range(k)}
    merged_of_c = {g_max[i]: i for i in range(k)}
    tokens_b = [("M", merged_of_b[x]) if x in merged_of_b else ("B", x) for x in b.atoms]
    tokens_c = [("M", merged_of_c[x]) if x in merged_of_c else ("C", x) for x in c.atoms]

    def token_level(token: tuple[str, int]):
        tag, x = token
        if tag == "B":
            return b.levels[x]
        if tag == "C":
            return c.levels[x]
        return a.levels[x]

    placed: list[tuple[str, int]] = []

    def interleavings(pb: int, pc: int):
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
    return d, r, s, tuple((f_max[i], g_max[i]) for i in range(k))


def wire_reference(value):
    """The JSON value of a report, from the wire format's definition.

    A level is its ideal index or "out"; an algebra is its chain length and
    levels; an embedding is its block map and ordered flag; a chain lists its
    member sets, each sorted; a coloring lists {"embedding": block map,
    "color"} rows, the ordered block maps in lexicographic order, which is
    enumeration order; a certificate, search stats and an amalgamation
    result are objects of their fields.  Containers are walked, and
    everything else is left for json to write or refuse.
    """
    if isinstance(value, LabeledAlgebra):
        levels = ["out" if level is OUT else level for level in value.levels]
        return {"chain_length": value.chain_length, "levels": levels}
    if isinstance(value, Embedding):
        return {"block_of": list(value.block_of), "ordered": value.ordered}
    if isinstance(value, MaximalChain):
        return [sorted(member) for member in value.sets]
    if isinstance(value, Coloring):
        rows = zip(brute_embeddings(value.a, value.c, ordered=True), value.colors)
        return [{"embedding": list(block_of), "color": color} for block_of, color in rows]
    if isinstance(value, (ArrowCertificate, SearchStats, AmalgamationResult)):
        return {f.name: wire_reference(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: wire_reference(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [wire_reference(item) for item in value]
    return value


def _reference_unique_keys(pairs: list) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"repeats the key {key!r} in one object")
        seen.add(key)
    return dict(pairs)


def reference_load_json_file(path: str):
    """A JSON input read through a text-mode handle: UTF-8, universal newlines."""
    decoder = json.JSONDecoder(object_pairs_hook=_reference_unique_keys)
    try:
        with open(path, encoding="utf-8") as handle:
            return decoder.decode(handle.read())
    except OSError as bad:
        raise ParseError(f"cannot read {path}: {bad}") from bad
    except json.JSONDecodeError as bad:
        raise ParseError(f"{path} is not valid JSON: {bad}") from bad
    except UnicodeDecodeError as bad:
        raise ParseError(f"{path} is not UTF-8 text: {bad}") from bad
    except ValueError:
        raise ParseError(f"{path} holds an integer literal too long to read") from None
    except RecursionError:
        raise ParseError(f"{path} nests arrays or objects too deeply") from None
    except ParseError as bad:
        raise ParseError(f"{path} {bad}") from None
