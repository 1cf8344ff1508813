"""Mutation gate: every listed re-check has a test that fails without it.

Each mutant deletes one check as an exact piece of source text, or, given
as a (text, replacement) pair, replaces it.  For each one in turn, the
script copies src/ and tests/ to a temporary directory, applies that one
edit there, and runs the mutant's test files in one pytest process; the
repository itself is never changed.  A mutant is killed
when its tests fail and survives when they pass.  Before the mutants, the
unchanged copy must pass all the named test files, so that a test already
failing cannot pass for a kill.

Run from anywhere, standard library and pytest only:

    python tests/mutants.py

Exits 1 when a mutant survives, when a mutated text no longer occurs
exactly once in its file, or when a run neither passes nor fails its tests.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = "src/ramsey_ba/cli.py"
CORE = "src/ramsey_ba/core.py"
FRAISSE = "src/ramsey_ba/fraisse.py"
RAMSEY = "src/ramsey_ba/ramsey.py"
CHAINS = "src/ramsey_ba/chains.py"
EMBED = "src/ramsey_ba/embed.py"
ORDER = "src/ramsey_ba/order.py"
PARALLEL = "src/ramsey_ba/parallel.py"
SERIALIZE = "src/ramsey_ba/serialize.py"

# (name, file, deleted text or (text, replacement), test files that must kill it)
MUTANTS = [
    (
        "amalgam: r is a checked block map",
        FRAISSE,
        # only the check goes; the dict entry keeps the if compiling
        "            _check_block_map(r, b, d, True)\n",
        ["tests/test_fraisse.py"],
    ),
    (
        "amalgam: s is a checked block map",
        FRAISSE,
        # only the check goes; the dict entry keeps the if compiling
        "            _check_block_map(s, c, d, True)\n",
        ["tests/test_fraisse.py"],
    ),
    (
        # killed by test_interned_map_is_checked_again_for_a_host_with_other_levels
        "amalgam: a map checked into D for one host's levels is checked again for others",
        FRAISSE,
        ("        if checked.get(r) != b_levels:\n", "        if r not in checked:\n"),
        ["tests/test_fraisse.py"],
    ),
    (
        # killed by test_ap_suite_clears_its_amalgam_table_past_the_bound
        "AP suite: a shard clears its amalgam table past MAX_AP_AMALGAMS",
        FRAISSE,
        "            if len(amalgams) > MAX_AP_AMALGAMS:\n"
        "                amalgams.clear()  # only time is lost: the pairs rebuild what they need\n",
        ["tests/test_fraisse.py"],
    ),
    (
        # killed by test_check_ap_lists_violations_by_copy_pairs
        "AP suite: a failing pair's mirror goes through the kernel",
        FRAISSE,
        "                    if j != i:  # a failing pair cannot answer for its mirror\n"
        "                        [mirror] = _amalgamate_run(kind, a, level_of, run[j], [run[i]], amalgams)\n"
        "                        if type(mirror) is str:\n"
        "                            violations.append(_violation(base, a, copies, j, i, mirror))\n",
        ["tests/test_fraisse.py"],
    ),
    (
        # killed by test_ap_cut_weighs_each_b_side_by_its_kernel_pairs.  The
        # mutant weighs every B-side of a base alike, by half its copy count,
        # so the total stays within the kernel pairs and the cut list
        "AP suite: the cut weighs B-side i by its m - i kernel pairs",
        FRAISSE,
        ("            done += len(pairs) - i\n", "            done += (len(pairs) + 1) // 2\n"),
        ["tests/test_fraisse.py"],
    ),
    (
        "amalgam: atom count",
        FRAISSE,
        # the condition goes and its branch stays, so the elif chain still compiles
        ("        if len(d.levels) != size + len(c.levels):\n", "        if False:\n"),
        ["tests/test_fraisse.py"],
    ),
    (
        "amalgam: the square commutes",
        FRAISSE,
        (
            "        elif r.translate(f_square) != s.translate(g_square):\n",
            "        elif False:\n",
        ),
        ["tests/test_fraisse.py"],
    ),
    (
        # killed by test_interned_amalgams_match_reference
        "absorption: a C-loose key's r is the nearest later B atom of its own A-block",
        FRAISSE,
        ("            r[p] = near_b[i]\n", "            r[p] = near_b[i - 1]\n"),
        ["tests/test_fraisse.py"],
    ),
    (
        # killed by test_interned_amalgams_match_reference
        "absorption: a B-loose key's s is the nearest later C atom",
        FRAISSE,
        ("            s[p] = near_c[i]\n", "            s[p] = maxima[i]\n"),
        ["tests/test_fraisse.py"],
    ),
    (
        # killed by test_interned_amalgams_match_reference
        "absorption: a B maximum's s is the identified maximum",
        FRAISSE,
        "            if tag == 2:  # B's block maximum i, identified with C's maxima[i]\n"
        "                near_c[i] = maxima[i]\n",
        ["tests/test_fraisse.py"],
    ),
    (
        # killed by test_absorption_sentinel_is_refused_as_a_nonexistent_atom
        "absorption: a key with no atom yet keeps a byte that names no atom",
        FRAISSE,
        ("_UNSET = bytes([MAX_SIDE_ATOMS])\n", "_UNSET = bytes(1)\n"),
        ["tests/test_fraisse.py"],
    ),
    (
        "amalgam: D stays in the class",
        FRAISSE,
        ("        elif not member:\n", "        elif False:\n"),
        ["tests/test_fraisse.py"],
    ),
    (
        "AP suite: each copy is a checked block map",
        FRAISSE,
        "                _check_block_map(block_of, a, host, True)\n",
        ["tests/test_fraisse.py"],
    ),
    (
        "AP suite: the pair count is bounded before any shard",
        FRAISSE,
        "                if instances > MAX_AP_PAIRS:\n"
        "                    raise _too_many_pairs()\n",
        ["tests/test_fraisse.py", "tests/test_cli.py"],
    ),
    (
        "AP suite: too many hosts are refused before their copies are listed",
        FRAISSE,
        "    if len(hosts) == limit > 0:\n"
        "        raise _too_many_pairs()\n",
        ["tests/test_fraisse.py", "tests/test_cli.py"],
    ),
    (
        # killed by test_hp_suite_refuses_past_its_partition_budget
        "HP suite: the partition count is bounded before any shard",
        FRAISSE,
        "        if partitions > MAX_HP_PARTITIONS:\n"
        "            raise BoundExceeded(\n"
        '                f"the hereditary suite checks at most {MAX_HP_PARTITIONS} partitions;"\n'
        '                " there are more"\n'
        "            )\n",
        ["tests/test_fraisse.py"],
    ),
    (
        "amalgam: a side has at most MAX_SIDE_ATOMS atoms",
        FRAISSE,
        ("    if host.n_atoms > MAX_SIDE_ATOMS:\n", "    if False:\n"),
        ["tests/test_fraisse.py", "tests/test_cli.py"],
    ),
    (
        "algebra: the chain length is an int, not a bool or float",
        CORE,
        "    if isinstance(chain_length, bool) or not isinstance(chain_length, int):\n"
        '        raise LevelOutOfRange(f"chain_length is not an integer: {chain_length!r}")\n',
        ["tests/test_core.py"],
    ),
    (
        "arrow: the search's coloring is rechecked",
        RAMSEY,
        "    if not recheck_bad_coloring(c, b, a, k, bad):\n"
        "        raise VerificationFailed(\n"
        '            "search returned a coloring the direct scan rejects",\n'
        "            certificate=certificate,\n"
        "        )\n",
        ["tests/test_ramsey.py", "tests/test_cli.py"],
    ),
    (
        "arrow: a vacuous answer lists no A-copy of B",
        RAMSEY,
        # inner is listed again before the vacuous return
        (
            "    copies_b = list(_ordered_block_maps(b, c))\n"
            "    if not copies_b:\n",
            "    copies_b = list(_ordered_block_maps(b, c))\n"
            "    list(_ordered_block_maps(a, b))\n"
            "    if not copies_b:\n",
        ),
        ["tests/test_ramsey.py"],
    ),
    (
        "arrow: k is an int, not a bool or float",
        RAMSEY,
        "    if isinstance(k, bool) or not isinstance(k, int):\n"
        '        raise ValueError(f"the color count is not an integer: {k!r}")\n',
        ["tests/test_ramsey.py"],
    ),
    (
        "options: integer options are ints, not bools, floats or strings",
        CLI,
        "            if isinstance(value, bool) or not isinstance(value, int):\n"
        '                raise ValueError(f"{name} must be an integer, got {value!r}")\n',
        ["tests/test_cli.py"],
    ),
    (
        "options: kind is a ClassKind or unset",
        CLI,
        "        if not (config.kind is None or isinstance(config.kind, ClassKind)):\n"
        '            raise ValueError(f"kind must be a ClassKind, got {config.kind!r}")\n',
        ["tests/test_cli.py"],
    ),
    (
        "options: minimal is a bool",
        CLI,
        "        if not isinstance(config.minimal, bool):\n"
        '            raise ValueError(f"minimal must be a bool, got {config.minimal!r}")\n',
        ["tests/test_cli.py"],
    ),
    (
        "input files: a path is a str or os.PathLike, never a file descriptor",
        SERIALIZE,
        "    if not isinstance(path, (str, os.PathLike)):  # open() reads an int as a descriptor\n"
        '        raise ParseError(f"an input path is a str or os.PathLike, got {path!r}")\n',
        ["tests/test_cli.py"],
    ),
    (
        "search cache: the key holds k",
        RAMSEY,
        ("key = (n_vertices, k, frozenset(masks))", "key = (n_vertices, frozenset(masks))"),
        ["tests/test_ramsey.py"],
    ),
    (
        "search cache: held masks stay within the bound",
        RAMSEY,
        "        while self.masks > self.max_masks:\n"
        "            (*_, old), _ = self.results.popitem(last=False)\n"
        "            self.masks -= len(old)\n",
        ["tests/test_ramsey.py"],
    ),
    (
        "recheck: B shares the chain length",
        RAMSEY,
        "    _require_same_chain(a, b)\n",
        ["tests/test_ramsey.py"],
    ),
    (
        "recheck: every color is an int in range",
        RAMSEY,
        "    if any(\n"
        "        not (isinstance(col, int) and not isinstance(col, bool) and 0 <= col < k)\n"
        "        for col in coloring.colors\n"
        "    ):\n"
        "        return False\n",
        ["tests/test_ramsey.py"],
    ),
    (
        "recheck: each B-copy is composed with every A-copy of B by its own table",
        RAMSEY,
        (
            "map(bytes(outer).translate, tables)}",
            "map(bytes(outer).translate, tables[:1] * len(tables))}",
        ),
        ["tests/test_ramsey.py"],
    ),
    (
        "arrow: a nontrivial search takes B of at most MAX_BYTE_ATOMS atoms",
        RAMSEY,
        ("    if b.n_atoms > MAX_BYTE_ATOMS:\n", "    if False:\n"),
        ["tests/test_ramsey.py", "tests/test_cli.py"],
    ),
    (
        "recheck: no B-copy is monochromatic",
        RAMSEY,
        "        if len(seen) <= 1:\n"
        "            return False\n",
        ["tests/test_ramsey.py"],
    ),
    (
        "witness: C stays in the class",
        RAMSEY,
        "    if not class_membership(c, kind):\n"
        "        raise VerificationFailed(\n"
        '            f"constructed witness {signature_json(c)} left the class {kind.value}",\n'
        "            certificate=certificate,\n"
        "        )\n",
        ["tests/test_ramsey.py"],
    ),
    (
        "witness: the final certificate holds",
        RAMSEY,
        '    if certificate.verdict != "holds":\n'
        "        raise VerificationFailed(\n"
        '            f"constructed witness {signature_json(c)} fails its arrow check",\n'
        "            certificate=certificate,\n"
        "        )\n",
        ["tests/test_ramsey.py"],
    ),
    (
        "block map: an ordered map has increasing maxima",
        EMBED,
        "    if ordered and maxima != sorted(maxima):\n"
        '        raise NotAnEmbedding("block maxima not increasing for an ordered embedding")\n',
        ["tests/test_embed.py"],
    ),
    (
        "block map: no block is empty",
        EMBED,
        "        if m < 0:\n"
        '            raise NotAnEmbedding(f"block {i} is empty")\n',
        ["tests/test_embed.py"],
    ),
    (
        "block map: both algebras share the chain length",
        EMBED,
        "    if small.chain_length != big.chain_length:\n"
        "        _require_same_chain(small, big)  # raises; the comparison spares the call\n",
        ["tests/test_embed.py"],
    ),
    (
        "copies: the output bound is checked",
        EMBED,
        "    if limit is not None and len(maps) * per_map > limit:\n"
        '        raise BoundExceeded(f"copies lists at most {limit} embeddings; there are more")\n',
        ["tests/test_embed.py", "tests/test_cli.py"],
    ),
    (
        "HP suite: each subalgebra's embedding is checked",
        FRAISSE,
        "        _check_block_map(block_of, sub, algebra, True)\n",
        ["tests/test_fraisse.py"],
    ),
    (
        "HP suite: a partition's blocks are read, not sorted in place",
        EMBED,
        ("    blocks = sorted(blocks, key=max)\n", "    blocks.sort(key=max)\n"),
        ["tests/test_fraisse.py"],
    ),
    (
        "forgetfulness: enumerated order count matches the product",
        ORDER,
        "        if len(proper) != count_proper_orders(algebra):\n"
        "            violations.append(\n"
        "                {\n"
        '                    "levels": signature_json(algebra),\n'
        '                    "reason": "count mismatch",\n'
        '                    "enumerated": len(proper),\n'
        '                    "expected": count_proper_orders(algebra),\n'
        "                }\n"
        "            )\n",
        ["tests/test_order.py"],
    ),
    (
        "forgetfulness: every proper order is ordered-isomorphic to the canonical one",
        ORDER,
        # the loop goes with its one if block, so the mutant still compiles
        "        for ord_b in proper:\n"
        "            if not ordered_isomorphic(algebra, canonical, algebra, ord_b):\n"
        "                violations.append(\n"
        "                    {\n"
        '                        "levels": signature_json(algebra),\n'
        '                        "reason": "orders not isomorphic",\n'
        '                        "ord_a": list(canonical),\n'
        '                        "ord_b": list(ord_b),\n'
        "                    }\n"
        "                )\n",
        ["tests/test_order.py"],
    ),
    (
        "ordered isomorphism: the left-hand order is proper",
        ORDER,
        "    if levels_a != sorted(levels_a):\n"
        '        raise ImproperOrder(f"not a proper order: {ord_a}")\n',
        ["tests/test_order.py"],
    ),
    (
        "ordered isomorphism: the right-hand order is proper",
        ORDER,
        "    if levels_b != sorted(levels_b):\n"
        '        raise ImproperOrder(f"not a proper order: {ord_b}")\n',
        ["tests/test_order.py"],
    ),
    (
        "witness: A and B share the chain length",
        RAMSEY,
        "    if a.chain_length != b.chain_length:\n"
        '        raise ChainMismatch("witness operands must share the chain length")\n',
        ["tests/test_ramsey.py"],
    ),
    (
        "chains: each chain passes through every upper set",
        CHAINS,
        # each run keeps every permutation of its atoms
        "        for k, e in family:\n"
        "            if start < k <= start + len(run):\n"
        "                kept = [perm for perm in kept if earlier.union(perm[:k - start]) == e]\n",
        ["tests/test_chains.py"],
    ),
    (
        "concatenations: each list's items follow the earlier lists' joins",
        ORDER,
        ("itertools.product(joined, items)", "itertools.product(items, joined)"),
        ["tests/test_order.py", "tests/test_chains.py"],
    ),
    (
        "input files: newlines are translated as text mode translates them",
        SERIALIZE,
        ('text.replace("\\r\\n", "\\n").replace("\\r", "\\n")', "text"),
        ["tests/test_serialize.py"],
    ),
    (
        "chain writer: the first run's segments in product order",
        SERIALIZE,
        ("held.append(segments)", "held.append(segments if held else segments[::-1])"),
        ["tests/test_serialize.py"],
    ),
    (
        "coloring rows: only plain int colors take the %d template",
        SERIALIZE,
        ("if all(type(col) is int for col in value.colors):", "if True:"),
        ["tests/test_serialize.py"],
    ),
    (
        # killed by test_a_sweep_with_no_work_takes_one_worker
        "fork rule: a sweep forks only as far as its work pays for children",
        PARALLEL,
        ("units * unit_ns // FORK_NS", "workers"),
        ["tests/test_parallel.py"],
    ),
    (
        # killed by test_a_sweep_takes_a_worker_per_fork_of_work
        "fork rule: a sweep of exactly w forks' worth of work takes w workers",
        PARALLEL,
        ("units * unit_ns // FORK_NS", "(units * unit_ns - 1) // FORK_NS"),
        ["tests/test_parallel.py"],
    ),
    (
        "fan-out: a child's exception is raised in the caller",
        PARALLEL,
        "            if not ok:\n"
        "                raise value\n",
        ["tests/test_parallel.py"],
    ),
]


def _edit(text: str | tuple[str, str]) -> tuple[str, str]:
    """The source text a mutant removes and what it puts in its place."""
    return text if isinstance(text, tuple) else (text, "")


def run_tests(source_root: Path, tests: list[str], mutant: tuple[str, str | tuple] | None) -> int:
    """pytest's exit code on a copy of the repository, with one mutant's edit applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                source_root / part, copy / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(source_root / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            rel, text = mutant
            target = copy / rel
            target.write_text(target.read_text().replace(*_edit(text), 1))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return done.returncode


def main() -> int:
    bad = 0
    stale = []
    for name, rel, text, _ in MUTANTS:
        found = (ROOT / rel).read_text().count(_edit(text)[0])
        if found != 1:
            print(f"stale     {name}: the mutated text occurs {found} times in {rel}")
            stale.append(name)
    every_test = sorted({test for *_, tests in MUTANTS for test in tests})
    baseline = run_tests(ROOT, every_test, None)
    if baseline != 0:
        print(f"baseline  the unchanged tests exit {baseline}; no mutant can be judged")
        return 1
    for name, rel, text, tests in MUTANTS:
        if name in stale:
            bad += 1
            continue
        code = run_tests(ROOT, tests, (rel, text))
        if code == 1:
            print(f"killed    {name}")
        elif code == 0:
            print(f"SURVIVED  {name}: {' '.join(tests)} pass without it")
            bad += 1
        else:
            print(f"error     {name}: pytest exited {code}")
            bad += 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
