"""Command line contract: subcommands, exit codes, canonical reports."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ramsey_ba
from ramsey_ba import (
    OUT,
    ClassKind,
    arrows,
    cli,
    fraisse,
    make_algebra,
    ramsey,
    recheck_bad_coloring,
)
from ramsey_ba.chains import MAX_CHAIN_POINTS
from ramsey_ba.cli import RunConfig, build_parser, config_from_args, main, run
from ramsey_ba.serialize import format_io, parse_algebra

from .test_parallel import cheap_forks, forks  # noqa: F401  (fixtures)


def write(tmp_path, name, payload) -> str:
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


@pytest.fixture
def algebras(tmp_path):
    return {
        "one_out": write(tmp_path, "one_out.json", {"chain_length": 1, "levels": ["out"]}),
        "small": write(tmp_path, "small.json", {"chain_length": 1, "levels": [0, "out"]}),
        "mid": write(tmp_path, "mid.json", {"chain_length": 1, "levels": [0, 0, "out"]}),
        "pure2": write(tmp_path, "pure2.json", {"chain_length": 1, "levels": ["out", "out"]}),
        "no_out": write(tmp_path, "no_out.json", {"chain_length": 1, "levels": [0, 0]}),
        "bad_level": write(tmp_path, "bad_level.json", {"chain_length": 1, "levels": [1, "out"]}),
    }


@pytest.fixture
def minimal_argv(tmp_path, algebras):
    """Each subcommand's shortest accepted command line."""
    f = write(tmp_path, "f.json", {"block_of": [0, 0], "ordered": True})
    small, mid = algebras["small"], algebras["mid"]
    return {
        "validate": ["validate", "--kind", "bj", "--algebra", small],
        "copies": ["copies", "--small", small, "--big", mid],
        "arrow": ["arrow", "--c", mid, "--b", small, "--a", small],
        "witness": ["witness", "--kind", "bu", "--a", small, "--b", mid],
        "amalgamate": ["amalgamate", "--kind", "bj", "--a", algebras["one_out"],
                       "--b", small, "--c", algebras["pure2"], "--f", f, "--g", f],
        "fraisse": ["fraisse", "--kind", "bj"],
        "chains": ["chains", "--algebra", mid],
        "forgetful": ["forgetful"],
    }


def run_cli(capsys, argv) -> tuple[int, dict]:
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out.endswith("\n")
    return code, json.loads(captured.out)


def test_validate_member_and_nonmember(capsys, algebras):
    code, report = run_cli(
        capsys, ["validate", "--kind", "bj", "--algebra", algebras["small"]]
    )
    assert code == 0 and report["member"] is True
    code, report = run_cli(
        capsys, ["validate", "--kind", "bj", "--algebra", algebras["no_out"]]
    )
    assert code == 1 and report["member"] is False


def test_copies_reports_embeddings(capsys, algebras):
    code, report = run_cli(
        capsys,
        ["copies", "--small", algebras["small"], "--big", algebras["mid"]],
    )
    assert code == 0 and report["count"] == 3
    assert [e["block_of"] for e in report["embeddings"]] == [
        [0, 0, 1],
        [0, 1, 1],
        [1, 0, 1],
    ]


def test_arrow_exit_codes(capsys, algebras):
    code, report = run_cli(
        capsys,
        ["arrow", "--c", algebras["mid"], "--b", algebras["small"],
         "--a", algebras["small"], "-k", "2"],
    )
    assert code == 0 and report["certificate"]["verdict"] == "holds"
    code, report = run_cli(
        capsys,
        ["arrow", "--c", algebras["mid"], "--b", algebras["mid"],
         "--a", algebras["small"], "-k", "2"],
    )
    assert code == 1
    assert report["certificate"]["verdict"] == "fails"
    assert report["certificate"]["bad_coloring"] is not None


def test_witness_constructs_and_reports_minimal(capsys, algebras):
    code, report = run_cli(
        capsys,
        ["witness", "--kind", "bu", "--a", algebras["small"],
         "--b", algebras["mid"], "--minimal"],
    )
    assert code == 0
    constructed = report["constructed"]
    assert constructed["witness"]["levels"] == [0, 0, 0, 0, 0, 0, "out"]
    assert constructed["certificate"]["verdict"] == "holds"
    assert report["minimal"]["size"] == 6
    assert report["minimal"]["witness"]["levels"] == [0, 0, 0, 0, 0, "out"]


def test_witness_bound_exceeded_is_usage_error(capsys, algebras):
    code, report = run_cli(
        capsys,
        ["witness", "--kind", "bu", "--a", algebras["small"],
         "--b", algebras["mid"], "--max-atoms", "4"],
    )
    assert code == 2
    assert report["error"]["type"] == "bound-exceeded"


def test_witness_that_fails_its_verification_exits_1_with_the_finding(
    capsys, monkeypatch, algebras
):
    # B itself is in the class, but 2 colors split its 3 copies of A
    monkeypatch.setattr(ramsey, "_assemble_witness", lambda a, b, k, max_atoms: b)
    code, report = run_cli(
        capsys,
        ["witness", "--kind", "bu", "--a", algebras["small"], "--b", algebras["mid"], "--minimal"],
    )
    assert code == 1
    assert report["constructed"] is None and "minimal" not in report
    assert report["finding"]["detail"] == (
        "constructed witness [0, 0, 'out'] fails its arrow check"
    )
    a, b = make_algebra([0, OUT], 1), make_algebra([0, 0, OUT], 1)
    assert report["finding"]["certificate"] == json.loads(format_io(arrows(b, b, a, 2)))
    assert report["finding"]["certificate"]["verdict"] == "fails"


def test_amalgam_that_fails_its_postcondition_exits_1_with_the_failure(
    capsys, monkeypatch, tmp_path, algebras
):
    monkeypatch.setattr(fraisse, "class_membership", lambda algebra, kind: False)
    f = write(tmp_path, "f.json", {"block_of": [0, 0], "ordered": True})
    code, report = run_cli(
        capsys,
        ["amalgamate", "--kind", "bj", "--a", algebras["one_out"],
         "--b", algebras["small"], "--c", algebras["pure2"], "--f", f, "--g", f],
    )
    assert code == 1
    assert report["result"] is None
    assert report["failure"] == "amalgam left the class bj"


def test_fraisse_lists_hp_violations_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(fraisse, "class_membership", lambda algebra, kind: False)
    code, report = run_cli(
        capsys,
        ["fraisse", "--kind", "bj", "--suite", "hp", "--max-atoms", "2", "--chain-length", "1"],
    )
    assert code == 1
    assert report["hp"]["instances"] == 5
    assert report["hp"]["violations"][:2] == [
        {"algebra": ["out"], "partition": [[0]], "subalgebra": ["out"]},
        {"algebra": [0, "out"], "partition": [[0, 1]], "subalgebra": ["out"]},
    ]
    assert len(report["hp"]["violations"]) == 5


def test_unknown_subcommand_exits_2():
    code, text = run(RunConfig("bogus"))
    assert code == 2
    assert json.loads(text) == {"error": {"type": "unknown-subcommand", "detail": "bogus"}}


def test_unwritable_output_path_exits_2_on_stderr_only(capsys, tmp_path, algebras):
    code = main(["validate", "--kind", "bj", "--algebra", algebras["small"], "--output", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ")


def test_amalgamate_success(capsys, tmp_path, algebras):
    f = write(tmp_path, "f.json", {"block_of": [0, 0], "ordered": True})
    g = write(tmp_path, "g.json", {"block_of": [0, 0], "ordered": True})
    code, report = run_cli(
        capsys,
        ["amalgamate", "--kind", "bj", "--a", algebras["one_out"],
         "--b", algebras["small"], "--c", algebras["pure2"],
         "--f", f, "--g", g],
    )
    assert code == 0
    assert report["result"]["d"]["levels"] == [0, "out", "out"]
    assert report["result"]["r"]["block_of"] == [0, 1, 1]
    assert report["result"]["s"]["block_of"] == [0, 0, 1]
    assert report["result"]["identified"] == [[1, 1]]


def test_fraisse_suites_pass(capsys):
    code, report = run_cli(
        capsys,
        ["fraisse", "--kind", "bj", "--suite", "both", "--max-atoms", "3",
         "--chain-length", "1"],
    )
    assert code == 0
    assert report["hp"]["violations"] == []
    assert report["ap"]["violations"] == []
    assert report["ap"]["instances"] > 0


def test_chains_correspondence(capsys, algebras):
    code, report = run_cli(capsys, ["chains", "--algebra", algebras["mid"]])
    assert code == 0
    assert report["correspondence"]["matched"] is True
    assert report["correspondence"]["extending_chains"] == 2
    assert report["extending"] == [[[], [2], [0, 2], [0, 1, 2]],
                                   [[], [2], [1, 2], [0, 1, 2]]]


def test_chains_refuses_past_point_budget(capsys, tmp_path):
    levels = [0] * MAX_CHAIN_POINTS + ["out"]
    big = write(tmp_path, "big.json", {"chain_length": 1, "levels": levels})
    start = time.perf_counter()
    code, report = run_cli(capsys, ["chains", "--algebra", big])
    assert time.perf_counter() - start < 1  # refused before any chain is walked
    assert code == 2
    assert report["error"]["type"] == "bound-exceeded"


def test_chains_refuses_past_output_budget(capsys, tmp_path):
    # 9 level-free atoms pass the point budget but have 9! extending chains
    big = write(tmp_path, "free.json", {"chain_length": 0, "levels": ["out"] * 9})
    start = time.perf_counter()
    code, report = run_cli(capsys, ["chains", "--algebra", big])
    assert time.perf_counter() - start < 1  # refused before any chain is walked
    assert code == 2
    assert report["error"]["type"] == "bound-exceeded"


def test_copies_refuses_past_output_budget(tmp_path):
    # [out, out] has 2^(n-1) - 1 ordered copies in n level-free atoms
    free = {n: {"chain_length": 0, "levels": ["out"] * n} for n in (2, 16, 17)}
    small = write(tmp_path, "small.json", free[2])
    inputs = {n: {"small": small, "big": write(tmp_path, f"{n}.json", free[n])} for n in (16, 17)}
    code, text = run(RunConfig(subcommand="copies", inputs=inputs[16]))
    assert code == 0 and json.loads(text)["count"] == 32767
    # 65,535 ordered copies in 17 atoms; in plain mode, 16 atoms give 2 x 32,767
    for n, mode in ((17, "ordered"), (16, "plain")):
        start = time.perf_counter()
        code, text = run(RunConfig(subcommand="copies", inputs=inputs[n], mode=mode))
        assert time.perf_counter() - start < 1  # refused before any copy is built
        assert (code, json.loads(text)["error"]["type"]) == (2, "bound-exceeded")


def test_forgetful_sweep(capsys):
    code, report = run_cli(
        capsys, ["forgetful", "--max-atoms", "3", "--chain-length", "2"]
    )
    assert code == 0
    assert report["sweep"]["violations"] == []


def test_forgetful_refuses_past_sweep_budget(capsys):
    start = time.perf_counter()
    code, report = run_cli(
        capsys, ["forgetful", "--max-atoms", "9", "--chain-length", "1"]
    )
    assert time.perf_counter() - start < 1  # refused before any algebra is swept
    assert code == 2
    assert report["error"]["type"] == "bound-exceeded"


def test_fraisse_refuses_past_pair_budget(capsys):
    # bj t = 1 at 7 atoms has 5,679,853 pairs, above fraisse.MAX_AP_PAIRS
    start = time.perf_counter()
    code, report = run_cli(
        capsys, ["fraisse", "--kind", "bj", "--suite", "ap", "--max-atoms", "7", "--chain-length", "1"]
    )
    assert time.perf_counter() - start < 1  # refused while the copies are listed
    assert code == 2
    assert report["error"]["type"] == "bound-exceeded"
    assert report["error"]["detail"] == (
        f"the amalgamation suite checks at most {fraisse.MAX_AP_PAIRS} pairs; there are more"
    )


def test_fraisse_refuses_too_many_hosts_before_listing_them_all(capsys):
    # bj t = 40 at 5 atoms has 148,995 members; 1,001 hosts already make
    # more pairs than fraisse.MAX_AP_PAIRS
    start = time.perf_counter()
    code, report = run_cli(
        capsys, ["fraisse", "--kind", "bj", "--suite", "ap", "--max-atoms", "5", "--chain-length", "40"]
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["error"] == {
        "type": "bound-exceeded",
        "detail": "the amalgamation suite checks at most 1000000 pairs; there are more",
    }


def test_fraisse_refuses_a_hereditary_sweep_past_its_partition_budget(capsys):
    # the default --suite both sweeps hp first; bj t = 40 at 5 atoms passes
    # fraisse.MAX_HP_PARTITIONS while its members are listed (the whole
    # sweep, 7,248,555 partitions, took 45.8 s before the budget)
    start = time.perf_counter()
    code, report = run_cli(
        capsys, ["fraisse", "--kind", "bj", "--max-atoms", "5", "--chain-length", "40"]
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["error"] == {
        "type": "bound-exceeded",
        "detail": f"the hereditary suite checks at most {fraisse.MAX_HP_PARTITIONS} partitions;"
        " there are more",
    }


def test_amalgamate_refuses_a_side_past_the_byte_bound(capsys, tmp_path):
    one_out = write(tmp_path, "a.json", {"chain_length": 0, "levels": ["out"]})
    for n, expected in ((255, 0), (256, 2)):
        b = write(tmp_path, "b.json", {"chain_length": 0, "levels": ["out"] * n})
        f = write(tmp_path, "f.json", {"block_of": [0] * n, "ordered": True})
        code, report = run_cli(
            capsys,
            ["amalgamate", "--kind", "bj", "--a", one_out, "--b", b, "--c", one_out,
             "--f", f, "--g", write(tmp_path, "g.json", {"block_of": [0], "ordered": True})],
        )
        assert code == expected
        if n == 255:
            assert report["result"]["r"]["block_of"] == list(range(255))
        else:
            assert report["error"] == {
                "type": "bound-exceeded",
                "detail": "amalgamation sides have at most 255 atoms; B has 256",
            }


def test_arrow_refuses_a_b_past_the_byte_bound(capsys, tmp_path):
    # block maps compose as bytes, naming at most 255 atoms of B
    a = write(tmp_path, "a.json", {"chain_length": 2, "levels": [0, "out"]})
    for ones, expected in ((252, 1), (253, 2)):
        levels = [0, 0] + [1] * ones + ["out"]
        b = write(tmp_path, "b.json", {"chain_length": 2, "levels": levels})
        code, report = run_cli(capsys, ["arrow", "--c", b, "--b", b, "--a", a])
        assert code == expected
        if ones == 252:
            assert report["certificate"]["stats"]["nodes"] == 3
        else:
            assert report["error"] == {
                "type": "bound-exceeded",
                "detail": "B has 256 atoms; arrow searches take at most 255",
            }


def test_input_path_of_another_type_is_refused(algebras):
    # open() would take an int as a file descriptor, and close it after the read
    read, written = os.pipe()
    os.write(written, b'{"chain_length": 1, "levels": [0, "out"]}')
    os.close(written)
    try:
        for path in (read, True, algebras["small"].encode()):
            code, text = run(RunConfig("validate", {"algebra": path}, kind=ClassKind.BJ))
            assert (code, json.loads(text)) == (2, {"error": {
                "type": "ParseError",
                "detail": f"an input path is a str or os.PathLike, got {path!r}",
            }})
        os.fstat(read)  # neither read nor closed
    finally:
        os.close(read)
    code, _ = run(RunConfig("validate", {"algebra": Path(algebras["small"])}, kind=ClassKind.BJ))
    assert code == 0


@pytest.mark.parametrize("name,value", [("kind", "bj"), ("minimal", "yes")])
def test_kind_and_minimal_of_another_type_are_refused(name, value, algebras):
    # a string kind would crash on .value, and minimal="yes" would pass as true
    inputs = {"a": algebras["small"], "b": algebras["mid"]}
    config = RunConfig("witness", inputs, kind=ClassKind.BU, max_atoms=8)
    assert run(config)[0] == 0
    code, text = run(dataclasses.replace(config, **{name: value}))
    assert code == 2
    detail = {"kind": "kind must be a ClassKind", "minimal": "minimal must be a bool"}[name]
    assert json.loads(text) == {
        "error": {"type": "ValueError", "detail": f"{detail}, got {value!r}"}
    }


def test_reports_never_print_out_as_an_int(capsys, tmp_path, algebras):
    # OUT is an int, so a level that skipped signature_json would print its value
    f = write(tmp_path, "f.json", {"block_of": [0, 0], "ordered": True})
    runs = [
        ["validate", "--kind", "bj", "--algebra", algebras["pure2"]],
        ["validate", "--kind", "bj", "--algebra", algebras["bad_level"]],
        ["copies", "--small", algebras["small"], "--big", algebras["mid"]],
        ["copies", "--small", algebras["one_out"], "--big", algebras["pure2"],
         "--mode", "plain"],
        ["arrow", "--c", algebras["mid"], "--b", algebras["mid"],
         "--a", algebras["small"]],
        ["witness", "--kind", "bu", "--a", algebras["small"],
         "--b", algebras["mid"], "--minimal"],
        ["amalgamate", "--kind", "bj", "--a", algebras["one_out"],
         "--b", algebras["small"], "--c", algebras["pure2"], "--f", f, "--g", f],
        ["fraisse", "--kind", "bj", "--max-atoms", "3", "--workers", "2"],
        ["chains", "--algebra", algebras["mid"]],
        ["forgetful", "--max-atoms", "3", "--chain-length", "2"],
    ]
    for argv in runs:
        main(argv)
        text = capsys.readouterr().out
        assert str(int(OUT)) not in text, argv
    assert {argv[0] for argv in runs} == set(cli._HANDLERS)


def test_cli_import_leaves_the_process_pool_unloaded():
    src = str(Path(ramsey_ba.__file__).resolve().parents[1])
    probe = (
        "import sys, ramsey_ba.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_vacuous_arrow_with_a_large_b_answers_at_once(tmp_path):
    # B has no copy in C; listing B's 2**25 - 1 copies of A first would take
    # minutes and gigabytes, so the child runs under a 512 MB address-space
    # limit and a regression fails fast with a MemoryError
    roles = {"c": 3, "b": 26, "a": 2}
    argv = ["arrow", "-k", "2"]
    for role, n in roles.items():
        argv += [f"--{role}", write(tmp_path, f"{role}.json", {"chain_length": 0, "levels": ["out"] * n})]
    probe = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from ramsey_ba.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write(f'{time.perf_counter() - start}\\n')\n"
        "sys.exit(code)\n"
    )
    src = str(Path(ramsey_ba.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1, done.stderr
    certificate = json.loads(done.stdout)["certificate"]
    assert certificate["vacuous"] is True and certificate["stats"]["b_copies"] == 0
    assert float(done.stderr.splitlines()[-1]) < 1.0


INPUT_ROLES = {
    "validate": ["algebra"],
    "copies": ["small", "big"],
    "arrow": ["c", "b", "a"],
    "witness": ["a", "b"],
    "amalgamate": ["a", "b", "c", "f", "g"],
    "fraisse": [],
    "chains": ["algebra"],
    "forgetful": [],
}


def test_config_from_args_takes_roles_and_defaults_from_the_parser(minimal_argv):
    assert set(minimal_argv) == set(INPUT_ROLES) == set(cli._HANDLERS)
    for name, argv in minimal_argv.items():
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        assert config.subcommand == name
        assert list(config.inputs) == INPUT_ROLES[name]
        assert all(config.inputs[role] == argv[argv.index(f"--{role}") + 1]
                   for role in INPUT_ROLES[name])
        defined = vars(args)
        for option in dataclasses.fields(RunConfig):
            if option.name in ("subcommand", "inputs"):
                continue
            value = getattr(config, option.name)
            if option.name not in defined:
                assert value == option.default, (name, option.name)
            elif option.name == "kind":
                assert value is ClassKind(defined["kind"])
            else:
                assert value == defined[option.name], (name, option.name)
    chains = config_from_args(build_parser().parse_args(minimal_argv["chains"]))
    assert (chains.k, chains.max_atoms, chains.kind) == (2, 6, None)
    sizes = {name: config_from_args(build_parser().parse_args(minimal_argv[name])).max_atoms
             for name in ("witness", "fraisse", "forgetful")}
    assert sizes == {"witness": 8, "fraisse": 4, "forgetful": 5}


BAD_OPTIONS = (
    [(name, ["-k", "0"], "k must be at least 1") for name in ("arrow", "witness")]
    + [(name, ["--max-atoms", "0"], "max_atoms must be at least 1")
       for name in ("witness", "fraisse", "forgetful")]
    + [("fraisse", ["--suite", "ap", "--max-a-atoms", value], "max_a_atoms must be at least 1")
       for value in ("0", "-2")]
    + [("fraisse", ["--workers", "-3"], "worker count must be at least 1, got -3")]
)


@pytest.mark.parametrize(
    "name,flags,detail", BAD_OPTIONS, ids=[f"{n} {' '.join(f)}" for n, f, _ in BAD_OPTIONS]
)
def test_bad_option_value_gets_a_json_report(capsys, minimal_argv, name, flags, detail):
    code = main(minimal_argv[name] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"error": {"type": "ValueError", "detail": detail}}
    assert captured.err == ""


@pytest.mark.parametrize("name", INPUT_ROLES)
def test_flags_that_change_nothing_are_refused(capsys, minimal_argv, name):
    removed = [["--deterministic"], ["--no-deterministic"]]
    if name != "fraisse":  # the only subcommand that fans out
        removed.append(["--workers", "2"])
    for flags in removed:
        with pytest.raises(SystemExit) as exit_:
            main(minimal_argv[name] + flags)
        captured = capsys.readouterr()
        assert exit_.value.code == 2, flags
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""


def test_worker_count_comes_only_from_the_command_line(
    capsys, monkeypatch, minimal_argv, cheap_forks, forks
):
    monkeypatch.setenv("RAMSEY_BA_WORKERS", "0")
    code, report = run_cli(capsys, minimal_argv["validate"])
    assert code == 0 and report["member"] is True
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # bj t = 2 at 5 atoms, with forks made cheap: both suites fork for --workers 2
    code, _ = run_cli(
        capsys, ["fraisse", "--kind", "bj", "--max-atoms", "5", "--chain-length", "2", "--workers", "2"]
    )
    assert code == 0
    assert len(forks) == 2  # one child for HP, one for AP; the caller is the other worker


def test_parse_error_exit_code(capsys, tmp_path, algebras):
    code, report = run_cli(
        capsys, ["validate", "--kind", "bj", "--algebra", algebras["bad_level"]]
    )
    assert code == 2
    assert report["error"]["type"] == "LevelOutOfRange"
    missing = str(tmp_path / "absent.json")
    code, report = run_cli(capsys, ["validate", "--kind", "bj", "--algebra", missing])
    assert code == 2 and report["error"]["type"] == "ParseError"


def test_deeply_nested_input_is_parse_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["validate", "--kind", "bj", "--algebra", str(deep)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out)["error"] == {
        "type": "ParseError",
        "detail": f"{deep} nests arrays or objects too deeply",
    }


@pytest.mark.parametrize(
    "content, detail",
    [
        (b'{"chain_length": 1, "levels": [0, "\xff"]}', "is not UTF-8 text"),
        (b'{"chain_length": ' + b"1" * 5000 + b', "levels": ["out"]}',
         "holds an integer literal too long to read"),
    ],
    ids=["not-utf8", "long-integer"],
)
def test_undecodable_input_is_parse_error(capsys, tmp_path, content, detail):
    path = tmp_path / "algebra.json"
    path.write_bytes(content)
    code = main(["validate", "--kind", "bj", "--algebra", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ParseError"
    assert error["detail"].startswith(f"{path} {detail}")


def test_missing_input_is_parse_error(tmp_path, algebras):
    def error(config):
        code, text = run(config)
        assert code == 2
        return json.loads(text)["error"]

    missing_algebra = {"type": "ParseError", "detail": "missing input 'algebra'"}
    missing_kind = {"type": "ParseError", "detail": "missing input 'kind'"}
    assert error(RunConfig(subcommand="validate")) == missing_algebra
    assert error(RunConfig(subcommand="chains")) == missing_algebra
    one = {"algebra": algebras["small"]}
    assert error(RunConfig(subcommand="validate", inputs=one)) == missing_kind
    pair = {"a": algebras["small"], "b": algebras["mid"]}
    assert error(RunConfig(subcommand="witness", inputs=pair)) == missing_kind
    assert error(RunConfig(subcommand="fraisse")) == missing_kind
    f = write(tmp_path, "f.json", {"block_of": [0, 0], "ordered": True})
    roles = {"a": algebras["one_out"], "b": algebras["small"],
             "c": algebras["pure2"], "f": f}
    bj = RunConfig(subcommand="amalgamate", kind=ClassKind.BJ, inputs=roles)
    assert error(bj) == {"type": "ParseError", "detail": "missing input 'g'"}
    roles["g"] = f
    assert error(RunConfig(subcommand="amalgamate", inputs=roles)) == missing_kind


def test_deep_arrow_search_exits_1_with_its_certificate(tmp_path):
    levels = {"c": [0] * 10 + ["out"], "b": [0, 0, "out"], "a": [0, "out"]}
    payloads = {role: {"chain_length": 1, "levels": lv} for role, lv in levels.items()}
    inputs = {role: write(tmp_path, f"{role}.json", p) for role, p in payloads.items()}
    code, text = run(RunConfig(subcommand="arrow", inputs=inputs, k=40))
    assert code == 1
    c, b, a = (parse_algebra(payloads[role]) for role in "cba")
    certificate = arrows(c, b, a, 40)
    assert certificate.stats.a_copies == 1023
    assert recheck_bad_coloring(c, b, a, 40, certificate.bad_coloring)
    assert json.loads(text)["certificate"] == json.loads(format_io(certificate))


def test_rejected_search_coloring_exits_2_not_1(monkeypatch, algebras):
    # the search's coloring closes an edge monochromatic; the recheck refuses it
    monkeypatch.setattr(ramsey, "_search_bad_coloring", lambda n, edges, k: ([0] * n, 1))
    ramsey._arrows.cache_clear()
    inputs = {"c": algebras["mid"], "b": algebras["mid"], "a": algebras["small"]}
    code, text = run(RunConfig(subcommand="arrow", inputs=inputs))
    assert code == 2
    assert json.loads(text)["error"]["type"] == "VerificationFailed"


def test_crash_in_handler_exits_2_not_1(capsys, monkeypatch, algebras):
    def overflow(config, report):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._HANDLERS, "arrow", overflow)
    code, report = run_cli(
        capsys,
        ["arrow", "--c", algebras["mid"], "--b", algebras["small"],
         "--a", algebras["small"], "-k", "40"],
    )
    assert code == 2
    assert report["error"] == {
        "type": "internal-error",
        "detail": "RecursionError: maximum recursion depth exceeded",
    }


@pytest.mark.parametrize("unwritable", [float("nan"), {1, 2}], ids=["nan", "set"])
def test_unwritable_report_exits_2_not_1(capsys, monkeypatch, algebras, unwritable):
    def stub(config, report):
        report["member"] = unwritable
        return 0

    monkeypatch.setitem(cli._HANDLERS, "validate", stub)
    argv = ["validate", "--kind", "bj", "--algebra", algebras["small"]]
    code, text = run(config_from_args(build_parser().parse_args(argv)))
    assert code == 2
    assert json.loads(text)["error"]["type"] == "internal-error"
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == "internal-error"
    assert report["error"]["detail"].startswith("SerializationError: ")


def test_output_file_instead_of_stdout(capsys, tmp_path, algebras):
    target = tmp_path / "report.json"
    code = main(
        ["validate", "--kind", "bj", "--algebra", algebras["small"],
         "--output", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["member"] is True


def test_reports_identical_across_worker_counts(capsys, algebras):
    args = ["fraisse", "--kind", "bj", "--suite", "ap", "--max-atoms", "3"]
    code_one = main(args + ["--workers", "1"])
    text_one = capsys.readouterr().out
    code_four = main(args + ["--workers", "4"])
    text_four = capsys.readouterr().out
    assert code_one == code_four == 0
    assert text_one == text_four


CODE_BUILT_CONFIGS = (
    ({"suite": "ap", "max_a_atoms": 0}, "max_a_atoms must be at least 1"),
    ({"suite": "hq"}, "suite must be one of hp, ap, both, got 'hq'"),
)


@pytest.mark.parametrize("options,detail", CODE_BUILT_CONFIGS)
def test_config_built_in_code_is_checked(options, detail):
    code, text = run(RunConfig("fraisse", kind=ClassKind.BJ, max_atoms=3, **options))
    assert code == 2
    assert json.loads(text) == {"error": {"type": "ValueError", "detail": detail}}


# the subcommand that reads each integer option, so a value let through is used
READER = {
    "k": "arrow",
    "max_atoms": "fraisse",
    "chain_length": "forgetful",
    "max_a_atoms": "fraisse",
    "workers": "fraisse",
}


@pytest.mark.parametrize("value", [True, 2.5, "2"])
@pytest.mark.parametrize("name", cli.INTEGER_OPTIONS)
def test_integer_option_of_another_type_is_refused(name, value, minimal_argv):
    # True would pass as 1 and be written as true; 2.5 and "2" would crash
    config = config_from_args(build_parser().parse_args(minimal_argv[READER[name]]))
    code, text = run(dataclasses.replace(config, **{"max_atoms": 3, name: value}))
    assert code == 2
    assert json.loads(text) == {
        "error": {"type": "ValueError", "detail": f"{name} must be an integer, got {value!r}"}
    }


def test_worker_count_is_checked_where_no_flag_sets_it(algebras):
    # validate takes no --workers, but a RunConfig built in code is still checked
    config = RunConfig("validate", {"algebra": algebras["small"]}, kind=ClassKind.BJ, workers=0)
    code, text = run(config)
    assert code == 2
    assert json.loads(text) == {
        "error": {"type": "ValueError", "detail": "worker count must be at least 1, got 0"}
    }


@pytest.mark.parametrize("name", INPUT_ROLES)
def test_unknown_mode_is_refused_on_every_subcommand(name, minimal_argv):
    # only copies reads the mode, but a RunConfig built in code is checked in full
    config = config_from_args(build_parser().parse_args(minimal_argv[name]))
    code, text = run(dataclasses.replace(config, mode="bogus"))
    assert code == 2
    assert json.loads(text) == {
        "error": {"type": "ValueError", "detail": "mode must be one of plain, ordered, got 'bogus'"}
    }


def test_unknown_mode_is_refused_before_copies_are_counted(tmp_path):
    # 2^17 - 1 ordered copies of two level-free atoms in 18, past the copies limit
    small = write(tmp_path, "small.json", {"chain_length": 0, "levels": ["out"] * 2})
    big = write(tmp_path, "big.json", {"chain_length": 0, "levels": ["out"] * 18})
    code, text = run(RunConfig("copies", {"small": small, "big": big}, mode="bogus"))
    assert code == 2
    assert json.loads(text)["error"]["type"] == "ValueError"


def test_ap_bases_never_exceed_the_hosts():
    # a base with more atoms than every host has no copy, so the sweep skips it
    reports = [
        json.loads(run(RunConfig("fraisse", kind=ClassKind.BJ, suite="ap",
                                 max_atoms=2, max_a_atoms=cap))[1])["ap"]
        for cap in (2, 5)
    ]
    assert reports[1] == reports[0]
    assert reports[0]["max_a_atoms"] == 2 and reports[0]["base_algebras"] == 3


def test_parser_offers_the_checked_suites(capsys):
    for suite in cli.SUITES:
        assert build_parser().parse_args(["fraisse", "--kind", "bj", "--suite", suite])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fraisse", "--kind", "bj", "--suite", "hq"])
    assert "invalid choice: 'hq'" in capsys.readouterr().err


@pytest.fixture
def pinned_argv(tmp_path, algebras):
    f = write(tmp_path, "f.json", {"block_of": [0, 0], "ordered": True})
    one_out, small, mid, pure2 = (algebras[name] for name in ("one_out", "small", "mid", "pure2"))
    return {
        "validate": ["validate", "--kind", "bj", "--algebra", small],
        "copies": ["copies", "--small", small, "--big", mid],
        "arrow": ["arrow", "--c", mid, "--b", small, "--a", small],
        "arrow-fails": ["arrow", "--c", mid, "--b", mid, "--a", small],
        "arrow-vacuous": ["arrow", "--c", small, "--b", mid, "--a", small],
        "witness": ["witness", "--kind", "bu", "--a", small, "--b", mid, "--minimal"],
        "amalgamate": ["amalgamate", "--kind", "bj", "--a", one_out, "--b", small,
                       "--c", pure2, "--f", f, "--g", f],
        "fraisse": ["fraisse", "--kind", "bj", "--max-atoms", "2"],
        "chains": ["chains", "--algebra", mid],
        "forgetful": ["forgetful", "--max-atoms", "2"],
    }


def test_reports_are_pinned_byte_for_byte(capsys, pinned_argv):
    assert {argv[0] for argv in pinned_argv.values()} == set(cli._HANDLERS)
    for name, argv in pinned_argv.items():
        code = main(argv)
        expected_code, expected_text = PINNED_REPORTS[name]
        assert (code, capsys.readouterr().out) == (expected_code, expected_text), name


# Exit code and exact report text of each pinned_argv command line.
PINNED_REPORTS = {
    "validate": (0, """\
{
  "algebra": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "kind": "bj",
  "member": true,
  "subcommand": "validate"
}
"""),
    "copies": (0, """\
{
  "big": {
    "chain_length": 1,
    "levels": [
      0,
      0,
      "out"
    ]
  },
  "count": 3,
  "embeddings": [
    {
      "block_of": [
        0,
        0,
        1
      ],
      "ordered": true
    },
    {
      "block_of": [
        0,
        1,
        1
      ],
      "ordered": true
    },
    {
      "block_of": [
        1,
        0,
        1
      ],
      "ordered": true
    }
  ],
  "mode": "ordered",
  "small": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "subcommand": "copies"
}
"""),
    "arrow": (0, """\
{
  "a": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "b": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "c": {
    "chain_length": 1,
    "levels": [
      0,
      0,
      "out"
    ]
  },
  "certificate": {
    "bad_coloring": null,
    "stats": {
      "a_copies": 3,
      "b_copies": 3,
      "nodes": 0
    },
    "vacuous": false,
    "verdict": "holds"
  },
  "k": 2,
  "subcommand": "arrow"
}
"""),
    "arrow-fails": (1, """\
{
  "a": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "b": {
    "chain_length": 1,
    "levels": [
      0,
      0,
      "out"
    ]
  },
  "c": {
    "chain_length": 1,
    "levels": [
      0,
      0,
      "out"
    ]
  },
  "certificate": {
    "bad_coloring": [
      {
        "color": 0,
        "embedding": [
          0,
          0,
          1
        ]
      },
      {
        "color": 0,
        "embedding": [
          0,
          1,
          1
        ]
      },
      {
        "color": 1,
        "embedding": [
          1,
          0,
          1
        ]
      }
    ],
    "stats": {
      "a_copies": 3,
      "b_copies": 1,
      "nodes": 3
    },
    "vacuous": false,
    "verdict": "fails"
  },
  "k": 2,
  "subcommand": "arrow"
}
"""),
    "arrow-vacuous": (1, """\
{
  "a": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "b": {
    "chain_length": 1,
    "levels": [
      0,
      0,
      "out"
    ]
  },
  "c": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "certificate": {
    "bad_coloring": [
      {
        "color": 0,
        "embedding": [
          0,
          1
        ]
      }
    ],
    "stats": {
      "a_copies": 1,
      "b_copies": 0,
      "nodes": 0
    },
    "vacuous": true,
    "verdict": "fails"
  },
  "k": 2,
  "subcommand": "arrow"
}
"""),
    "witness": (0, """\
{
  "a": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "b": {
    "chain_length": 1,
    "levels": [
      0,
      0,
      "out"
    ]
  },
  "constructed": {
    "certificate": {
      "bad_coloring": null,
      "stats": {
        "a_copies": 63,
        "b_copies": 301,
        "nodes": 51
      },
      "vacuous": false,
      "verdict": "holds"
    },
    "witness": {
      "chain_length": 1,
      "levels": [
        0,
        0,
        0,
        0,
        0,
        0,
        "out"
      ]
    }
  },
  "k": 2,
  "kind": "bu",
  "max_atoms": 8,
  "minimal": {
    "size": 6,
    "witness": {
      "chain_length": 1,
      "levels": [
        0,
        0,
        0,
        0,
        0,
        "out"
      ]
    }
  },
  "subcommand": "witness"
}
"""),
    "amalgamate": (0, """\
{
  "a": {
    "chain_length": 1,
    "levels": [
      "out"
    ]
  },
  "b": {
    "chain_length": 1,
    "levels": [
      0,
      "out"
    ]
  },
  "c": {
    "chain_length": 1,
    "levels": [
      "out",
      "out"
    ]
  },
  "f": {
    "block_of": [
      0,
      0
    ],
    "ordered": true
  },
  "g": {
    "block_of": [
      0,
      0
    ],
    "ordered": true
  },
  "kind": "bj",
  "result": {
    "d": {
      "chain_length": 1,
      "levels": [
        0,
        "out",
        "out"
      ]
    },
    "identified": [
      [
        1,
        1
      ]
    ],
    "r": {
      "block_of": [
        0,
        1,
        1
      ],
      "ordered": true
    },
    "s": {
      "block_of": [
        0,
        0,
        1
      ],
      "ordered": true
    }
  },
  "subcommand": "amalgamate"
}
"""),
    "fraisse": (0, """\
{
  "ap": {
    "base_algebras": 3,
    "chain_length": 1,
    "instances": 11,
    "kind": "bj",
    "max_a_atoms": 2,
    "max_atoms": 2,
    "violations": []
  },
  "chain_length": 1,
  "hp": {
    "algebras": 3,
    "chain_length": 1,
    "instances": 5,
    "kind": "bj",
    "max_atoms": 2,
    "violations": []
  },
  "kind": "bj",
  "max_atoms": 2,
  "subcommand": "fraisse",
  "suite": "both"
}
"""),
    "chains": (0, """\
{
  "algebra": {
    "chain_length": 1,
    "levels": [
      0,
      0,
      "out"
    ]
  },
  "correspondence": {
    "chain_length": 1,
    "extending_chains": 2,
    "extending_map_to_proper": true,
    "map_is_injective": true,
    "map_is_onto": true,
    "matched": true,
    "n_atoms": 3,
    "non_extending_map_to_improper": true,
    "proper_orders": 2,
    "signature": [
      0,
      0,
      "out"
    ],
    "total_chains": 6
  },
  "extending": [
    [
      [],
      [
        2
      ],
      [
        0,
        2
      ],
      [
        0,
        1,
        2
      ]
    ],
    [
      [],
      [
        2
      ],
      [
        1,
        2
      ],
      [
        0,
        1,
        2
      ]
    ]
  ],
  "subcommand": "chains"
}
"""),
    "forgetful": (0, """\
{
  "subcommand": "forgetful",
  "sweep": {
    "algebras_checked": 5,
    "chain_length": 1,
    "max_atoms": 2,
    "proper_orders_checked": 7,
    "violations": []
  }
}
"""),
}
