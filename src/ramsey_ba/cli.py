"""Command line surface: validation, enumeration, arrow checks, witnesses,
amalgamation, class suites, chain correspondence, forgetfulness sweeps.

Every subcommand prints one canonical JSON report.  Handlers put domain
values into it, and serialize.format_io writes them.  Exit 0 means the
checked property holds (or the requested object was produced), exit 1
means it fails and the report carries the certificate, exit 2 means the
invocation or its inputs were unusable, including an option value out of
range (a "ValueError" report) and search bounds running out, or that the
run crashed (an "internal-error" report).  A command line argparse cannot
parse (an unknown flag, a count that is not an integer) gets its usage
message on stderr and exit 2 instead.  Only fraisse fans out, so only it
takes --workers; its report is byte-identical for any worker count.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import dataclass, field, fields
from typing import get_args

from .chains import chains_extending
from .core import ClassKind, class_membership
from .embed import Copies, Mode, _sorted_block_maps
from .errors import (
    AmalgamationFailed,
    BoundExceeded,
    ParseError,
    SerializationError,
    VerificationFailed,
    WorkbenchError,
)
from .fraisse import amalgamate, check_ap, check_hp
from .order import forgetfulness_report
from .ramsey import arrows, construct_witness, min_witness
from .serialize import format_io, load_json_file, parse_algebra, parse_embedding

SUITES = ("hp", "ap", "both")  # what fraisse --suite accepts
INTEGER_OPTIONS = ("k", "max_atoms", "chain_length", "max_a_atoms", "workers")
MAX_COPIES_OUTPUT = 40_320  # copies lists at most 8! embeddings, as chains lists chains


@dataclass(frozen=True)
class RunConfig:
    """One invocation; run() checks every option value, read or not."""

    subcommand: str
    inputs: dict[str, str] = field(default_factory=dict)
    kind: ClassKind | None = None
    k: int = 2
    max_atoms: int = 6
    chain_length: int = 1
    max_a_atoms: int | None = None
    mode: str = "ordered"
    suite: str = "both"
    minimal: bool = False
    workers: int = 1


def _input(config: RunConfig, role: str):
    if role not in config.inputs:
        raise ParseError(f"missing input {role!r}")
    return load_json_file(config.inputs[role])


def _algebras(config: RunConfig, report: dict, *roles: str) -> list:
    """Load the algebras of these roles in order, echoing each into the report."""
    loaded = []
    for role in roles:
        algebra = parse_algebra(_input(config, role), field=role)
        report[role] = algebra
        loaded.append(algebra)
    return loaded


def _kind(config: RunConfig, report: dict) -> ClassKind:
    if config.kind is None:
        raise ParseError("missing input 'kind'")
    report["kind"] = config.kind.value
    return config.kind


def _run_validate(config: RunConfig, report: dict) -> int:
    [algebra] = _algebras(config, report, "algebra")
    report["member"] = class_membership(algebra, _kind(config, report))
    return 0 if report["member"] else 1


def _run_copies(config: RunConfig, report: dict) -> int:
    small, big = _algebras(config, report, "small", "big")
    maps = _sorted_block_maps(small, big, config.mode, MAX_COPIES_OUTPUT)
    copies = Copies(small, big, ordered=config.mode == "ordered", maps=maps)
    report.update(mode=config.mode, count=len(maps), embeddings=copies)
    return 0


def _run_arrow(config: RunConfig, report: dict) -> int:
    c, b, a = _algebras(config, report, "c", "b", "a")
    certificate = arrows(c, b, a, config.k)
    report.update(k=config.k, certificate=certificate)
    return 0 if certificate.verdict == "holds" else 1


def _run_witness(config: RunConfig, report: dict) -> int:
    a, b = _algebras(config, report, "a", "b")
    kind = _kind(config, report)
    report.update(k=config.k, max_atoms=config.max_atoms)
    try:
        witness, certificate = construct_witness(kind, a, b, config.k, config.max_atoms)
    except VerificationFailed as finding:
        report["constructed"] = None
        report["finding"] = {"detail": str(finding), "certificate": finding.certificate}
        return 1
    report["constructed"] = {"witness": witness, "certificate": certificate}
    if config.minimal:
        found = min_witness(kind, a, b, config.k, config.max_atoms)
        report["minimal"] = None if found is None else {"witness": found[0], "size": found[1]}
    return 0


def _run_amalgamate(config: RunConfig, report: dict) -> int:
    a, b, c = _algebras(config, report, "a", "b", "c")
    f = parse_embedding(_input(config, "f"), a, b, field="f")
    g = parse_embedding(_input(config, "g"), a, c, field="g")
    kind = _kind(config, report)
    report.update(f=f, g=g)
    try:
        result = amalgamate(kind, a, b, c, f, g)
    except AmalgamationFailed as failure:
        report.update(result=None, failure=str(failure))
        return 1
    report["result"] = result
    return 0


def _run_fraisse(config: RunConfig, report: dict) -> int:
    kind = _kind(config, report)
    report.update(
        suite=config.suite, max_atoms=config.max_atoms, chain_length=config.chain_length
    )
    violations = 0
    if config.suite in ("hp", "both"):
        report["hp"] = check_hp(kind, config.max_atoms, config.chain_length, config.workers)
        violations += len(report["hp"]["violations"])
    if config.suite in ("ap", "both"):
        report["ap"] = check_ap(
            kind,
            config.max_atoms,
            config.chain_length,
            max_a_atoms=config.max_a_atoms,
            workers=config.workers,
        )
        violations += len(report["ap"]["violations"])
    return 0 if violations == 0 else 1


def _run_chains(config: RunConfig, report: dict) -> int:
    [algebra] = _algebras(config, report, "algebra")
    extending, correspondence = chains_extending(algebra)
    report.update(correspondence=correspondence, extending=extending)
    return 0 if correspondence["matched"] else 1


def _run_forgetful(config: RunConfig, report: dict) -> int:
    report["sweep"] = forgetfulness_report(config.max_atoms, config.chain_length)
    return 0 if not report["sweep"]["violations"] else 1


_HANDLERS = {
    "validate": _run_validate,
    "copies": _run_copies,
    "arrow": _run_arrow,
    "witness": _run_witness,
    "amalgamate": _run_amalgamate,
    "fraisse": _run_fraisse,
    "chains": _run_chains,
    "forgetful": _run_forgetful,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one invocation; returns (exit code, canonical JSON report)."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        return 2, format_io({"error": {"type": "unknown-subcommand", "detail": config.subcommand}})
    report = {"subcommand": config.subcommand}
    try:
        for name in INTEGER_OPTIONS:
            value = getattr(config, name)
            if name == "max_a_atoms" and value is None:
                continue  # no bound on A's atoms
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if config.max_atoms < 1:
            raise ValueError("max_atoms must be at least 1")
        if config.k < 1:
            raise ValueError("k must be at least 1")
        if config.max_a_atoms is not None and config.max_a_atoms < 1:
            raise ValueError("max_a_atoms must be at least 1")
        if config.suite not in SUITES:
            raise ValueError(f"suite must be one of {', '.join(SUITES)}, got {config.suite!r}")
        if config.mode not in get_args(Mode):
            raise ValueError(f"mode must be one of {', '.join(get_args(Mode))}, got {config.mode!r}")
        if config.workers < 1:
            raise ValueError(f"worker count must be at least 1, got {config.workers}")
        code = handler(config, report)
        text = format_io(report)
    except SerializationError as unwritable:  # the handler built a report JSON cannot hold
        return _internal_error(unwritable)
    except BoundExceeded as bound:
        return 2, format_io({"error": {"type": "bound-exceeded", "detail": str(bound)}})
    except (WorkbenchError, ValueError) as bad:
        return 2, format_io(
            {"error": {"type": type(bad).__name__, "detail": str(bad)}}
        )
    except Exception as crash:
        return _internal_error(crash)
    return code, text


def _internal_error(crash: Exception) -> tuple[int, str]:
    traceback.print_exc()
    detail = f"{type(crash).__name__}: {crash}"
    return 2, format_io({"error": {"type": "internal-error", "detail": detail}})


def _subcommand(
    sub, name: str, help: str, *roles: str, **described: str
) -> argparse.ArgumentParser:
    """Add a subcommand: a required --<role> file per input, then --output.

    Roles given by keyword carry their help text.  The roles are recorded on
    the parsed arguments, where config_from_args reads them.
    """
    roles += tuple(described)
    parser = sub.add_parser(name, help=help)
    for role in roles:
        parser.add_argument(f"--{role}", required=True, help=described.get(role))
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.set_defaults(roles=roles)
    return parser


def _kind_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind",
        required=True,
        choices=[kind.value for kind in ClassKind],
        help="algebra class",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-ba",
        description="verification and search workbench for Boolean algebras with an ideal chain",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _subcommand(sub, "validate", "check class membership", "algebra")
    _kind_argument(p)

    p = _subcommand(sub, "copies", "enumerate embeddings", "small", "big")
    p.add_argument("--mode", choices=get_args(Mode), default="ordered")

    p = _subcommand(sub, "arrow", "decide an arrow relation", "c", "b", "a")
    p.add_argument("-k", type=int, default=2)

    p = _subcommand(sub, "witness", "construct and verify a Ramsey witness", "a", "b")
    _kind_argument(p)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--max-atoms", type=int, default=8)
    p.add_argument("--minimal", action="store_true", help="also search the smallest witness")

    p = _subcommand(
        sub, "amalgamate", "amalgamate two embeddings over a base", "a", "b", "c",
        f="embedding of A into B", g="embedding of A into C",
    )
    _kind_argument(p)

    p = _subcommand(sub, "fraisse", "run the hereditary and amalgamation suites")
    _kind_argument(p)
    p.add_argument("--suite", choices=SUITES, default="both")
    p.add_argument("--max-atoms", type=int, default=4)
    p.add_argument("--chain-length", type=int, default=1)
    p.add_argument("--max-a-atoms", type=int)
    p.add_argument("--workers", type=int, default=1, help="worker processes for the suites")

    _subcommand(sub, "chains", "chain versus proper-order correspondence", "algebra")

    p = _subcommand(sub, "forgetful", "order-forgetfulness sweep")
    p.add_argument("--max-atoms", type=int, default=5)
    p.add_argument("--chain-length", type=int, default=1)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The invocation a parsed command line names.

    Only the options its subcommand defines are copied; the rest keep
    RunConfig's defaults.
    """
    values = vars(args)
    options = {f.name: values[f.name] for f in fields(RunConfig) if f.name in values}
    if "kind" in options:
        options["kind"] = ClassKind(options["kind"])
    return RunConfig(inputs={role: values[role] for role in args.roles}, **options)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code, text = run(config_from_args(args))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as bad:
            sys.stderr.write(f"error: cannot write {args.output}: {bad}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
