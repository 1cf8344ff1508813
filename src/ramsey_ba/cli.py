"""Command line surface: validation, enumeration, arrow checks, witnesses,
amalgamation, class suites, chain correspondence, forgetfulness sweeps.

Every subcommand prints one canonical JSON report.  Exit 0 means the
checked property holds (or the requested object was produced), exit 1
means it fails and the report carries the certificate, exit 2 means the
invocation or its inputs were unusable, including search bounds running
out, or that the run crashed (an "internal-error" report).
RAMSEY_BA_WORKERS overrides --workers; results are byte-identical for any
worker count.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import dataclass, field

from .chains import chains_extending
from .core import ClassKind, class_membership, signature_json
from .embed import enumerate_embeddings
from .errors import (
    AmalgamationFailed,
    BoundExceeded,
    ParseError,
    VerificationFailed,
    WorkbenchError,
)
from .fraisse import amalgamate, check_ap, check_hp
from .order import forgetfulness_report
from .parallel import resolve_workers
from .ramsey import arrows, construct_witness, min_witness
from .serialize import (
    algebra_to_json,
    certificate_to_json,
    chain_to_json,
    embedding_to_json,
    format_io,
    load_json_file,
    parse_algebra,
    parse_embedding,
)


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation."""

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
    deterministic: bool = True
    output: str | None = None

    def __post_init__(self) -> None:
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")


def _input(config: RunConfig, role: str):
    if role not in config.inputs:
        raise ParseError(f"missing input {role!r}")
    return load_json_file(config.inputs[role])


def _load_algebra(config: RunConfig, role: str):
    return parse_algebra(_input(config, role), field=role)


def _kind(config: RunConfig) -> ClassKind:
    if config.kind is None:
        raise ParseError("missing input 'kind'")
    return config.kind


def _run_validate(config: RunConfig) -> tuple[int, dict]:
    algebra = _load_algebra(config, "algebra")
    kind = _kind(config)
    member = class_membership(algebra, kind)
    report = {
        "subcommand": "validate",
        "kind": kind.value,
        "algebra": algebra_to_json(algebra),
        "member": member,
    }
    return (0 if member else 1), report


def _run_copies(config: RunConfig) -> tuple[int, dict]:
    small = _load_algebra(config, "small")
    big = _load_algebra(config, "big")
    found = enumerate_embeddings(small, big, mode=config.mode)
    report = {
        "subcommand": "copies",
        "mode": config.mode,
        "small": algebra_to_json(small),
        "big": algebra_to_json(big),
        "count": len(found),
        "embeddings": [embedding_to_json(e) for e in found],
    }
    return 0, report


def _run_arrow(config: RunConfig) -> tuple[int, dict]:
    c = _load_algebra(config, "c")
    b = _load_algebra(config, "b")
    a = _load_algebra(config, "a")
    certificate = arrows(c, b, a, config.k)
    report = {
        "subcommand": "arrow",
        "c": algebra_to_json(c),
        "b": algebra_to_json(b),
        "a": algebra_to_json(a),
        "k": config.k,
        "certificate": certificate_to_json(certificate),
    }
    return (0 if certificate.verdict == "holds" else 1), report


def _run_witness(config: RunConfig) -> tuple[int, dict]:
    a = _load_algebra(config, "a")
    b = _load_algebra(config, "b")
    kind = _kind(config)
    report = {
        "subcommand": "witness",
        "kind": kind.value,
        "a": algebra_to_json(a),
        "b": algebra_to_json(b),
        "k": config.k,
        "max_atoms": config.max_atoms,
    }
    try:
        witness, certificate = construct_witness(kind, a, b, config.k, config.max_atoms)
    except VerificationFailed as finding:
        report["constructed"] = None
        report["finding"] = {
            "detail": str(finding),
            "certificate": None
            if finding.certificate is None
            else certificate_to_json(finding.certificate),
        }
        return 1, report
    report["constructed"] = {
        "witness": algebra_to_json(witness),
        "certificate": certificate_to_json(certificate),
    }
    if config.minimal:
        found = min_witness(kind, a, b, config.k, config.max_atoms)
        report["minimal"] = (
            None
            if found is None
            else {"witness": algebra_to_json(found[0]), "size": found[1]}
        )
    return 0, report


def _run_amalgamate(config: RunConfig) -> tuple[int, dict]:
    a = _load_algebra(config, "a")
    b = _load_algebra(config, "b")
    c = _load_algebra(config, "c")
    f = parse_embedding(_input(config, "f"), a, b, field="f")
    g = parse_embedding(_input(config, "g"), a, c, field="g")
    kind = _kind(config)
    report = {
        "subcommand": "amalgamate",
        "kind": kind.value,
        "a": algebra_to_json(a),
        "b": algebra_to_json(b),
        "c": algebra_to_json(c),
        "f": embedding_to_json(f),
        "g": embedding_to_json(g),
    }
    try:
        result = amalgamate(kind, a, b, c, f, g)
    except AmalgamationFailed as failure:
        report["result"] = None
        report["failure"] = str(failure)
        return 1, report
    report["result"] = {
        "d": algebra_to_json(result.d),
        "r": embedding_to_json(result.r),
        "s": embedding_to_json(result.s),
        "identified": [list(pair) for pair in result.identified],
    }
    return 0, report


def _run_fraisse(config: RunConfig) -> tuple[int, dict]:
    kind = _kind(config)
    workers = resolve_workers(config.workers)
    report = {
        "subcommand": "fraisse",
        "kind": kind.value,
        "suite": config.suite,
        "max_atoms": config.max_atoms,
        "chain_length": config.chain_length,
    }
    violations = 0
    if config.suite in ("hp", "both"):
        hp = check_hp(kind, config.max_atoms, config.chain_length, workers)
        report["hp"] = hp
        violations += len(hp["violations"])
    if config.suite in ("ap", "both"):
        ap = check_ap(
            kind,
            config.max_atoms,
            config.chain_length,
            max_a_atoms=config.max_a_atoms,
            workers=workers,
        )
        report["ap"] = ap
        violations += len(ap["violations"])
    return (0 if violations == 0 else 1), report


def _run_chains(config: RunConfig) -> tuple[int, dict]:
    algebra = _load_algebra(config, "algebra")
    extending, correspondence = chains_extending(algebra)
    report = {
        "subcommand": "chains",
        "algebra": algebra_to_json(algebra),
        "correspondence": correspondence,
        "extending": [chain_to_json(chain) for chain in extending],
    }
    return (0 if correspondence["matched"] else 1), report


def _run_forgetful(config: RunConfig) -> tuple[int, dict]:
    sweep = forgetfulness_report(config.max_atoms, config.chain_length)
    report = {"subcommand": "forgetful", "sweep": sweep}
    return (0 if not sweep["violations"] else 1), report


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
    try:
        code, report = handler(config)
    except BoundExceeded as bound:
        return 2, format_io({"error": {"type": "bound-exceeded", "detail": str(bound)}})
    except (ParseError, WorkbenchError, ValueError) as bad:
        return 2, format_io(
            {"error": {"type": type(bad).__name__, "detail": str(bad)}}
        )
    except Exception as crash:
        traceback.print_exc()
        detail = f"{type(crash).__name__}: {crash}"
        return 2, format_io({"error": {"type": "internal-error", "detail": detail}})
    return code, format_io(report)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, help="parallel worker count")
    parser.add_argument(
        "--deterministic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reserved; all code paths are deterministic regardless",
    )
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")


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

    p = sub.add_parser("validate", help="check class membership")
    p.add_argument("--algebra", required=True)
    _kind_argument(p)
    _add_common(p)

    p = sub.add_parser("copies", help="enumerate embeddings")
    p.add_argument("--small", required=True)
    p.add_argument("--big", required=True)
    p.add_argument("--mode", choices=["plain", "ordered"], default="ordered")
    _add_common(p)

    p = sub.add_parser("arrow", help="decide an arrow relation")
    p.add_argument("--c", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("-k", type=int, default=2)
    _add_common(p)

    p = sub.add_parser("witness", help="construct and verify a Ramsey witness")
    _kind_argument(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--max-atoms", type=int, default=8)
    p.add_argument("--minimal", action="store_true", help="also search the smallest witness")
    _add_common(p)

    p = sub.add_parser("amalgamate", help="amalgamate two embeddings over a base")
    _kind_argument(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--f", required=True, help="embedding of A into B")
    p.add_argument("--g", required=True, help="embedding of A into C")
    _add_common(p)

    p = sub.add_parser("fraisse", help="run the hereditary and amalgamation suites")
    _kind_argument(p)
    p.add_argument("--suite", choices=["hp", "ap", "both"], default="both")
    p.add_argument("--max-atoms", type=int, default=4)
    p.add_argument("--chain-length", type=int, default=1)
    p.add_argument("--max-a-atoms", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("chains", help="chain versus proper-order correspondence")
    p.add_argument("--algebra", required=True)
    _add_common(p)

    p = sub.add_parser("forgetful", help="order-forgetfulness sweep")
    p.add_argument("--max-atoms", type=int, default=5)
    p.add_argument("--chain-length", type=int, default=1)
    _add_common(p)

    return parser


_INPUT_ROLES = {
    "validate": ("algebra",),
    "copies": ("small", "big"),
    "arrow": ("c", "b", "a"),
    "witness": ("a", "b"),
    "amalgamate": ("a", "b", "c", "f", "g"),
    "fraisse": (),
    "chains": ("algebra",),
    "forgetful": (),
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = vars(args)
    inputs = {role: values[role] for role in _INPUT_ROLES[args.subcommand]}
    kind = ClassKind(values["kind"]) if "kind" in values else None
    return RunConfig(
        subcommand=args.subcommand,
        inputs=inputs,
        kind=kind,
        k=values.get("k", 2),
        max_atoms=values.get("max_atoms", 6),
        chain_length=values.get("chain_length", 1),
        max_a_atoms=values.get("max_a_atoms"),
        mode=values.get("mode", "ordered"),
        suite=values.get("suite", "both"),
        minimal=values.get("minimal", False),
        workers=values["workers"],
        deterministic=values["deterministic"],
        output=values["output"],
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as bad:
        sys.stderr.write(f"error: {bad}\n")
        return 2
    code, text = run(config)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as bad:
            sys.stderr.write(f"error: cannot write {config.output}: {bad}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
