"""Canonical JSON for every domain type, and strict parsers.

Formatting is byte-stable: sorted keys, two-space indent, a trailing
newline, arrays in each module's deterministic enumeration order.  Parsers
name the offending field instead of echoing tracebacks.
"""
from __future__ import annotations

import json
from typing import Any

from .chains import MaximalChain, make_chain
from .core import OUT, OUTSIDE_TOKEN, LabeledAlgebra, Level, make_algebra, signature_json
from .embed import Embedding, validate_embedding
from .errors import ParseError, SerializationError
from .ramsey import ArrowCertificate, Coloring, SearchStats

def level_from_json(value: Any, field: str) -> Level:
    if value == OUTSIDE_TOKEN:
        return OUT
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f'{field} must be an integer or "{OUTSIDE_TOKEN}", got {value!r}')


def algebra_to_json(algebra: LabeledAlgebra) -> dict:
    return {
        "chain_length": algebra.chain_length,
        "levels": signature_json(algebra),
    }


def parse_algebra(data: Any, field: str = "algebra") -> LabeledAlgebra:
    if not isinstance(data, dict):
        raise ParseError(f"{field} must be an object")
    chain_length = data.get("chain_length")
    if not isinstance(chain_length, int) or isinstance(chain_length, bool):
        raise ParseError(f"{field}.chain_length must be an integer")
    levels = data.get("levels")
    if not isinstance(levels, list):
        raise ParseError(f"{field}.levels must be an array")
    parsed = [
        level_from_json(value, f"{field}.levels[{i}]") for i, value in enumerate(levels)
    ]
    return make_algebra(parsed, chain_length)


def embedding_to_json(e: Embedding) -> dict:
    return {"block_of": list(e.block_of), "ordered": e.ordered}


def parse_embedding(
    data: Any, small: LabeledAlgebra, big: LabeledAlgebra, field: str = "embedding"
) -> Embedding:
    if not isinstance(data, dict):
        raise ParseError(f"{field} must be an object")
    block_of = data.get("block_of")
    if not isinstance(block_of, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in block_of
    ):
        raise ParseError(f"{field}.block_of must be an array of integers")
    ordered = data.get("ordered", True)
    if not isinstance(ordered, bool):
        raise ParseError(f"{field}.ordered must be a boolean")
    e = Embedding(small=small, big=big, block_of=tuple(block_of), ordered=ordered)
    validate_embedding(e)
    return e


def chain_to_json(chain: MaximalChain) -> list[list[int]]:
    return [sorted(s) for s in chain.sets]


def parse_chain(data: Any, field: str = "chain") -> MaximalChain:
    if not isinstance(data, list) or not all(isinstance(s, list) for s in data):
        raise ParseError(f"{field} must be an array of point arrays")
    for i, s in enumerate(data):
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in s):
            raise ParseError(f"{field}[{i}] must contain integers")
    try:
        return make_chain(data)
    except ValueError as bad:
        raise ParseError(f"{field}: {bad}") from bad


def coloring_to_json(coloring: Coloring) -> list[dict]:
    return [
        {"embedding": list(e.block_of), "color": color}
        for e, color in coloring.entries
    ]


def stats_to_json(stats: SearchStats) -> dict:
    return {
        "nodes": stats.nodes,
        "a_copies": stats.a_copies,
        "b_copies": stats.b_copies,
    }


def certificate_to_json(certificate: ArrowCertificate) -> dict:
    return {
        "verdict": certificate.verdict,
        "bad_coloring": None
        if certificate.bad_coloring is None
        else coloring_to_json(certificate.bad_coloring),
        "stats": stats_to_json(certificate.stats),
        "vacuous": certificate.vacuous,
    }


def format_io(payload: Any) -> str:
    """Canonical JSON text: sorted keys, stable arrays, trailing newline."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except (TypeError, ValueError) as bad:
        raise SerializationError(f"payload is not canonically serializable: {bad}")


def load_json_file(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as bad:
        raise ParseError(f"cannot read {path}: {bad}") from bad
    except json.JSONDecodeError as bad:
        raise ParseError(f"{path} is not valid JSON: {bad}") from bad
