"""Canonical JSON for every domain type, and strict parsers.

Reports carry domain values (algebras, embeddings, chains, certificates,
amalgams); format_io alone turns them into JSON.  Formatting is
byte-stable: sorted keys, two-space indent, a trailing newline, arrays in
each module's deterministic enumeration order.  Parsers name the offending
field instead of echoing tracebacks.
"""
from __future__ import annotations

import json
from typing import Any

from .chains import MaximalChain, make_chain
from .core import OUT, OUTSIDE_TOKEN, LabeledAlgebra, Level, make_algebra, signature_json
from .embed import Embedding, validate_embedding
from .errors import ParseError, SerializationError
from .fraisse import AmalgamationResult
from .ramsey import ArrowCertificate, Coloring, SearchStats


def level_from_json(value: Any, field: str) -> Level:
    if value == OUTSIDE_TOKEN:
        return OUT
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f'{field} must be an integer or "{OUTSIDE_TOKEN}", got {value!r}')


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


def _wire(value: Any) -> Any:
    """The JSON value of a report, converting domain values in one pass.

    Dicts and lists are walked; tuples (block_of, identified) are leaves,
    which json writes as arrays.  ArrowCertificate, SearchStats and
    AmalgamationResult are written field by field, so renaming one of their
    fields changes the wire format.
    """
    kind = type(value)
    if kind is dict:
        return {key: _wire(item) for key, item in value.items()}
    if kind is list:
        return [_wire(item) for item in value]
    if kind is LabeledAlgebra:
        return {"chain_length": value.chain_length, "levels": signature_json(value)}
    if kind is Embedding:
        return {"block_of": value.block_of, "ordered": value.ordered}
    if kind is MaximalChain:  # its sets, each a sorted prefix of the additions
        return [sorted(value.additions[:i]) for i in range(value.n_points + 1)]
    if kind is Coloring:
        return [{"embedding": e.block_of, "color": color} for e, color in value.entries]
    if kind in (ArrowCertificate, SearchStats, AmalgamationResult):
        return {key: _wire(item) for key, item in vars(value).items()}
    return value


def format_io(payload: Any) -> str:
    """Canonical JSON text: sorted keys, stable arrays, trailing newline."""
    try:
        return json.dumps(_wire(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
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
