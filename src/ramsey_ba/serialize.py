"""Canonical JSON for every domain type, and strict parsers.

Reports carry domain values (algebras, embeddings, copies, chains,
certificates, amalgams); format_io alone turns them into JSON, writing the
canonical text itself.  An embedding, each row of a Copies value and each row
of a coloring whose colors are plain ints are written from one %-template,
built per array from the row's shape and indent, so copies builds no
Embedding and no row goes through the generic writer; a coloring with any
other color is written as dict rows; both take their copies, chain check
included, from embed._sorted_block_maps.  A Chains value's rows are its runs'
segment texts joined in product order, a lone MaximalChain being a one-run
product, and an algebra is written as its chain length and levels directly.
Formatting is byte-stable: sorted keys, two-space indent, ASCII escapes, a
trailing newline, arrays in each module's deterministic enumeration order; the
text is what json.dumps(sort_keys=True, indent=2) would print.  A subclass of
int, str, list, tuple or dict is written as the JSON type it extends.
format_io refuses what json.dumps refuses (NaN, infinities, types with no JSON
form) and also any dict key that is not a string.
Parsers name the offending field, and a key repeated within one object, instead
of echoing tracebacks.
"""
from __future__ import annotations

import json
import math
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .chains import Chains, MaximalChain, make_chain
from .core import OUT, OUTSIDE_TOKEN, LabeledAlgebra, Level, make_algebra
from .embed import Copies, Embedding, _sorted_block_maps, validate_embedding
from .errors import ParseError, SerializationError
from .fraisse import AmalgamationResult
from .ramsey import ArrowCertificate, Coloring, SearchStats


def _level(value: Any) -> Level | None:
    """The level a JSON value names, or None if it names none."""
    if value == OUTSIDE_TOKEN:
        return OUT
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def level_from_json(value: Any, field: str) -> Level:
    level = _level(value)
    if level is None:
        raise ParseError(f'{field} must be an integer or "{OUTSIDE_TOKEN}", got {value!r}')
    return level


def parse_algebra(data: Any, field: str = "algebra") -> LabeledAlgebra:
    if not isinstance(data, dict):
        raise ParseError(f"{field} must be an object")
    chain_length = data.get("chain_length")
    if not isinstance(chain_length, int) or isinstance(chain_length, bool):
        raise ParseError(f"{field}.chain_length must be an integer")
    levels = data.get("levels")
    if not isinstance(levels, list):
        raise ParseError(f"{field}.levels must be an array")
    parsed = list(map(_level, levels))
    if None in parsed:  # the field is named only for the level refused
        i = parsed.index(None)
        level_from_json(levels[i], f"{field}.levels[{i}]")
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


def _array(texts: list[str], pad: str) -> str:
    """A JSON array of these item texts closing at pad (a newline and its indent)."""
    if not texts:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def _ints(values, pad: str) -> str:
    return _array(list(map(int.__repr__, values)), pad)


def _row_template(pad: str, **fields: str | int) -> str:
    """The %-template of an object row closing at pad, its keys sorted.

    A field given as a count is an array of that many %d entries; one given
    as text is written as it stands, "%d" for an int.
    """
    inner = pad + "  "
    members = [
        _quote(key) + ": " + (_array(["%d"] * value, inner) if type(value) is int else value)
        for key, value in sorted(fields.items())
    ]
    return "{" + inner + ("," + inner).join(members) + pad + "}"


def _embedding_template(n_atoms: int, ordered: bool, pad: str) -> str:
    return _row_template(pad, block_of=n_atoms, ordered="true" if ordered else "false")


def _rows(rows, pad: str, out: list) -> None:
    """Append an array closing at pad of these row texts, each opening with
    "," and the row indent.

    Each row's text is appended on its own, so a long array is held as its
    rows and then in format_io's result, never also as one joined text.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        out.append("[]")
        return
    out.append("[" + first[1:])
    out.extend(rows)
    out.append(pad + "]")


def _chain_rows(runs, sep: str, pad: str, memo: dict):
    """The texts of the chains whose additions are the product of runs, each
    opening with sep and closing at pad.

    A set a chain passes through is the bitmask of the points added so far;
    its text at this indent is written once per format_io call.  Each run's
    permutations become segment texts once, the sets they add after the
    earlier runs' points, the first run's opening the chain and the last
    run's closing it; a chain's text is its segments joined in product
    order, so a one-run product's texts are its segments themselves, not copies.
    """
    member = pad + "  "
    texts = memo.setdefault(member, {})
    runs = runs or (((),),)  # no run is one run of the empty permutation
    held, base = [], 0
    for r, run in enumerate(runs):
        opening = sep + "[" + member + "[]" if r == 0 else ""
        closing = pad + "]" if r == len(runs) - 1 else ""
        segments, mask = [], base
        for perm in run:
            mask, parts = base, [opening]
            for point in perm:
                mask |= 1 << point
                text = texts.get(mask)
                if text is None:
                    points = [p for p in range(mask.bit_length()) if mask >> p & 1]
                    text = texts[mask] = "," + member + _ints(points, member)
                parts.append(text)
            parts.append(closing)
            segments.append("".join(parts))
        held.append(segments)
        base = mask
    return map("".join, product(*held))


_OUTSIDE = _quote(OUTSIDE_TOKEN)
_FIELD_BY_FIELD = (ArrowCertificate, SearchStats, AmalgamationResult)


def _write(value: Any, pad: str, out: list, memo: dict) -> None:
    """Append the canonical text of value, whose closing line is indented by pad.

    Dicts are written with sorted keys, lists and tuples as arrays.
    ArrowCertificate, SearchStats and AmalgamationResult are written field by
    field, so renaming one of their fields changes the wire format.
    """
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict or kind in _FIELD_BY_FIELD:
        items = value if kind is dict else vars(value)
        if not items:
            out.append("{}")
            return
        for key in items:
            if not isinstance(key, str):
                raise SerializationError(f"payload has the non-string key {key!r}")
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(items):
            out.append(sep + _quote(key) + ": ")
            sep = "," + inner
            _write(items[key], inner, out, memo)
        out.append(pad + "}")
    elif kind is list or kind is tuple:
        if all(type(item) is int for item in value):
            out.append(_ints(value, pad))
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write(item, inner, out, memo)
        out.append(pad + "]")
    elif kind is Embedding:
        template = _embedding_template(len(value.block_of), value.ordered, pad)
        out.append(template % tuple(value.block_of))
    elif kind is Copies:
        inner = pad + "  "
        template = "," + inner + _embedding_template(value.big.n_atoms, value.ordered, inner)
        _rows(map(template.__mod__, value.maps), pad, out)
    elif kind is LabeledAlgebra:
        inner = pad + "  "
        levels = [_OUTSIDE if level is OUT else int.__repr__(level) for level in value.levels]
        out.append(
            "{" + inner + '"chain_length": ' + int.__repr__(value.chain_length)
            + "," + inner + '"levels": ' + _array(levels, inner) + pad + "}"
        )
    elif kind is Chains:
        inner = pad + "  "
        _rows(_chain_rows(value.runs, "," + inner, inner, memo), pad, out)
    elif kind is MaximalChain:
        out.extend(_chain_rows(((value.additions,),), "", pad, memo))
    elif kind is Coloring:
        rows = zip(value.colors, _sorted_block_maps(value.a, value.c), strict=True)
        if all(type(col) is int for col in value.colors):
            # '%d' would write True as 1 and 0.5 as 0, so other colors are written as dicts
            inner = pad + "  "
            template = "," + inner + _row_template(inner, color="%d", embedding=value.c.n_atoms)
            _rows((template % (col, *bo) for col, bo in rows), pad, out)
        else:
            _write([{"color": col, "embedding": bo} for col, bo in rows], pad, out, memo)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise SerializationError(f"payload holds the out-of-range float {value!r}")
        out.append(float.__repr__(value))
    else:  # a subclass (OUT outside an algebra, say) is written as the JSON type it extends
        for base, plain in (
            (int, int.__int__), (str, str.__str__), ((list, tuple), list), (dict, dict)
        ):
            if isinstance(value, base):
                _write(plain(value), pad, out, memo)
                return
        raise SerializationError(f"payload holds a {kind.__name__}, which has no JSON form")


def format_io(payload: Any) -> str:
    """Canonical JSON text: sorted keys, stable arrays, trailing newline."""
    out: list[str] = []
    _write(payload, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """An object's members as a dict, refusing a key given twice."""
    found = dict(pairs)
    if len(found) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ParseError(f"repeats the key {repeated!r} in one object")
    return found


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json_file(path: str) -> Any:
    """The JSON value of a UTF-8 file, read as text mode with universal
    newlines would read it, so values and error texts are the same.

    The file is read as bytes, unbuffered, and decoded here: a text-mode
    handle's buffer, decoder and newline translator cost more than the read
    of a small file.  Newlines are translated after decoding, as text mode
    does, so a decoding error names the byte position in the file.
    """
    try:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
        return _DECODER.decode(text.replace("\r\n", "\n").replace("\r", "\n"))
    except OSError as bad:
        raise ParseError(f"cannot read {path}: {bad}") from bad
    except json.JSONDecodeError as bad:
        raise ParseError(f"{path} is not valid JSON: {bad}") from bad
    except UnicodeDecodeError as bad:
        raise ParseError(f"{path} is not UTF-8 text: {bad}") from bad
    except ValueError:  # int() refuses literals past sys.get_int_max_str_digits()
        raise ParseError(f"{path} holds an integer literal too long to read") from None
    except RecursionError:  # the C scanner recurses once per nested array or object
        raise ParseError(f"{path} nests arrays or objects too deeply") from None
    except ParseError as bad:  # from _unique_keys, which does not know the path
        raise ParseError(f"{path} {bad}") from None
