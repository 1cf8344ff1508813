"""Wire format round trips and strict parsing."""
from __future__ import annotations

import json

import pytest

from ramsey_ba import (
    OUT,
    ParseError,
    SerializationError,
    arrows,
    make_algebra,
    signature_json,
)
from ramsey_ba.chains import make_chain
from ramsey_ba.embed import identity_embedding
from ramsey_ba.serialize import (
    format_io,
    level_from_json,
    load_json_file,
    parse_algebra,
    parse_chain,
    parse_embedding,
)


def test_level_round_trip():
    assert signature_json(make_algebra([OUT, 3], 4)) == [3, "out"]
    assert level_from_json("out", "x") is OUT
    assert level_from_json(2, "x") == 2


def test_level_parse_errors_name_the_field():
    with pytest.raises(ParseError, match=r"levels\[1\]"):
        parse_algebra({"chain_length": 1, "levels": [0, "beyond"]})
    with pytest.raises(ParseError, match="x"):
        level_from_json(True, "x")  # booleans are not levels
    with pytest.raises(ParseError):
        level_from_json(1.5, "x")


def test_algebra_round_trip():
    a = make_algebra([0, 1, OUT], 2)
    text = format_io(a)
    assert text == '{\n  "chain_length": 2,\n  "levels": [\n    0,\n    1,\n    "out"\n  ]\n}\n'
    assert parse_algebra(json.loads(text)) == a


def test_algebra_parse_errors():
    with pytest.raises(ParseError, match="must be an object"):
        parse_algebra([1, 2])
    with pytest.raises(ParseError, match="chain_length"):
        parse_algebra({"levels": ["out"]})
    with pytest.raises(ParseError, match="chain_length"):
        parse_algebra({"chain_length": True, "levels": ["out"]})
    with pytest.raises(ParseError, match="levels must be an array"):
        parse_algebra({"chain_length": 1, "levels": "out"})


def test_embedding_round_trip():
    a = make_algebra([0, OUT], 1)
    e = identity_embedding(a)
    text = format_io(e)
    assert text == '{\n  "block_of": [\n    0,\n    1\n  ],\n  "ordered": true\n}\n'
    assert parse_embedding(json.loads(text), a, a) == e


def test_embedding_parse_validates():
    a = make_algebra([0, OUT], 1)
    b = make_algebra([0, 0, OUT], 1)
    parsed = parse_embedding({"block_of": [0, 1, 1]}, a, b)
    assert parsed.ordered  # ordered defaults to true
    from ramsey_ba import NotAnEmbedding

    with pytest.raises(NotAnEmbedding):
        parse_embedding({"block_of": [1, 1, 0]}, a, b)
    with pytest.raises(ParseError, match="block_of"):
        parse_embedding({"block_of": [0, "x", 1]}, a, b)
    with pytest.raises(ParseError, match="ordered"):
        parse_embedding({"block_of": [0, 1, 1], "ordered": "yes"}, a, b)


def test_chain_round_trip():
    chain = make_chain([set(), {2}, {1, 2}, {0, 1, 2}])
    text = format_io(chain)
    assert text == (
        "[\n  [],\n  [\n    2\n  ],\n  [\n    1,\n    2\n  ],\n"
        "  [\n    0,\n    1,\n    2\n  ]\n]\n"
    )
    assert parse_chain(json.loads(text)) == chain


def test_chain_parse_errors():
    with pytest.raises(ParseError, match="chain"):
        parse_chain({"sets": []})
    with pytest.raises(ParseError, match=r"chain\[0\]"):
        parse_chain([["x"]])
    with pytest.raises(ParseError, match="empty set"):
        parse_chain([[0], [0, 1]])


def test_certificate_serialization():
    c = make_algebra([0, 0, OUT], 1)
    a = make_algebra([0, OUT], 1)
    assert format_io(arrows(c, c, a, 2)) == FAILING_CERTIFICATE
    assert format_io(arrows(c, a, a, 2)) == HOLDING_CERTIFICATE


FAILING_CERTIFICATE = """\
{
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
}
"""

HOLDING_CERTIFICATE = """\
{
  "bad_coloring": null,
  "stats": {
    "a_copies": 3,
    "b_copies": 3,
    "nodes": 0
  },
  "vacuous": false,
  "verdict": "holds"
}
"""


def test_format_io_is_byte_stable():
    payload = {"b": [1, 2], "a": {"y": "out", "x": 0}}
    text = format_io(payload)
    assert text == '{\n  "a": {\n    "x": 0,\n    "y": "out"\n  },\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert format_io(payload) == text
    with pytest.raises(SerializationError):
        format_io({"bad": float("nan")})
    with pytest.raises(SerializationError):
        format_io({"bad": {1, 2}})


def test_load_json_file(tmp_path):
    target = tmp_path / "algebra.json"
    target.write_text('{"chain_length": 1, "levels": [0, "out"]}')
    assert parse_algebra(load_json_file(str(target))) == make_algebra([0, OUT], 1)
    with pytest.raises(ParseError, match="not valid JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        load_json_file(str(bad))
    with pytest.raises(ParseError, match="cannot read"):
        load_json_file(str(tmp_path / "missing.json"))
