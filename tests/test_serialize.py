"""Wire format round trips and strict parsing."""
from __future__ import annotations

import json
import random
from collections import OrderedDict, namedtuple
from enum import IntEnum
from itertools import product

import pytest

from ramsey_ba import (
    OUT,
    ChainMismatch,
    ClassKind,
    ParseError,
    SerializationError,
    amalgamate,
    arrows,
    enumerate_algebras,
    make_algebra,
    signature_json,
)
from ramsey_ba.chains import Chains, MaximalChain, chains_extending, enumerate_maximal_chains, make_chain
from ramsey_ba.cli import RunConfig, run
from ramsey_ba.embed import Embedding, _ordered_block_maps, enumerate_embeddings, identity_embedding
from ramsey_ba.ramsey import Coloring
from ramsey_ba.serialize import (
    format_io,
    level_from_json,
    load_json_file,
    parse_algebra,
    parse_chain,
    parse_embedding,
)

from .oracles import reference_load_json_file, wire_reference


def test_level_round_trip():
    assert signature_json(make_algebra([OUT, 3], 4)) == [3, "out"]
    assert level_from_json("out", "x") is OUT
    assert level_from_json(2, "x") == 2


def test_level_parse_errors_name_the_field():
    with pytest.raises(ParseError, match=r"levels\[1\]"):
        parse_algebra({"chain_length": 1, "levels": [0, "beyond"]})
    for data, field, text in (
        ({"chain_length": 1, "levels": [0, "out", 1.5, True]}, "algebra",
         'algebra.levels[2] must be an integer or "out", got 1.5'),
        ({"chain_length": 2, "levels": [True]}, "c", 'c.levels[0] must be an integer or "out", got True'),
        ({"chain_length": 1, "levels": [0, None]}, "b", 'b.levels[1] must be an integer or "out", got None'),
    ):
        with pytest.raises(ParseError) as refused:
            parse_algebra(data, field=field)
        assert str(refused.value) == text
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
    for text in (
        '{"chain_length": 1, "chain_length": 3, "levels": [0, "out"]}',
        '{"chain_length": 1, "levels": [0, "out"], "x": [{"y": 1, "y": 1}]}',
    ):
        target.write_text(text)
        with pytest.raises(ParseError, match=r"algebra\.json repeats the key '(chain_length|y)'"):
            load_json_file(str(target))
    with pytest.raises(ParseError, match="not valid JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        load_json_file(str(bad))
    with pytest.raises(ParseError, match="cannot read"):
        load_json_file(str(tmp_path / "missing.json"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError, match=r"deep\.json nests arrays or objects too deeply"):
        load_json_file(str(deep))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"chain_length": 1, "levels": [0, "\xff"]}')
    with pytest.raises(ParseError, match=r"binary\.json is not UTF-8 text"):
        load_json_file(str(binary))
    long = tmp_path / "long.json"
    long.write_text('{"chain_length": ' + "1" * 5000 + ', "levels": ["out"]}')
    with pytest.raises(ParseError, match=r"long\.json holds an integer literal too long"):
        load_json_file(str(long))


def load_path_corpus(directory) -> list[str]:
    """Input paths whose reading depends on decoding, newlines or the path itself."""
    algebra = '{\n  "chain_length": 1,\n  "levels": [0, "out"]\n}\n'
    broken = [
        '{\n  "chain_length": 1,\n  "levels": [0, "out"\n}\n',  # a JSON error on line 4
        '{\n  "chain_length": 1,\n  "levels": ["o\tut"]\n}\n',  # a control character
        '{\n  "chain_length": 1,\n  "chain_length": 2\n}\n',  # a repeated key
    ]
    files = {}
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        files[f"{name}.json"] = algebra.replace("\n", newline).encode()
        for i, text in enumerate(broken):
            files[f"{name}_broken{i}.json"] = text.replace("\n", newline).encode()
        files[f"{name}_binary.json"] = f'[1,{newline} "\xff"]'.encode("latin-1")
        files[f"{name}_late_binary.json"] = (
            b"[" + f"0,{newline}".encode() * 3000 + b'"\xff"]'
        )
    files.update({
        "bom.json": b"\xef\xbb\xbf" + algebra.encode(),
        "binary_first.json": b"\xff" + algebra.encode(),
        "truncated_utf8.json": b'["\xe2\x82',
        "truncated.json": b'{"chain_length": 1, "levels": [0, "ou',
        "repeated.json": b'{"a": [{"y": 1, "y": 1}]}',
        "deep.json": b"[" * 100_000 + b"]" * 100_000,
        "long.json": b'{"chain_length": ' + b"1" * 5000 + b"}",
        "empty.json": b"",
        "text.json": '{"name": "\u00e9\u20ac\U0001f600", "levels": ["out"]}'.encode(),
    })
    paths = []
    for name, data in files.items():
        (directory / name).write_bytes(data)
        paths.append(str(directory / name))
    return [*paths, str(directory), str(directory / "missing.json")]


def test_load_json_file_reads_as_text_mode_does(tmp_path):
    def outcome(reader, path):
        try:
            return "value", reader(path)
        except ParseError as refused:
            return "error", str(refused)

    corpus = load_path_corpus(tmp_path)
    got = {path: outcome(load_json_file, path) for path in corpus}
    assert got == {path: outcome(reference_load_json_file, path) for path in corpus}
    texts = [detail for kind, detail in got.values() if kind == "error"]
    for reason in (  # the corpus reaches every refusal
        "cannot read", "not valid JSON", "not UTF-8", "too long", "too deeply", "repeats the key"
    ):
        assert any(reason in text for text in texts), reason
    # a JSON error is placed in the translated text, a UTF-8 error at its byte in the file
    assert "line 4 column 1 (char 45)" in got[str(tmp_path / "crlf_broken0.json")][1]
    assert "position 12002" in got[str(tmp_path / "crlf_late_binary.json")][1]
    assert got[str(tmp_path / "cr.json")] == ("value", {"chain_length": 1, "levels": [0, "out"]})


def reference_text(payload) -> str:
    return json.dumps(wire_reference(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


Pair = namedtuple("Pair", "left right")


class Text(str):
    """A str subclass, which json writes as its string value."""
SMALL_ALGEBRAS = [make_algebra([OUT], 0), make_algebra([0, 1, OUT], 2), make_algebra([0, 0], 1)]
ODD_CHARACTERS = '"\\/\b\f\n\r\t\x00\x1f\x7f aZ\u00e9\u00df\u20ac\u2028\ufeff\U0001d11e\U0001f600'


def random_payload(rng: random.Random, depth: int):
    """A payload mixing every JSON kind, domain values and containers to depth 6."""
    pick = rng.randrange(14 if depth < 6 else 8)
    if pick == 0:
        return rng.choice([None, True, False])
    if pick == 1:
        return rng.choice([0, -1, 7, -(10**30), 10**40, 2**63, -(2**63) - 1])
    if pick == 2:
        return OUT
    if pick == 3:
        return rng.choice([0.0, -0.0, 1.5, -2.25e-300, 1e300, 5e-324, rng.uniform(-1e6, 1e6)])
    if pick == 4:
        text = "".join(rng.choice(ODD_CHARACTERS) for _ in range(rng.randrange(6)))
        return Text(text) if rng.random() < 0.2 else text
    if pick == 5:
        return [rng.randrange(-3, 100) for _ in range(rng.randrange(4))]
    if pick == 6:
        return rng.choice(SMALL_ALGEBRAS)
    if pick == 7:
        return rng.choice(enumerate_maximal_chains(3))
    if pick == 8:
        return {}
    if pick == 9:
        return rng.choice([[], ()])
    children = [random_payload(rng, depth + 1) for _ in range(rng.randrange(1, 4))]
    if pick == 10:
        return children
    if pick == 11:
        return tuple(children)
    if pick == 12:
        return Pair(children[0], children[-1]) if rng.random() < 0.2 else children
    keys = ["".join(rng.choice(ODD_CHARACTERS) for _ in range(3)) for _ in children]
    mapping = dict(zip(keys, children))
    return OrderedDict(mapping) if rng.random() < 0.2 else mapping


def test_format_io_matches_json_dumps_on_generated_payloads():
    rng = random.Random(20121)
    for _ in range(400):
        payload = random_payload(rng, 0)
        assert format_io(payload) == reference_text(payload), payload


def test_format_io_matches_json_dumps_on_domain_values():
    c, a = make_algebra([0, 0, OUT], 1), make_algebra([0, OUT], 1)
    base = make_algebra([OUT], 1)
    f = Embedding(base, a, (0, 0), ordered=True)
    payloads = [
        arrows(c, c, a, 2),  # fails, with its bad coloring
        arrows(c, a, a, 2),  # holds
        arrows(a, c, a, 2),  # vacuous
        amalgamate(ClassKind.BJ, base, a, a, f, f),
    ]
    for t in range(3):
        algebras = list(enumerate_algebras(4, t))
        payloads.append(algebras)
        payloads.extend(algebras)
        for small in enumerate_algebras(2, t):
            for big in enumerate_algebras(4, t):
                for mode in ("plain", "ordered"):
                    payloads.append(enumerate_embeddings(small, big, mode=mode))
    for n in range(1, 7):
        chains = enumerate_maximal_chains(n)
        payloads.append({"chains": chains, "nested": [{"chains": chains}]})
    for payload in payloads:
        assert format_io(payload) == reference_text(payload), payload


def test_copies_and_coloring_rows_match_the_reference_writer(tmp_path):
    # through cli.run: every copies report with t <= 2 and big <= 5 atoms in
    # both modes, and every failing k = 2 arrow with C <= 5 atoms, A in B in C,
    # is json.dumps of its dict form, with enumerate_embeddings's Embeddings
    # for the copies and the rows of a bad coloring
    paths = {}

    def path(algebra):
        if algebra not in paths:
            target = tmp_path / f"{len(paths)}.json"
            target.write_text(format_io(algebra))
            paths[algebra] = str(target)
        return paths[algebra]

    seen = {"one atom": 0, "no copy": 0, "fails": 0, "rows": 0}
    for t in range(3):
        algebras = list(enumerate_algebras(5, t))
        for small, big, mode in product(algebras, algebras, ("plain", "ordered")):
            inputs = {"small": path(small), "big": path(big)}
            found = enumerate_embeddings(small, big, mode)
            report = {
                "subcommand": "copies", "small": small, "big": big,
                "mode": mode, "count": len(found), "embeddings": found,
            }
            assert run(RunConfig("copies", inputs, mode=mode)) == (0, reference_text(report))
            seen["one atom"] += big.n_atoms == 1
            seen["no copy"] += not found
        for c, b, a in product(algebras, repeat=3):
            if not (a.n_atoms <= b.n_atoms <= c.n_atoms and any(_ordered_block_maps(a, b))):
                continue
            certificate = arrows(c, b, a, 2)
            if certificate.verdict == "holds":
                continue
            inputs = {"c": path(c), "b": path(b), "a": path(a)}
            copies = enumerate_embeddings(a, c, "ordered")
            rows = zip(copies, certificate.bad_coloring.colors, strict=True)
            written = dict(
                vars(certificate),
                bad_coloring=[{"color": col, "embedding": e.block_of} for e, col in rows],
            )
            report = {"subcommand": "arrow", "c": c, "b": b, "a": a, "k": 2, "certificate": written}
            assert run(RunConfig("arrow", inputs, k=2)) == (1, reference_text(report))
            seen["fails"] += 1
            seen["rows"] += len(certificate.bad_coloring.colors)
    assert seen == {"one atom": 420, "no copy": 6110, "fails": 8764, "rows": 12923}


def test_chains_reports_match_the_reference_writer(tmp_path):
    # through cli.run: every chains report for t <= 2 and n <= 6, t = 3 and
    # n <= 5, the two 8-atom order-sweep algebras and level-free 7 atoms is
    # json.dumps of its dict form, with the chains as a list of MaximalChains
    algebras = [a for t, n in ((0, 6), (1, 6), (2, 6), (3, 5)) for a in enumerate_algebras(n, t)]
    algebras.append(make_algebra([0] * 4 + [OUT] * 4, 1))
    algebras.append(make_algebra([0, 0, 1, 1, 1, OUT, OUT, OUT], 2))
    algebras.append(make_algebra([OUT] * 7, 0))
    seen = {"algebras": 0, "chains": 0, "runs": 0}
    for i, algebra in enumerate(algebras):
        path = tmp_path / f"{i}.json"
        path.write_text(format_io(algebra))
        extending, correspondence = chains_extending(algebra)
        report = {
            "subcommand": "chains", "algebra": algebra,
            "correspondence": correspondence, "extending": list(extending),
        }
        assert run(RunConfig("chains", {"algebra": str(path)})) == (0, reference_text(report))
        seen["algebras"] += 1
        seen["chains"] += len(report["extending"])
        seen["runs"] += len(extending.runs)
    assert seen == {"algebras": 244, "chains": 14_302, "runs": 502}
    for additions in ((), (0,), (2, 0, 3, 1)):
        chain = MaximalChain(additions)
        for payload in (chain, {"x": [chain, chain]}):
            assert format_io(payload) == reference_text(payload)
    # built by hand: no run is the one chain of no points, an empty run leaves none
    for chains in (Chains(()), Chains(((),)), Chains((((2,),), ((0, 1), (1, 0))))):
        assert format_io({"x": chains}) == reference_text({"x": list(chains)})


def test_coloring_rows_write_colors_that_are_not_plain_ints_as_json_does():
    # '%d' writes True as 1 and 0.5 as 0; json writes true and 0.5
    c, a = make_algebra([0, 0, OUT], 1), make_algebra([0, OUT], 1)
    for colors in ((True, 0.5, 0), (0, 1, Shade.DARK), (0, 1, 2)):
        coloring = Coloring(a, c, colors)
        assert format_io({"x": [coloring]}) == reference_text({"x": [coloring]})


def test_coloring_of_algebras_with_different_chain_lengths_is_refused():
    # [out, out] at t = 0 does not embed into [0, out, out] at t = 1, though
    # the ordered block maps of their levels are (0, 0, 1) and (1, 0, 1)
    a, c = make_algebra([OUT, OUT], 0), make_algebra([0, OUT, OUT], 1)
    for colors in ((0, 1), (True, 0.5)):
        with pytest.raises(ChainMismatch):
            format_io({"x": Coloring(a, c, colors)})


class Shade(IntEnum):
    DARK = 3


class Loud(int):
    """An int subclass whose own __int__ and __repr__ json never calls."""

    def __int__(self):
        return 99

    def __repr__(self):
        return "Loud()"


class Quiet(str):
    """A str subclass whose own __str__ json never calls."""

    def __str__(self):
        return "quiet"


class Ints(tuple):
    """A tuple subclass, which json writes as an array."""


def test_format_io_writes_a_subclass_as_the_json_type_it_extends():
    for payload in (
        Shade.DARK,
        Loud(-7),
        Quiet('a"\u00e9'),
        Ints((1, 2)),
        Ints(()),
        {"k": [Shade.DARK, Loud(5), Quiet("x"), Ints((0, Loud(1)))]},
    ):
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert format_io(payload) == want, payload
    with pytest.raises(SerializationError, match="non-string key 1"):
        format_io(OrderedDict([(1, "x")]))


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), float("-inf"), {1, 2}, {1: "x"}, {"a": 0, (0, 1): 1}],
    ids=["nan", "inf", "-inf", "set", "int-key", "tuple-key"],
)
def test_format_io_refuses_values_without_a_json_form(bad):
    for payload in (bad, [0, bad], {"deep": [[bad]]}):
        with pytest.raises(SerializationError):
            format_io(payload)
