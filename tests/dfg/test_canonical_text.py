"""Byte-for-byte pins of the directly rendered design texts.

Admission renders two texts field by field instead of building a nested
value for the JSON encoder: each node's structural-hash text
(``repro.dfg.fingerprint``) and the compact ``repro-dfg`` text
(``dfg_to_json(dfg, indent=None)``, stored as ``spec["dfg_json"]``).
Both must equal what the encoder makes of the old nested values, kept
here as the reference, for any names a client can send: quotes,
backslashes, control characters, non-ASCII and astral-plane text, lone
surrogates, and constants past 64 bits.  Decoding a rendered text must
give back the design it came from.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg import fingerprint
from repro.dfg.fingerprint import _CANONICAL_JSON, node_structural_hashes
from repro.dfg.graph import DFG, Port
from repro.io.jsonio import dfg_from_json, dfg_to_json


def reference_node_list(node, hashes):
    """The nested list a node's structural hash covers."""

    def encode_port(port):
        if port.is_const:
            return ["const", port.value]
        if port.is_input:
            return ["input", port.name]
        return ["node", hashes[port.name]]

    return [
        "op",
        node.kind,
        [encode_port(port) for port in node.operands],
        [[condition, bool(arm)] for condition, arm in node.branch],
    ]


def reference_hashes(dfg):
    hashes = {}
    for name in dfg.topological_order():
        text = _CANONICAL_JSON.encode(reference_node_list(dfg.node(name), hashes))
        hashes[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return hashes


def reference_payload(dfg):
    """The ``repro-dfg`` document ``dfg_to_json`` dumps."""

    def port_obj(port):
        if port.is_const:
            return {"const": port.value}
        if port.is_input:
            return {"input": port.name}
        return {"node": port.name}

    return {
        "format": "repro-dfg",
        "version": 1,
        "name": dfg.name,
        "inputs": list(dfg.inputs),
        "nodes": [
            {
                "name": node.name,
                "kind": node.kind,
                "operands": [port_obj(p) for p in node.operands],
                "branch": [[cond, arm] for cond, arm in node.branch],
            }
            for node in dfg
        ],
        "outputs": {
            name: port_obj(port) for name, port in dfg.outputs.items()
        },
    }


#: Characters the JSON encoder escapes, or must pass through unescaped.
#: Lone surrogates are low ones: after a high one, JSON text would read
#: the pair back as one astral character.
awkward_chars = st.one_of(
    st.sampled_from(list('"\\/\b\f\n\r\t\x00\x1f\x7f é€ ')),
    st.characters(max_codepoint=0x7F),
    st.characters(
        min_codepoint=0x80, max_codepoint=0xFFFF, exclude_categories=("Cs",)
    ),
    st.characters(min_codepoint=0x10000),
    st.integers(min_value=0xDC00, max_value=0xDFFF).map(chr),
)
names = st.text(awkward_chars, max_size=6)
constants = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**63, -(2**63) - 1, 2**64 + 1]),
)


@st.composite
def designs(draw):
    """A DFG built through ``add_op`` with awkward names everywhere."""
    dfg = DFG(draw(names))
    ports = [
        dfg.add_input(name)
        for name in draw(st.lists(names, min_size=1, max_size=4, unique=True))
    ]
    conditions = draw(st.lists(names, min_size=1, max_size=3))
    node_names = draw(st.lists(names, min_size=1, max_size=8, unique=True))
    for name in node_names:
        operands = draw(
            st.lists(
                st.one_of(st.sampled_from(ports), constants.map(Port.const)),
                max_size=3,
            )
        )
        branch = tuple(
            draw(
                st.lists(
                    st.tuples(st.sampled_from(conditions), st.booleans()),
                    max_size=3,
                )
            )
        )
        kind = draw(st.one_of(st.sampled_from(["add", "mul", "not"]), names))
        ports.append(dfg.add_op(kind, operands, name=name, branch=branch))
    for name in draw(st.lists(names, min_size=1, max_size=3, unique=True)):
        dfg.set_output(
            name,
            draw(st.one_of(st.sampled_from(ports), constants.map(Port.const))),
        )
    return dfg


@given(dfg=designs())
@settings(max_examples=150, deadline=None)
def test_node_hash_text_is_the_encoders(dfg):
    expected = reference_hashes(dfg)
    for node in dfg:
        assert fingerprint._node_text(node, expected) == _CANONICAL_JSON.encode(
            reference_node_list(node, expected)
        )
    assert node_structural_hashes(dfg) == expected


@given(dfg=designs())
@settings(max_examples=150, deadline=None)
def test_design_text_is_the_encoders(dfg):
    assert dfg_to_json(dfg, indent=None) == json.dumps(reference_payload(dfg))
    assert dfg_to_json(dfg) == json.dumps(reference_payload(dfg), indent=2)


@given(dfg=designs())
@settings(max_examples=150, deadline=None)
def test_decoding_the_text_gives_the_design_back(dfg):
    twin = dfg_from_json(dfg_to_json(dfg, indent=None))
    assert twin.name == dfg.name
    assert twin.inputs == dfg.inputs
    assert twin.node_names() == dfg.node_names()
    for node, copy in zip(dfg, twin):
        assert copy.kind == node.kind
        assert copy.operands == node.operands
        assert copy.branch == node.branch
    assert twin.outputs == dfg.outputs


def test_fields_of_other_types_take_the_encoder():
    """A programmatic design may hold a constant, a branch condition or
    an output name no decoded design has; those fields go through the
    encoder, and the texts still equal the reference."""
    dfg = DFG("odd")
    a = dfg.add_input("a")
    for value in (True, 2.5, [3, {"b": 1, "a": 2}], None):
        dfg.set_output(str(value), dfg.add_op("add", [a, Port.const(value)]))
    branchy = dfg.add_op("add", [a, a], branch=((7, True), (("c", 1), False)))
    dfg.add_op("add", [a, a], branch=(("c", 1),))  # an int arm
    for name in (5, 2.5, True, None):
        dfg.set_output(name, branchy)
    hashes = reference_hashes(dfg)
    for node in dfg:
        assert fingerprint._node_text(node, hashes) == _CANONICAL_JSON.encode(
            reference_node_list(node, hashes)
        )
    assert node_structural_hashes(dfg) == hashes
    assert dfg_to_json(dfg, indent=None) == json.dumps(reference_payload(dfg))
    # The two encoders differ on key order, and each text keeps its own.
    assert '{"a":2,"b":1}' in fingerprint._node_text(dfg.node("n2"), hashes)
    assert '{"b": 1, "a": 2}' in dfg_to_json(dfg, indent=None)
    assert '["const",true]' in fingerprint._node_text(dfg.node("n0"), hashes)


def test_refused_fields_raise_as_the_encoder_does():
    dfg = DFG("bad")
    dfg.set_output(("t",), dfg.add_op("add", [dfg.add_input("a")] * 2))
    try:
        json.dumps(reference_payload(dfg))
    except TypeError as error:
        expected = str(error)
    try:
        dfg_to_json(dfg, indent=None)
    except TypeError as error:
        assert str(error) == expected
    else:  # pragma: no cover - the assertion message names the fault
        raise AssertionError("a tuple output name was rendered")
