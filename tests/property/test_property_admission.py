"""Property tests for the once-per-hop admission path.

Three equivalences keep the fast path honest against the plain one:

* decoding an already-parsed ``repro-dfg`` object (``dfg_from_obj``)
  equals decoding its JSON text (``dfg_from_json``) — same graph or the
  same error — for generated designs and for mutated, malformed ones;
* the key a spec gets straight after :func:`normalize_spec` (from the
  admission memo) equals the key of a fresh parse with the memo empty;
* the DFG's cached topological order and predecessor tuples, after
  further ``add_op`` calls, equal a from-scratch recomputation.
"""

from __future__ import annotations

import copy
import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfg.generators import random_conditional_dfg, random_dfg
from repro.dfg.graph import DFG, Port
from repro.io.jsonio import dfg_from_json, dfg_from_obj, dfg_to_json
from repro.serve import jobs
from repro.serve.jobs import (
    JobSpecError,
    cache_key,
    key_and_fingerprint,
    normalize_spec,
)

RELAXED = settings(max_examples=80, deadline=None)

KINDS = ("add", "sub", "mul", "and", "or", "eq", "lt", "div", "xor")

designs = st.one_of(
    st.builds(
        random_dfg,
        seed=st.integers(min_value=0, max_value=10_000),
        n_ops=st.integers(min_value=1, max_value=24),
        n_inputs=st.integers(min_value=1, max_value=5),
        kinds=st.sampled_from([("add", "sub", "mul"), KINDS]),
    ),
    st.builds(
        random_conditional_dfg,
        seed=st.integers(min_value=0, max_value=10_000),
    ),
)

#: JSON values a hostile client could put anywhere in a design.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(
        st.sampled_from(["const", "input", "node", "x"]),
        st.text(max_size=3),
        max_size=2,
    ),
)


def _mutate(obj, data):
    """Apply one seeded, possibly invalidating edit to a design object."""
    doc = copy.deepcopy(obj)
    nodes = doc["nodes"]
    node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    edit = data.draw(
        st.sampled_from(
            [
                "drop-key",
                "junk-key",
                "kind",
                "extra-operand",
                "drop-operand",
                "junk-port",
                "dangling-port",
                "reverse-nodes",
                "duplicate-node",
                "junk-branch",
                "junk-output",
                "whole",
            ]
        )
    )
    if edit == "drop-key":
        doc.pop(data.draw(st.sampled_from(sorted(doc))))
    elif edit == "junk-key":
        doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(junk)
    elif edit == "kind":
        node["kind"] = data.draw(
            st.one_of(st.sampled_from(KINDS + ("frobnicate", "not")), junk)
        )
    elif edit == "extra-operand":
        node["operands"].append(node["operands"][0])
    elif edit == "drop-operand":
        node["operands"].pop()
    elif edit == "junk-port":
        node["operands"][0] = data.draw(junk)
    elif edit == "dangling-port":
        node["operands"][0] = {"node": "no-such-node"}
    elif edit == "reverse-nodes":
        nodes.reverse()
    elif edit == "duplicate-node":
        nodes.append(copy.deepcopy(node))
    elif edit == "junk-branch":
        node["branch"] = data.draw(junk)
    elif edit == "junk-output":
        doc["outputs"] = {"y": data.draw(junk)}
    else:
        return data.draw(junk)
    return doc


def _outcome(decode, arg):
    try:
        return "ok", dfg_to_json(decode(arg))
    except Exception as error:  # the two paths must fail identically
        return type(error), str(error)


@given(dfg=designs, mutate=st.booleans(), data=st.data())
@RELAXED
def test_obj_and_text_decoders_agree(dfg, mutate, data):
    obj = json.loads(dfg_to_json(dfg))
    if mutate:
        obj = _mutate(obj, data)
    assert _outcome(dfg_from_obj, copy.deepcopy(obj)) == _outcome(
        dfg_from_json, json.dumps(obj)
    )


@given(
    dfg=designs,
    algorithm=st.sampled_from(["mfs", "mfsa"]),
    style=st.sampled_from([None, 1, 2]),
    mutate=st.booleans(),
    data=st.data(),
)
@RELAXED
def test_memo_key_equals_fresh_parse_key(dfg, algorithm, style, mutate, data):
    obj = json.loads(dfg_to_json(dfg))
    if mutate:
        obj = _mutate(obj, data)
    body = {"dfg": obj, "cs": data.draw(st.integers(1, 9))}
    if style is not None:
        body["style"] = style
    try:
        spec = normalize_spec(algorithm, body)
    except JobSpecError:
        return
    warm = key_and_fingerprint(spec)
    assert cache_key(spec) == warm[0]
    jobs._admitted.clear()
    assert key_and_fingerprint(spec) == warm


def _reference_predecessors(dfg: DFG):
    """Operand-derived predecessor tuples, recomputed on every call."""
    return {
        node.name: tuple(
            dict.fromkeys(port.name for port in node.operands if port.is_node)
        )
        for node in dfg
    }


@given(
    dfg=designs,
    growth=st.lists(
        st.tuples(
            st.sampled_from(["add", "mul", "not"]),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=8,
    ),
)
@RELAXED
def test_cached_structure_follows_add_op(dfg, growth):
    dfg.topological_order()  # populate the cache before growing
    for index, (kind, left, right) in enumerate(growth):
        names = dfg.node_names()
        operands = [Port.node(names[left % len(names)])]
        if kind != "not":
            operands.append(Port.node(names[right % len(names)]))
        dfg.add_op(kind, operands, name=f"grown{index}")
        preds = _reference_predecessors(dfg)
        for node in dfg:
            assert dfg.predecessors(node.name) == preds[node.name]
        order = dfg.topological_order()
        assert sorted(order) == sorted(preds)
        position = {name: i for i, name in enumerate(order)}
        for name, pred_names in preds.items():
            assert all(position[p] < position[name] for p in pred_names)
        # A copy has an empty cache, so it recomputes from scratch.
        assert order == dfg.copy().topological_order()


class TestDecodeCount:
    """One admission decodes its design once per process hop."""

    @pytest.mark.parametrize("algorithm", ["mfs", "mfsa"])
    def test_normalize_then_key_decodes_once(self, monkeypatch, algorithm):
        # Every decode builds exactly one DFG, so constructions count
        # decodes on any build of the decoder.
        built = []
        real_init = DFG.__init__

        def counting_init(self, name="dfg"):
            built.append(name)
            real_init(self, name)

        design = random_dfg(seed=7, n_ops=12, name="counted")
        body = {"dfg": json.loads(dfg_to_json(design))}
        jobs._admitted.clear()
        monkeypatch.setattr(DFG, "__init__", counting_init)
        spec = normalize_spec(algorithm, body)
        key_and_fingerprint(spec)
        cache_key(spec)
        assert built == ["counted"]
        jobs._admitted.clear()
        key_and_fingerprint(spec)  # a memo miss parses, as before
        assert built == ["counted", "counted"]


class TestConcurrentAdmission:
    """Threads (in-process servers, the benchmark) share one memo."""

    def test_interleaved_admissions_keep_every_key_right(self):
        bodies = [
            {"dfg": json.loads(dfg_to_json(random_dfg(seed=seed, n_ops=10)))}
            for seed in range(3 * jobs.ADMISSION_MEMO_ENTRIES)
        ]
        jobs._admitted.clear()
        expected = [
            key_and_fingerprint(normalize_spec("mfsa", body)) for body in bodies
        ]
        jobs._admitted.clear()
        errors = []

        def admit(offset):
            try:
                for step in range(300):
                    index = (offset * 7 + step) % len(bodies)
                    spec = normalize_spec("mfsa", bodies[index])
                    # Other threads may evict this entry before the key
                    # is taken; the key must come out right either way.
                    assert key_and_fingerprint(spec) == expected[index]
            except Exception as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=admit, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(jobs._admitted) <= jobs.ADMISSION_MEMO_ENTRIES
