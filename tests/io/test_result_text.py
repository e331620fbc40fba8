"""Byte-for-byte pins of the result texts every answer leaves as.

Three texts carry every MFS or MFSA answer: ``schedule_to_json`` (the
``repro-schedule`` document, a Table-1 schedule), ``synthesis_to_json``
(``repro-synthesis``, a Table-2 datapath), both in their default
``indent=2`` layout, and ``response_text``, the sorted envelope the
caches store and ``GET /v1/jobs/<id>/result`` answers.  Each must equal
``json.dumps`` of the reference payload kept here (and a ``wait=1``
answer, which splices the stored text in, the encoder's answer):

* for any names a design can carry (quotes, backslashes, control
  characters, non-ASCII and astral text, lone surrogates) and constants
  past 64 bits, on schedules and datapaths the schedulers really build;
* for any JSON value a payload can hold;
* where a field holds what no scheduler writes (floats at the edges of
  their spelling, empty and tuple containers, keys that are not strings,
  an ``int`` subclass, a type JSON has no spelling for): the encoder's
  bytes, or the encoder's error with its message;
* for any value a payload builder could return, walked with its keys in
  the order they were set, as both result documents are.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.datapath import CostBreakdown
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.graph import DFG, Port
from repro.dfg.ops import standard_operation_set
from repro.io import jsonio
from repro.io.jsonio import schedule_to_json, synthesis_to_json
from repro.library.ncr import datapath_library
from repro.serve.httpcore import JobAnswer
from repro.serve.jobs import response_text
from tests.dfg.test_canonical_text import constants, names


def reference_schedule_payload(schedule):
    """The ``repro-schedule`` document ``schedule_to_json`` dumps."""
    return {
        "format": "repro-schedule",
        "version": 1,
        "dfg": schedule.dfg.name,
        "cs": schedule.cs,
        "makespan": schedule.makespan(),
        "latency_l": schedule.latency_l,
        "pipelined_kinds": sorted(schedule.pipelined_kinds),
        "starts": dict(sorted(schedule.starts.items())),
        "fu_usage": schedule.fu_usage(),
    }


def reference_synthesis_payload(result):
    """The ``repro-synthesis`` document ``synthesis_to_json`` dumps."""
    datapath = result.datapath
    cost = datapath.cost_breakdown()
    return {
        "format": "repro-synthesis",
        "version": 1,
        "dfg": result.schedule.dfg.name,
        "cs": result.schedule.cs,
        "style": result.style,
        "starts": dict(sorted(result.schedule.starts.items())),
        "binding": {
            name: {"cell": key[0], "instance": key[1]}
            for name, key in sorted(datapath.binding.items())
        },
        "alus": [
            {
                "cell": instance.cell.name,
                "label": instance.cell.label(),
                "instance": instance.index,
                "ops": list(instance.ops),
                "mux_l1": list(instance.mux.l1),
                "mux_l2": list(instance.mux.l2),
            }
            for _key, instance in sorted(datapath.instances.items())
        ],
        "registers": {
            f"r{index}": list(datapath.registers.values_in(index))
            for index in range(datapath.registers.count)
        },
        "cost": {
            "alu": cost.alu,
            "registers": cost.registers,
            "mux": cost.mux,
            "total": cost.total,
        },
        "metrics": {
            "register_count": datapath.register_count(),
            "mux_count": datapath.mux_count(),
            "mux_inputs": datapath.mux_inputs(),
        },
    }


def encoded_schedule(schedule):
    return json.dumps(reference_schedule_payload(schedule), indent=2)


def encoded_synthesis(result):
    return json.dumps(reference_synthesis_payload(result), indent=2)


def encoded_response(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def outcome(render, *args):
    """``("text", text)`` or ``("error", type, message)`` of one call."""
    try:
        return ("text", render(*args))
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error), str(error))


# ----------------------------------------------------------------------
# Awkward names on schedules and datapaths the schedulers build
# ----------------------------------------------------------------------
@st.composite
def runnable_designs(draw):
    """A design every kind of which the schedulers and the library run,
    with awkward names everywhere a name goes."""
    signals = draw(st.lists(names, min_size=2, max_size=10, unique=True))
    split = draw(st.integers(min_value=1, max_value=min(3, len(signals) - 1)))
    dfg = DFG(draw(names))
    ports = [dfg.add_input(name) for name in signals[:split]]
    for name in signals[split:]:
        kind = draw(st.sampled_from(["add", "sub", "mul"]))
        operands = [
            draw(st.one_of(st.sampled_from(ports), constants.map(Port.const)))
            for _ in range(2)
        ]
        ports.append(dfg.add_op(kind, operands, name=name))
    for name in draw(st.lists(names, min_size=1, max_size=3, unique=True)):
        dfg.set_output(name, draw(st.sampled_from(ports[split:])))
    return dfg


@st.composite
def runs(draw):
    """``(dfg, timing, cs, options)`` of one scheduler run."""
    dfg = draw(runnable_designs())
    ops = standard_operation_set(mul_latency=draw(st.sampled_from([1, 2])))
    timing = TimingModel(ops=ops)
    cs = critical_path_length(dfg, timing) + draw(st.integers(0, 3))
    pipelined = draw(st.sampled_from([(), ("mul",)]))
    return dfg, timing, cs, pipelined


@given(run=runs())
@settings(max_examples=120, deadline=None)
def test_schedule_text_is_the_encoders(run):
    dfg, timing, cs, pipelined = run
    result = MFSScheduler(
        dfg, timing, cs=cs, mode="time", pipelined_kinds=pipelined
    ).run()
    assert schedule_to_json(result.schedule) == encoded_schedule(result.schedule)


@given(run=runs(), style=st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_synthesis_text_is_the_encoders(run, style):
    dfg, timing, cs, pipelined = run
    result = MFSAScheduler(
        dfg, timing, datapath_library(), cs=cs, style=style,
        pipelined_kinds=pipelined,
    ).run()
    assert synthesis_to_json(result) == encoded_synthesis(result)
    payload = {
        "ok": True,
        "algorithm": "mfsa",
        "design": dfg.name,
        "cs": cs,
        "result": reference_synthesis_payload(result),
    }
    assert response_text(payload) == encoded_response(payload)


@given(run=runs())
@settings(max_examples=60, deadline=None)
def test_response_of_a_schedule_is_the_encoders(run):
    dfg, timing, cs, pipelined = run
    result = MFSScheduler(
        dfg, timing, cs=cs, mode="time", pipelined_kinds=pipelined
    ).run()
    payload = {
        "ok": True,
        "algorithm": "mfs",
        "design": dfg.name,
        "cs": cs,
        "result": reference_schedule_payload(result.schedule),
        "checks_run": ["a", "b"],
        "trace_jsonl": '{"event": "x"}\n',
    }
    assert response_text(payload) == encoded_response(payload)


# ----------------------------------------------------------------------
# Any JSON value in a response payload
# ----------------------------------------------------------------------
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, 5e-324, 1.5, -2.0, 1e-7, 123456789.0]),
)
scalars = st.one_of(
    st.none(), st.booleans(), constants, floats, names
)
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(names, children, max_size=4),
    ),
    max_leaves=24,
)


@given(payload=st.dictionaries(names, json_values, max_size=6))
@settings(max_examples=300, deadline=None)
def test_response_text_is_the_encoders(payload):
    assert outcome(response_text, payload) == outcome(encoded_response, payload)


@given(value=json_values)
@settings(max_examples=150, deadline=None)
def test_any_top_level_value_is_the_encoders(value):
    assert outcome(response_text, value) == outcome(encoded_response, value)


@given(payload=st.dictionaries(names, json_values, max_size=6))
@settings(max_examples=200, deadline=None)
def test_the_envelope_splice_is_the_encoders(payload):
    """A ``wait=1`` answer splices the stored text in compact form; it
    must equal the encoder's answer over the parsed text."""
    text = response_text(payload)
    info = {"id": "j00001-0", "status": "done", "cache": "hit", "run_seconds": 0.5}
    expected = json.dumps({"job": info, "result": json.loads(text)}, sort_keys=True)
    assert JobAnswer(info, text).body() == (expected + "\n").encode("ascii")
    assert JobAnswer(info, None).body() == (
        json.dumps({"job": info}, sort_keys=True) + "\n"
    ).encode("ascii")


# ----------------------------------------------------------------------
# Directed cases: what no scheduler writes
# ----------------------------------------------------------------------
class Count(int):
    """An ``int`` subclass with its own ``repr``: the encoder spells the
    integer, not the repr."""

    def __repr__(self):
        return f"Count({int(self)})"


class Weight(float):
    def __repr__(self):
        return "heavy"


EDGE_FLOATS = [-0.0, 0.0, 1e16, 5e-324, 1e308, math.nan, math.inf, -math.inf]

EDGE_VALUES = {
    **{f"float {value!r}": value for value in EDGE_FLOATS},
    "empty dict": {},
    "empty list": [],
    "empty tuple": (),
    "tuple": (1, "a", (2.5, None)),
    "nested empties": [{}, [], (), {"a": []}],
    "big int": 2**70,
    "int subclass": Count(7),
    "float subclass": Weight(2.5),
    "bool": True,
    "set": {1, 2},
    "object": object(),
    "bytes": b"x",
    "complex": 1j,
    "str subclass": type("Name", (str,), {})("n"),
}

EDGE_KEYS = {
    "int keys in another order as strings": {9: "nine", 10: "ten"},
    "float keys": {2.5: 1, -0.0: 2, 1e16: 3, math.inf: 4},
    "nan key": {math.nan: 1},
    "bool keys": {True: 1, False: 0},
    "none key": {None: 1},
    "big int key": {2**70: 1, -(2**70): 2},
    "int subclass key": {Count(3): 1, Count(12): 2},
    "mixed str and int keys": {"a": 1, 2: 2},
    "mixed int and none keys": {1: 1, None: 2},
    "tuple key": {("a",): 1},
    "mixed keys nested": {"ok": {"b": 1, 3: 2}},
}


@pytest.mark.parametrize("label", sorted(EDGE_VALUES))
def test_response_edge_value_is_the_encoders(label):
    value = EDGE_VALUES[label]
    for payload in (
        {"result": value, "ok": True},
        {"result": {"nested": [value, {"x": value}]}},
        [value],
        value,
    ):
        assert outcome(response_text, payload) == outcome(
            encoded_response, payload
        ), label


@pytest.mark.parametrize("label", sorted(EDGE_KEYS))
def test_response_edge_keys_are_the_encoders(label):
    mapping = EDGE_KEYS[label]
    for payload in (mapping, {"result": mapping}, [mapping]):
        assert outcome(response_text, payload) == outcome(
            encoded_response, payload
        ), label


def test_numeric_keys_sort_as_numbers():
    """The encoder sorts keys before it spells them: 9 before 10."""
    assert response_text({9: "a", 10: "b"}) == (
        '{\n  "9": "a",\n  "10": "b"\n}\n'
    )


def test_mixed_keys_raise_the_encoders_type_error():
    with pytest.raises(TypeError) as expected:
        encoded_response({"result": {"a": 1, 2: 2}})
    with pytest.raises(TypeError) as got:
        response_text({"result": {"a": 1, 2: 2}})
    assert str(got.value) == str(expected.value)


def test_a_circular_payload_raises_the_encoders_error():
    payload = {"a": []}
    payload["a"].append(payload)
    assert outcome(response_text, payload) == outcome(encoded_response, payload)
    assert outcome(response_text, payload)[1] is ValueError


@pytest.fixture(scope="module")
def small_run():
    dfg = DFG("small")
    a, b = dfg.add_input("a"), dfg.add_input("b")
    t = dfg.add_op("mul", [a, b], name="t")
    u = dfg.add_op("add", [t, a], name="u")
    dfg.set_output("x", dfg.add_op("sub", [u, b], name="v"))
    timing = TimingModel(ops=standard_operation_set())
    cs = critical_path_length(dfg, timing) + 1
    schedule = MFSScheduler(dfg, timing, cs=cs, mode="time").run().schedule
    synthesis = MFSAScheduler(dfg, timing, datapath_library(), cs=cs).run()
    return schedule, synthesis


def _patched_schedule(schedule, **fields):
    """A copy of ``schedule`` with fields (or methods' answers) replaced."""
    twin = type(schedule)(
        schedule.dfg,
        schedule.timing,
        schedule.cs,
        schedule.starts,
        schedule.latency_l,
        schedule.pipelined_kinds,
    )
    for name, value in fields.items():
        if name in ("makespan", "fu_usage"):
            setattr(twin, name, lambda value=value: value)
        else:
            setattr(twin, name, value)
    return twin


SCHEDULE_EDGES = {
    **{f"cs {value!r}": {"cs": value} for value in EDGE_FLOATS},
    "cs big int": {"cs": 2**70},
    "cs int subclass": {"cs": Count(5)},
    "cs bool": {"cs": True},
    "cs none": {"cs": None},
    "cs set": {"cs": {1}},
    "makespan nan": {"makespan": math.nan},
    "makespan float subclass": {"makespan": Weight(3.0)},
    "latency_l inf": {"latency_l": -math.inf},
    "latency_l int": {"latency_l": 2},
    "no starts": {"starts": {}, "fu_usage": {}},
    "int starts keys": {"starts": {9: 1, 10: 2}},
    "mixed starts keys": {"starts": {"a": 1, 2: 2}},
    "float starts": {"starts": {"t": 1.5, "u": -0.0}},
    "bool and none starts": {"starts": {"t": True, "u": None}},
    "int subclass start": {"starts": {"t": Count(1)}},
    "tuple start": {"starts": {"t": (1, 2)}},
    "object start": {"starts": {"t": object()}},
    "fu_usage int keys": {"fu_usage": {10: 1, 9: 2}},
    "fu_usage mixed keys": {"fu_usage": {"add": 1, 2: 2, None: 3}},
    "fu_usage tuple key": {"fu_usage": {("add",): 1}},
    "fu_usage nested": {"fu_usage": {"add": {"a": [1, ()]}}},
    "pipelined kinds": {"pipelined_kinds": frozenset({"mul", "add"})},
    "pipelined kinds mixed": {"pipelined_kinds": frozenset({"mul", 1})},
    "name int": {"dfg": SimpleNamespace(name=7)},
    "name none": {"dfg": SimpleNamespace(name=None)},
    "name str subclass": {
        "dfg": SimpleNamespace(name=type("Name", (str,), {})("n"))
    },
}


@pytest.mark.parametrize("label", sorted(SCHEDULE_EDGES))
def test_schedule_edge_is_the_encoders(small_run, label):
    schedule, _synthesis = small_run
    twin = _patched_schedule(schedule, **SCHEDULE_EDGES[label])
    assert outcome(schedule_to_json, twin) == outcome(encoded_schedule, twin)


def _patched_synthesis(result, schedule=None, cost=None, **datapath_fields):
    datapath = result.datapath
    twin_datapath = SimpleNamespace(
        binding=datapath_fields.get("binding", datapath.binding),
        instances=datapath_fields.get("instances", datapath.instances),
        registers=datapath_fields.get("registers", datapath.registers),
        cost_breakdown=lambda: cost or datapath.cost_breakdown(),
        register_count=lambda: datapath_fields.get(
            "register_count", datapath.register_count()
        ),
        mux_count=lambda: datapath_fields.get("mux_count", datapath.mux_count()),
        mux_inputs=lambda: datapath_fields.get(
            "mux_inputs", datapath.mux_inputs()
        ),
    )
    return SimpleNamespace(
        schedule=schedule or result.schedule,
        style=datapath_fields.get("style", result.style),
        datapath=twin_datapath,
    )


def _instance(cell="alu", label="(+)", index=1, ops=("t",), l1=("a",), l2=()):
    return SimpleNamespace(
        cell=SimpleNamespace(name=cell, label=lambda: label),
        index=index,
        ops=list(ops),
        mux=SimpleNamespace(l1=tuple(l1), l2=tuple(l2)),
    )


def _registers(*tracks):
    return SimpleNamespace(
        count=len(tracks), values_in=lambda index: tuple(tracks[index])
    )


SYNTHESIS_EDGES = {
    **{
        f"cost {value!r}": {"cost": CostBreakdown(alu=value, registers=1, mux=0.5)}
        for value in EDGE_FLOATS
    },
    "cost ints": {"cost": CostBreakdown(alu=2**70, registers=0, mux=3)},
    "cost int subclass": {"cost": CostBreakdown(alu=Count(4), registers=1, mux=2)},
    "cost object": {"cost": CostBreakdown(alu=1.0, registers=object(), mux=1.0)},
    "style float": {"style": 1.5},
    "style none": {"style": None},
    "style int subclass": {"style": Count(2)},
    "metric nan": {"mux_count": math.nan},
    "metric tuple": {"mux_inputs": (1, 2)},
    "no alus": {"binding": {}, "instances": {}, "registers": _registers()},
    "empty ops and muxes": {
        "instances": {("alu", 1): _instance(ops=(), l1=(), l2=())}
    },
    "instance index float": {"instances": {("alu", 1): _instance(index=1.0)}},
    "instance index subclass": {
        "instances": {("alu", 1): _instance(index=Count(1))}
    },
    "instance label int": {"instances": {("alu", 1): _instance(label=5)}},
    "mux signal none": {"instances": {("alu", 1): _instance(l2=(None, "b"))}},
    "mux signal object": {"instances": {("alu", 1): _instance(l1=(object(),))}},
    "instance keys unorderable": {
        "instances": {("alu", 1): _instance(), (2, "x"): _instance()}
    },
    "binding int keys": {"binding": {10: ("alu", 1), 9: ("alu", 2)}},
    "binding mixed keys": {"binding": {"t": ("alu", 1), 3: ("alu", 2)}},
    "binding float instance": {"binding": {"t": ("alu", 2.5)}},
    "binding tuple cell": {"binding": {"t": (("alu",), 1)}},
    "register values tuple": {"registers": _registers(["a", ("b",)])},
    "register values empty": {"registers": _registers([], ["x"])},
    "register values none": {"registers": _registers([None])},
}


@pytest.mark.parametrize("label", sorted(SYNTHESIS_EDGES))
def test_synthesis_edge_is_the_encoders(small_run, label):
    _schedule, synthesis = small_run
    twin = _patched_synthesis(synthesis, **SYNTHESIS_EDGES[label])
    assert outcome(synthesis_to_json, twin) == outcome(encoded_synthesis, twin)


@pytest.mark.parametrize("label", sorted(SCHEDULE_EDGES))
def test_synthesis_schedule_edge_is_the_encoders(small_run, label):
    schedule, synthesis = small_run
    fields = {
        name: value
        for name, value in SCHEDULE_EDGES[label].items()
        if name in ("cs", "starts", "dfg")
    }
    twin = _patched_synthesis(
        synthesis, schedule=_patched_schedule(schedule, **fields)
    )
    assert outcome(synthesis_to_json, twin) == outcome(encoded_synthesis, twin)


@pytest.mark.parametrize("indent", [None, 0, 1, 4, "\t"])
def test_other_layouts_are_the_encoders(small_run, indent):
    schedule, synthesis = small_run
    assert schedule_to_json(schedule, indent=indent) == json.dumps(
        reference_schedule_payload(schedule), indent=indent
    )
    assert synthesis_to_json(synthesis, indent=indent) == json.dumps(
        reference_synthesis_payload(synthesis), indent=indent
    )


def test_the_default_layouts_take_no_encoder(small_run, monkeypatch):
    """Scheduler output, and the payload around it, is spelled by the
    direct renderers alone: the encoder is the fallback, not the path."""
    schedule, synthesis = small_run
    payload = {
        "ok": True,
        "algorithm": "mfsa",
        "design": "small",
        "cs": synthesis.schedule.cs,
        "result": reference_synthesis_payload(synthesis),
        "checks_run": ["a"],
        "verified": True,
        "error": None,
        "scores": [1.5, -0.0, math.inf, 2, "x", None, False, ()],
    }
    expected = (
        encoded_schedule(schedule),
        encoded_synthesis(synthesis),
        encoded_response(payload),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the encoder was called")

    monkeypatch.setattr(jsonio.json, "dumps", refuse)
    assert (
        schedule_to_json(schedule),
        synthesis_to_json(synthesis),
        response_text(payload),
    ) == expected


# ----------------------------------------------------------------------
# The build-order walk both result documents take
# ----------------------------------------------------------------------
def build_order_outcomes(value):
    """The outcomes of ``schedule_to_json`` and ``synthesis_to_json`` on
    a document whose payload builder returns ``value``: the walk that
    keeps each dict's keys in the order they were set."""
    with mock.patch.multiple(
        jsonio,
        _schedule_payload=lambda _schedule: value,
        _synthesis_payload=lambda _result: value,
    ):
        return outcome(schedule_to_json, None), outcome(synthesis_to_json, None)


def encoded_in_build_order(value):
    return json.dumps(value, indent=2)


def assert_build_order_is_the_encoders(value):
    expected = outcome(encoded_in_build_order, value)
    assert build_order_outcomes(value) == (expected, expected)


json_keys = st.one_of(names, constants, floats, st.booleans(), st.none())


@given(value=json_values)
@settings(max_examples=200, deadline=None)
def test_any_value_in_build_order_is_the_encoders(value):
    assert_build_order_is_the_encoders(value)


@given(payload=st.dictionaries(json_keys, json_values, max_size=6))
@settings(max_examples=200, deadline=None)
def test_any_keys_in_build_order_are_the_encoders(payload):
    assert_build_order_is_the_encoders(payload)
    assert_build_order_is_the_encoders({"result": payload, "ok": [payload]})


@pytest.mark.parametrize("label", sorted(EDGE_VALUES))
def test_build_order_edge_value_is_the_encoders(label):
    value = EDGE_VALUES[label]
    for payload in (
        {"result": value, "ok": True},
        {"result": {"nested": [value, {"x": value}]}},
        [value],
        value,
    ):
        assert_build_order_is_the_encoders(payload)


@pytest.mark.parametrize("label", sorted(EDGE_KEYS))
def test_build_order_edge_keys_are_the_encoders(label):
    mapping = EDGE_KEYS[label]
    for payload in (mapping, {"result": mapping}, [mapping]):
        assert_build_order_is_the_encoders(payload)


def test_keys_keep_their_build_order():
    """Unlike the sorted walk: string keys stay unsorted, and 10 stays
    before 9."""
    assert build_order_outcomes({"b": {10: "ten", 9: "nine"}, "a": 1})[0] == (
        "text",
        '{\n  "b": {\n    "10": "ten",\n    "9": "nine"\n  },\n  "a": 1\n}',
    )


def test_mixed_keys_in_build_order_are_spelled_not_refused():
    """Only a key sort compares keys, so the encoder spells mixed keys."""
    payload = {"z": 1, 2: [], None: {}, True: 2.5, 1.5: "x", "a": None}
    assert_build_order_is_the_encoders(payload)
    assert build_order_outcomes(payload)[0] == (
        "text",
        '{\n  "z": 1,\n  "2": [],\n  "null": {},\n  "true": 2.5,\n'
        '  "1.5": "x",\n  "a": null\n}',
    )


def test_empty_containers_in_build_order():
    for payload, text in (
        ({}, "{}"),
        ([], "[]"),
        ((), "[]"),
        ({"a": {}, "b": [], "c": ()}, '{\n  "a": {},\n  "b": [],\n  "c": []\n}'),
    ):
        assert_build_order_is_the_encoders(payload)
        assert build_order_outcomes(payload)[0] == ("text", text)


def test_a_circular_payload_in_build_order_raises_the_encoders_error():
    payload = {"a": []}
    payload["a"].append(payload)
    assert_build_order_is_the_encoders(payload)
    assert build_order_outcomes(payload)[0][1] is ValueError
