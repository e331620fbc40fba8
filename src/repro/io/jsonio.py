"""JSON serialisation of DFGs, schedules and synthesis results.

Round-trippable formats so designs and results can be stored, diffed and
exchanged:

* :func:`dfg_to_json` / :func:`dfg_from_json` — complete graph round trip
  (:func:`dfg_from_obj` decodes an already-parsed document);
* :func:`schedule_to_json` — schedule with FU usage (consumable without
  this library);
* :func:`synthesis_to_json` — the full MFSA result summary (ALUs,
  binding, registers, muxes, cost breakdown);
* :func:`sorted_json` — ``json.dumps(value, sort_keys=True, indent=2)``,
  the layout of every service response.

Each document is built as a payload (``_dfg_payload``,
``_schedule_payload``, ``_synthesis_payload``), and ``json.dumps`` of
the payload is the reference and the fallback.  The compact design text
(what the service keys on) is rendered field by field; every indented
text is rendered by one walker, over the result document's payload in
the order its builder set the keys, or with sorted keys for
:func:`sorted_json` (see "One walker" below).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import DFGError
from repro.dfg.graph import DFG, BranchPath, Node, Port
from repro.schedule.types import Schedule

FORMAT_VERSION = 1


def _port_to_obj(port: Port) -> Dict[str, Any]:
    if port.is_const:
        return {"const": port.value}
    if port.is_input:
        return {"input": port.name}
    return {"node": port.name}


def _name(value: Any, what: str) -> str:
    """A design, input or node name, or a port's reference to one."""
    if not isinstance(value, str):
        raise DFGError(f"{what} must be a string, got {value!r}")
    return value


def _constant(value: Any) -> int:
    """The integer a ``{"const": value}`` port spells."""
    # int() would turn true into 1 and truncate 2.5 to 2, and the
    # result would share the integer design's cache key.
    if not isinstance(value, bool) and not (
        isinstance(value, float) and not value.is_integer()
    ):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise DFGError(f"constant must be an integer, got {value!r}")


class _Signals:
    """The one :class:`Port` of each signal a design has declared so far.

    Every reference to a declared input, an earlier node or a constant
    value gets that signal's Port, so a decode builds one Port per
    signal rather than one per use.  A reference to anything else gets a
    fresh Port and marks the design ``dangling``; :meth:`DFG.add_op`
    then raises its usual error for it.
    """

    def __init__(self) -> None:
        self.inputs: Dict[str, Port] = {}
        self.nodes: Dict[str, Port] = {}
        self.consts: Dict[int, Port] = {}
        self.dangling = False

    def port(self, obj: Dict[str, Any]) -> Port:
        if "const" in obj:
            value = _constant(obj["const"])
            port = self.consts.get(value)
            if port is None:
                port = self.consts[value] = Port.const(value)
            return port
        if "input" in obj:
            table, make = self.inputs, Port.input
            name = _name(obj["input"], "input reference")
        elif "node" in obj:
            table, make = self.nodes, Port.node
            name = _name(obj["node"], "node reference")
        else:
            raise DFGError(f"malformed port object: {obj!r}")
        port = table.get(name)
        if port is None:
            self.dangling = True
            port = make(name)
        return port

    def ports(self, objs: Any, role: str, name: str) -> List[Port]:
        """Decode the ports of node or output ``name``; an error names it."""
        try:
            return [self.port(obj) for obj in objs]
        except DFGError as error:
            raise DFGError(f"{role} {name!r}: {error}") from None


def _branch_from_obj(node: str, pairs: Any) -> BranchPath:
    """Decode ``[[condition, arm], ...]``: string conditions, boolean arms."""
    path = []
    for cond, arm in pairs:
        if not isinstance(cond, str):
            raise DFGError(
                f"node {node!r}: branch condition must be a string, got {cond!r}"
            )
        if not isinstance(arm, bool):
            raise DFGError(
                f"node {node!r}: branch arm must be true or false, got {arm!r}"
            )
        path.append((cond, arm))
    return tuple(path)


#: What ``json.dumps`` calls for a string; a C function where available.
_encode_str = json.encoder.encode_basestring_ascii

#: The encoder ``json.dumps(obj)`` builds, for fields of other types.
_JSON = json.JSONEncoder()


def _text(value: Any) -> str:
    """``json.dumps(value)``: strings, integers and booleans directly."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    return _JSON.encode(value)


def _key_text(key: Any) -> str:
    """The text ``json.dumps`` gives ``key`` as an object key."""
    if type(key) is str:
        return _encode_str(key)
    # JSON spells an int, float, bool or None key as a string (and
    # refuses any other); ``{key: null}`` lets the encoder apply that.
    return _JSON.encode({key: None})[1:-len(": null}")]


def _port_text(port: Port) -> str:
    if port.is_const:
        return f'{{"const": {_text(port.value)}}}'
    if port.is_input:
        return f'{{"input": {_text(port.name)}}}'
    return f'{{"node": {_text(port.name)}}}'


def _node_text(node: Node) -> str:
    operands = ", ".join([_port_text(port) for port in node.operands])
    branch = ", ".join(
        [f"[{_text(cond)}, {_text(arm)}]" for cond, arm in node.branch]
    )
    return (
        f'{{"name": {_text(node.name)}, "kind": {_text(node.kind)}, '
        f'"operands": [{operands}], "branch": [{branch}]}}'
    )


def _dfg_text(dfg: DFG) -> str:
    """``json.dumps(_dfg_payload(dfg))``, rendered field by field."""
    design = _text(dfg.name)
    inputs = ", ".join([_text(name) for name in dfg.inputs])
    nodes = ", ".join([_node_text(node) for node in dfg])
    outputs = ", ".join(
        [
            f"{_key_text(name)}: {_port_text(port)}"
            for name, port in dfg.outputs.items()
        ]
    )
    return (
        f'{{"format": "repro-dfg", "version": {FORMAT_VERSION}, '
        f'"name": {design}, "inputs": [{inputs}], '
        f'"nodes": [{nodes}], "outputs": {{{outputs}}}}}'
    )


def _dfg_payload(dfg: DFG) -> Dict[str, Any]:
    return {
        "format": "repro-dfg",
        "version": FORMAT_VERSION,
        "name": dfg.name,
        "inputs": list(dfg.inputs),
        "nodes": [
            {
                "name": node.name,
                "kind": node.kind,
                "operands": [_port_to_obj(p) for p in node.operands],
                "branch": [[cond, arm] for cond, arm in node.branch],
            }
            for node in dfg
        ],
        "outputs": {
            name: _port_to_obj(port) for name, port in dfg.outputs.items()
        },
    }


def dfg_to_json(dfg: DFG, indent: Optional[int] = 2) -> str:
    """Serialise a DFG to JSON text.

    The compact text (``indent=None``, what the service stores and keys
    on) is rendered directly; it equals ``json.dumps`` of the payload the
    indented layout dumps.
    """
    if indent is None:
        return _dfg_text(dfg)
    return json.dumps(_dfg_payload(dfg), indent=indent)


def dfg_from_json(text: str) -> DFG:
    """Reconstruct a DFG from :func:`dfg_to_json` output."""
    return dfg_from_obj(json.loads(text))


def dfg_from_obj(payload: Dict[str, Any]) -> DFG:
    """Reconstruct a DFG from an already-parsed ``repro-dfg`` document.

    Every check of :func:`dfg_from_json` applies; a caller holding the
    decoded object (an HTTP request body) skips the text round trip.
    """
    if payload.get("format") != "repro-dfg":
        raise DFGError("not a repro-dfg JSON document")
    if payload.get("version") != FORMAT_VERSION:
        raise DFGError(
            f"unsupported repro-dfg version {payload.get('version')!r}"
        )
    dfg = DFG(_name(payload.get("name", "dfg"), "design name"))
    signals = _Signals()
    for input_name in payload.get("inputs", []):
        name = _name(input_name, "input name")
        signals.inputs[name] = dfg.add_input(name)
    for node in payload.get("nodes", []):
        name = _name(node["name"], "node name")
        kind = node["kind"]
        operands = signals.ports(node["operands"], "node", name)
        branch = _branch_from_obj(name, node.get("branch", []))
        if signals.dangling or name in signals.nodes:
            # add_op raises the error this node deserves.
            port = dfg.add_op(kind, operands, name=name, branch=branch)
        else:
            port = dfg._add_node(name, kind, operands, branch)
        signals.nodes[name] = port
    for out_name, obj in payload.get("outputs", {}).items():
        dfg.set_output(out_name, signals.ports([obj], "output", out_name)[0])
    dfg.validate()
    return dfg


def _schedule_payload(schedule: Schedule) -> Dict[str, Any]:
    return {
        "format": "repro-schedule",
        "version": FORMAT_VERSION,
        "dfg": schedule.dfg.name,
        "cs": schedule.cs,
        "makespan": schedule.makespan(),
        "latency_l": schedule.latency_l,
        "pipelined_kinds": sorted(schedule.pipelined_kinds),
        "starts": dict(sorted(schedule.starts.items())),
        "fu_usage": schedule.fu_usage(),
    }


def _synthesis_payload(result) -> Dict[str, Any]:
    datapath = result.datapath
    cost = datapath.cost_breakdown()
    return {
        "format": "repro-synthesis",
        "version": FORMAT_VERSION,
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


# ----------------------------------------------------------------------
# One walker for the indented texts
# ----------------------------------------------------------------------
# ``json.dumps`` runs its C encoder only when ``indent`` is None, and
# every result text is indented, so one walker builds the ``indent=2``
# text from strings instead, with two key orders: sorted for
# :func:`sorted_json`, and for the result documents the order their
# payload builder set the keys in, so each document's fields are listed
# only in its builder.  The walker spells strings, exact ints and floats,
# booleans and None, and string-keyed dicts, lists and tuples of those.
# On anything else it raises (``_encode_str`` raises TypeError on a key
# that is not a string), and the caller renders the whole document with
# ``json.dumps``, so every text and every error stays the encoder's.

_INFINITY = float("inf")


def _float_text(value: float) -> str:
    """``json.dumps(value)`` of a float: its repr, or the encoder's
    ``NaN``, ``Infinity`` and ``-Infinity``."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


#: Exact type of a scalar → its ``json.dumps`` spelling.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


class _Unrendered(Exception):
    """A value the walker leaves to the encoder."""


def _scalar(value: Any) -> str:
    spell = _SCALARS.get(type(value))
    if spell is None:
        raise _Unrendered(type(value).__name__)
    return spell(value)


def _parts(value: Any, pad: str, out: List[str], sort_keys: bool) -> None:
    """Append the pieces of ``json.dumps(value, sort_keys=sort_keys,
    indent=2)`` to ``out``, ``value`` nested at ``pad``."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        lead, sep = "{" + inner, "," + inner
        for key in sorted(value) if sort_keys else value:
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(f"{lead}{_encode_str(key)}: {_encode_str(item)}")
            elif kind is int:
                out.append(f"{lead}{_encode_str(key)}: {item}")
            elif kind is dict or kind is list or kind is tuple:
                out.append(f"{lead}{_encode_str(key)}: ")
                _parts(item, inner, out, sort_keys)
            else:
                out.append(f"{lead}{_encode_str(key)}: {_scalar(item)}")
            lead = sep
        out.append(pad + "}")
    elif kind is list or kind is tuple:
        names = _names_list(value, pad)
        if names:
            out.append(names)
            return
        inner = pad + "  "
        lead, sep = "[" + inner, "," + inner
        for item in value:
            kind = type(item)
            if kind is dict or kind is list or kind is tuple:
                out.append(lead)
                _parts(item, inner, out, sort_keys)
            else:
                out.append(lead + _scalar(item))
            lead = sep
        out.append(pad + "]")
    else:
        out.append(_scalar(value))


def _names_list(values: Any, pad: str) -> str:
    """An indented list of strings (``[]`` if empty), or ``""`` if it
    holds anything else."""
    if not values:
        return "[]"
    inner = pad + "  "
    try:
        names = ("," + inner).join(map(_encode_str, values))
    except TypeError:
        return ""
    return "[" + inner + names + pad + "]"


def _indented(value: Any, sort_keys: bool) -> str:
    """``json.dumps(value, sort_keys=sort_keys, indent=2)``, walked
    directly; a value the walk does not spell, a key that is not a
    string, or a failed key sort takes the encoder instead."""
    out: List[str] = []
    try:
        _parts(value, "\n", out, sort_keys)
    except Exception:
        return json.dumps(value, sort_keys=sort_keys, indent=2)
    return "".join(out)


def sorted_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, rendered directly.

    The layout of every response text (:func:`repro.serve.jobs.
    response_text`).
    """
    return _indented(value, True)


def _document(payload: Dict[str, Any], indent: Optional[int]) -> str:
    """``json.dumps(payload, indent=indent)``; the default ``indent=2``
    is walked directly, with keys in the order the builder set them."""
    if type(indent) is int and indent == 2:
        return _indented(payload, False)
    return json.dumps(payload, indent=indent)


def schedule_to_json(schedule: Schedule, indent: Optional[int] = 2) -> str:
    """Serialise a schedule (one-way; includes derived metrics).

    The text is ``json.dumps`` of the payload at any ``indent``; the
    default ``indent=2`` is walked directly.
    """
    return _document(_schedule_payload(schedule), indent)


def synthesis_to_json(result, indent: Optional[int] = 2) -> str:
    """Serialise an :class:`~repro.core.mfsa.MFSAResult` summary,
    rendered like :func:`schedule_to_json`."""
    return _document(_synthesis_payload(result), indent)
