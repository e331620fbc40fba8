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

The compact design text and the indented result texts are rendered
directly, with ``json.dumps`` of the same payload as the reference and
the fallback (see "Direct renderers" below).
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
# Direct renderers of the indented texts
# ----------------------------------------------------------------------
# ``json.dumps`` runs its C encoder only when ``indent`` is None, and
# every result text is indented, so these renderers build the text from
# strings instead.  They spell strings, exact ints and floats, booleans
# and None, and string-keyed dicts and lists of those.  On anything else
# they raise (``_encode_str`` raises TypeError on a key that is not a
# string), and the caller renders the whole document with
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
    """A value the direct renderers leave to the encoder."""


def _scalar(value: Any) -> str:
    spell = _SCALARS.get(type(value))
    if spell is None:
        raise _Unrendered(type(value).__name__)
    return spell(value)


#: Line breaks of the second, third and fourth nesting levels.
_PAD1, _PAD2, _PAD3 = "\n  ", "\n    ", "\n      "


def _block(items: List[str], pad: str, brackets: str) -> str:
    """Rendered ``items`` one level inside ``pad``, in ``brackets``."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _scalar_list(values: Any, pad: str) -> str:
    """A list of scalars; a list of names (strings) takes the short way."""
    return _names_list(values, pad) or _block(
        [_scalar(value) for value in values], pad, "[]"
    )


def _scalar_dict(items: Any, pad: str) -> str:
    """A dict of scalars; integers take the short way."""
    return _block(
        [
            f"{_encode_str(key)}: "
            f"{value if type(value) is int else _scalar(value)}"
            for key, value in items
        ],
        pad,
        "{}",
    )


def _schedule_text(schedule: Schedule) -> str:
    """``json.dumps(_schedule_payload(schedule), indent=2)``."""
    return _block(
        [
            '"format": "repro-schedule"',
            f'"version": {FORMAT_VERSION}',
            f'"dfg": {_scalar(schedule.dfg.name)}',
            f'"cs": {_scalar(schedule.cs)}',
            f'"makespan": {_scalar(schedule.makespan())}',
            f'"latency_l": {_scalar(schedule.latency_l)}',
            '"pipelined_kinds": '
            + _scalar_list(sorted(schedule.pipelined_kinds), _PAD1),
            '"starts": ' + _scalar_dict(sorted(schedule.starts.items()), _PAD1),
            '"fu_usage": ' + _scalar_dict(schedule.fu_usage().items(), _PAD1),
        ],
        "\n",
        "{}",
    )


def _alu_text(instance) -> str:
    return _block(
        [
            f'"cell": {_scalar(instance.cell.name)}',
            f'"label": {_scalar(instance.cell.label())}',
            f'"instance": {_scalar(instance.index)}',
            '"ops": ' + _scalar_list(instance.ops, _PAD3),
            '"mux_l1": ' + _scalar_list(instance.mux.l1, _PAD3),
            '"mux_l2": ' + _scalar_list(instance.mux.l2, _PAD3),
        ],
        _PAD2,
        "{}",
    )


def _synthesis_text(result) -> str:
    """``json.dumps(_synthesis_payload(result), indent=2)``."""
    schedule = result.schedule
    datapath = result.datapath
    registers = datapath.registers
    cost = datapath.cost_breakdown()
    binding = [
        f'{_encode_str(name)}: {{{_PAD3}"cell": {_scalar(key[0])},'
        f'{_PAD3}"instance": {_scalar(key[1])}{_PAD2}}}'
        for name, key in sorted(datapath.binding.items())
    ]
    return _block(
        [
            '"format": "repro-synthesis"',
            f'"version": {FORMAT_VERSION}',
            f'"dfg": {_scalar(schedule.dfg.name)}',
            f'"cs": {_scalar(schedule.cs)}',
            f'"style": {_scalar(result.style)}',
            '"starts": ' + _scalar_dict(sorted(schedule.starts.items()), _PAD1),
            '"binding": ' + _block(binding, _PAD1, "{}"),
            '"alus": '
            + _block(
                [
                    _alu_text(instance)
                    for _key, instance in sorted(datapath.instances.items())
                ],
                _PAD1,
                "[]",
            ),
            '"registers": '
            + _block(
                [
                    f'"r{index}": '
                    + _scalar_list(registers.values_in(index), _PAD2)
                    for index in range(registers.count)
                ],
                _PAD1,
                "{}",
            ),
            '"cost": '
            + _scalar_dict(
                [
                    ("alu", cost.alu),
                    ("registers", cost.registers),
                    ("mux", cost.mux),
                    ("total", cost.total),
                ],
                _PAD1,
            ),
            '"metrics": '
            + _scalar_dict(
                [
                    ("register_count", datapath.register_count()),
                    ("mux_count", datapath.mux_count()),
                    ("mux_inputs", datapath.mux_inputs()),
                ],
                _PAD1,
            ),
        ],
        "\n",
        "{}",
    )


def _sorted_parts(value: Any, pad: str, out: List[str]) -> None:
    """Append the pieces of ``json.dumps(value, sort_keys=True,
    indent=2)`` to ``out``, ``value`` nested at ``pad``."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        lead, sep = "{" + inner, "," + inner
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(f"{lead}{_encode_str(key)}: {_encode_str(item)}")
            elif kind is int:
                out.append(f"{lead}{_encode_str(key)}: {item}")
            elif kind is dict or kind is list or kind is tuple:
                out.append(f"{lead}{_encode_str(key)}: ")
                _sorted_parts(item, inner, out)
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
                _sorted_parts(item, inner, out)
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


def sorted_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, rendered directly.

    The layout of every response text (:func:`repro.serve.jobs.
    response_text`).  A value the direct walk does not spell, a key that
    is not a string, or a failed key sort takes the encoder instead.
    """
    out: List[str] = []
    try:
        _sorted_parts(value, "\n", out)
    except Exception:
        return json.dumps(value, sort_keys=True, indent=2)
    return "".join(out)


def schedule_to_json(schedule: Schedule, indent: Optional[int] = 2) -> str:
    """Serialise a schedule (one-way; includes derived metrics).

    The default ``indent=2`` text is rendered directly; it equals
    ``json.dumps`` of the payload, which renders every other layout and
    any schedule holding a field the direct renderer does not spell.
    """
    if type(indent) is int and indent == 2:
        try:
            return _schedule_text(schedule)
        except Exception:
            pass
    return json.dumps(_schedule_payload(schedule), indent=indent)


def synthesis_to_json(result, indent: Optional[int] = 2) -> str:
    """Serialise an :class:`~repro.core.mfsa.MFSAResult` summary.

    Rendered like :func:`schedule_to_json`: directly at ``indent=2``,
    else (and on any field the direct renderer does not spell) through
    ``json.dumps`` of the payload.
    """
    if type(indent) is int and indent == 2:
        try:
            return _synthesis_text(result)
        except Exception:
            pass
    return json.dumps(_synthesis_payload(result), indent=indent)
