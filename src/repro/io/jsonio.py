"""JSON serialisation of DFGs, schedules and synthesis results.

Round-trippable formats so designs and results can be stored, diffed and
exchanged:

* :func:`dfg_to_json` / :func:`dfg_from_json` — complete graph round trip
  (:func:`dfg_from_obj` decodes an already-parsed document);
* :func:`schedule_to_json` — schedule with FU usage (consumable without
  this library);
* :func:`synthesis_to_json` — the full MFSA result summary (ALUs,
  binding, registers, muxes, cost breakdown).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import DFGError
from repro.dfg.graph import DFG, BranchPath, Port
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


def _port_from_obj(obj: Dict[str, Any]) -> Port:
    if "const" in obj:
        value = obj["const"]
        # int() would turn true into 1 and truncate 2.5 to 2, and the
        # result would share the integer design's cache key.
        if not isinstance(value, bool) and not (
            isinstance(value, float) and not value.is_integer()
        ):
            try:
                return Port.const(int(value))
            except (TypeError, ValueError):
                pass
        raise DFGError(f"constant must be an integer, got {value!r}")
    if "input" in obj:
        return Port.input(_name(obj["input"], "input reference"))
    if "node" in obj:
        return Port.node(_name(obj["node"], "node reference"))
    raise DFGError(f"malformed port object: {obj!r}")


def _ports_from_obj(objs: Any, role: str, name: str) -> List[Port]:
    """Decode the ports of node or output ``name``; an error names it."""
    try:
        return [_port_from_obj(obj) for obj in objs]
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


def dfg_to_json(dfg: DFG, indent: Optional[int] = 2) -> str:
    """Serialise a DFG to JSON text."""
    payload = {
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
    return json.dumps(payload, indent=indent)


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
    for input_name in payload.get("inputs", []):
        dfg.add_input(_name(input_name, "input name"))
    for node in payload.get("nodes", []):
        name = _name(node["name"], "node name")
        dfg.add_op(
            node["kind"],
            _ports_from_obj(node["operands"], "node", name),
            name=name,
            branch=_branch_from_obj(name, node.get("branch", [])),
        )
    for out_name, obj in payload.get("outputs", {}).items():
        dfg.set_output(out_name, _ports_from_obj([obj], "output", out_name)[0])
    dfg.validate()
    return dfg


def schedule_to_json(schedule: Schedule, indent: Optional[int] = 2) -> str:
    """Serialise a schedule (one-way; includes derived metrics)."""
    payload = {
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
    return json.dumps(payload, indent=indent)


def synthesis_to_json(result, indent: Optional[int] = 2) -> str:
    """Serialise an :class:`~repro.core.mfsa.MFSAResult` summary."""
    datapath = result.datapath
    cost = datapath.cost_breakdown()
    payload = {
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
    return json.dumps(payload, indent=indent)
