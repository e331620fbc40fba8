"""Shared serve fixtures: requests admission must refuse at the edge,
and a request slow enough to hold later jobs in a service's queue."""

from __future__ import annotations

import json

import pytest

from repro.dfg.generators import layered_workload
from repro.io.jsonio import dfg_to_json
from repro.serve.jobs import CS_FLOOR


def one_op_design(kind: str, operands: int) -> dict:
    """A ``repro-dfg`` object with one ``kind`` node over ``operands`` inputs."""
    inputs = [f"i{index}" for index in range(operands)]
    return {
        "format": "repro-dfg",
        "version": 1,
        "name": "one_op",
        "inputs": inputs,
        "nodes": [
            {
                "name": "n0",
                "kind": kind,
                "operands": [{"input": name} for name in inputs],
                "branch": [],
            }
        ],
        "outputs": {"x": {"node": "n0"}},
    }


def branch_design(condition, arm) -> dict:
    """Two adds on opposite arms of ``condition`` (``n0`` takes ``arm``)."""
    design = one_op_design("add", 2)
    first = design["nodes"][0]
    first["branch"] = [[condition, arm]]
    second = dict(first, name="n1", branch=[[condition, False]])
    design["nodes"].append(second)
    design["outputs"]["y"] = {"node": "n1"}
    return design


def mixed_name_design(field: str) -> dict:
    """A design whose input (``field="inputs"``) or node (``"nodes"``)
    named 7 sits next to string names of the same role."""
    design = one_op_design("add", 2)
    if field == "inputs":
        design["inputs"] = ["i0", 7]
        design["nodes"][0]["operands"][1] = {"input": 7}
    else:
        design["nodes"][0]["name"] = 7
        design["nodes"].append(
            {
                "name": "n1",
                "kind": "add",
                "operands": [{"node": 7}, {"input": "i1"}],
                "branch": [],
            }
        )
        design["outputs"] = {"x": {"node": "n1"}}
    return design


def const_design(value) -> dict:
    """``i0 + value``: one add whose second operand is a constant."""
    design = one_op_design("add", 2)
    design["inputs"] = ["i0"]
    design["nodes"][0]["operands"][1] = {"const": value}
    return design


THREE_OPS = "input a b c\nt = a + b\nu = t * c\nx = u - a\noutput x\n"

#: Requests admission must refuse at the edge, because no worker could
#: run them or because running them buys nothing: name → (algorithm,
#: request body, fragment of the 400 message).
UNRUNNABLE = {
    "unknown-kind": (
        "mfs",
        {"dfg": one_op_design("frobnicate", 2)},
        "'frobnicate' is not registered",
    ),
    "wrong-arity": (
        "mfs",
        {"dfg": one_op_design("add", 3)},
        "'n0' (add) has 3 operands",
    ),
    "no-library-cell": (
        "mfsa",
        {"dfg": one_op_design("div", 2)},
        "no cell for kind 'div'",
    ),
    "non-string-condition": (
        "mfs",
        {"dfg": branch_design(["c"], True)},
        "node 'n0': branch condition must be a string",
    ),
    "non-boolean-arm": (
        "mfs",
        {"dfg": branch_design("c", "yes")},
        "node 'n0': branch arm must be true or false",
    ),
    # Mixed-type names would reach sorts in the fingerprint and the
    # worker; a coerced constant would share the integer design's key.
    "non-string-input": (
        "mfs",
        {"dfg": mixed_name_design("inputs")},
        "input name must be a string, got 7",
    ),
    "non-string-node": (
        "mfs",
        {"dfg": mixed_name_design("nodes")},
        "node name must be a string, got 7",
    ),
    "fractional-const": (
        "mfs",
        {"dfg": const_design(2.5)},
        "node 'n0': constant must be an integer, got 2.5",
    ),
    "boolean-const": (
        "mfs",
        {"dfg": const_design(True)},
        "node 'n0': constant must be an integer, got True",
    ),
    # Three unit-latency ops: the bound is the floor.
    "cs-beyond-bound": (
        "mfs",
        {"source": THREE_OPS, "cs": 100_000},
        f"'cs' must be <= {CS_FLOOR}",
    ),
    # A single-cycle 40 ns multiply cannot fit a 20 ns step.
    "clock-shorter-than-op": (
        "mfs",
        {"dfg": one_op_design("mul", 2), "clock_ns": 20},
        "operation kind 'mul' has delay 40.0 ns, longer than the clock "
        "period 20.0 ns",
    ),
}


@pytest.fixture
def unrunnable_requests():
    return UNRUNNABLE


@pytest.fixture(params=sorted(UNRUNNABLE))
def unrunnable(request):
    """``(algorithm, body, message)`` of one request admission refuses."""
    return UNRUNNABLE[request.param]


@pytest.fixture(scope="session")
def blocker_body():
    """An MFS request body that keeps a worker busy for about a second:
    a 400-op layered design at the largest ``cs`` admission allows it.
    Tests submit it first to hold the jobs after it in the queue."""
    design = layered_workload(seed=7, layers=20, width=20)
    return {"dfg": json.loads(dfg_to_json(design)), "cs": CS_FLOOR}
