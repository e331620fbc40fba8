"""Shared serve fixtures: designs admission must refuse at the edge."""

from __future__ import annotations

import pytest


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


#: Designs admission must refuse at the edge, because no worker could
#: run them: name → (algorithm, design, fragment of the 400 message).
UNRUNNABLE = {
    "unknown-kind": (
        "mfs",
        one_op_design("frobnicate", 2),
        "'frobnicate' is not registered",
    ),
    "wrong-arity": ("mfs", one_op_design("add", 3), "'n0' (add) has 3 operands"),
    "no-library-cell": ("mfsa", one_op_design("div", 2), "no cell for kind 'div'"),
    "non-string-condition": (
        "mfs",
        branch_design(["c"], True),
        "node 'n0': branch condition must be a string",
    ),
    "non-boolean-arm": (
        "mfs",
        branch_design("c", "yes"),
        "node 'n0': branch arm must be true or false",
    ),
}


@pytest.fixture
def unrunnable_designs():
    return UNRUNNABLE


@pytest.fixture(params=sorted(UNRUNNABLE))
def unrunnable(request):
    """``(algorithm, design, message)`` of one design admission refuses."""
    return UNRUNNABLE[request.param]
