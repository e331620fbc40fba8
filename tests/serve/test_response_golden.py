"""Response-byte goldens: what a job answers stays byte-identical.

``tests/golden/responses.json`` pins ``response_text`` of the payload
``execute_spec`` returns — the exact text the caches store, journals
replay and ``GET /v1/jobs/<id>/result`` answers — for:

* the six paper examples: MFS at the first Table-1 case, MFSA styles 1
  and 2 at the Table-2 row;
* ``ex6`` (EWF) with ``verify=1`` under MFS and MFSA, and MFSA with
  ``trace=1``;
* a 100-op layered MFSA style-1 run at 40 steps of slack, whose large
  frames take the vector walk;
* ``ex1`` at ``cs`` 1, below its critical path: the failed payload.

A diff here changes what clients and stored results see.  Refresh only
after a deliberate change of the answers::

    PYTHONPATH=src python -c "
    import json
    from tests.serve.test_response_golden import responses
    open('tests/golden/responses.json', 'w').write(
        json.dumps(responses(), indent=1, sort_keys=True) + '\\n')
    "
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.suites import EXAMPLES
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import layered_workload
from repro.dfg.ops import standard_operation_set
from repro.io.jsonio import dfg_to_json
from repro.serve.jobs import execute_spec, normalize_spec, response_text

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"


def _body(dfg, cs, mul_latency=1, clock_ns=None, latency_l=None, pipelined=()):
    body = {"dfg": json.loads(dfg_to_json(dfg)), "cs": cs, "mul_latency": mul_latency}
    if clock_ns is not None:
        body["clock_ns"] = clock_ns
    if latency_l is not None:
        body["latency_l"] = latency_l
    if pipelined:
        body["pipelined"] = list(pipelined)
    return body


def mfs_body(key):
    """The first Table-1 case of example ``key``."""
    example = EXAMPLES[key]
    case = example.table1_cases[0]
    return _body(
        example.build(),
        case.cs,
        case.mul_latency,
        case.clock_ns,
        case.latency_l,
        case.pipelined_kinds,
    )


def mfsa_body(key, style):
    """The Table-2 row of example ``key`` in ``style``."""
    example = EXAMPLES[key]
    body = _body(
        example.build(),
        example.mfsa_cs,
        example.mfsa_mul_latency,
        example.mfsa_clock_ns,
    )
    return dict(body, style=style)


def cases():
    """``(label, algorithm, body, flags)`` of every pinned response."""
    for key in sorted(EXAMPLES):
        yield f"{key}/mfs", "mfs", mfs_body(key), {}
        for style in (1, 2):
            yield f"{key}/mfsa/s{style}", "mfsa", mfsa_body(key, style), {}
    yield "ex6/mfs/verify", "mfs", mfs_body("ex6"), {"verify": True}
    yield "ex6/mfsa/s1/verify", "mfsa", mfsa_body("ex6", 1), {"verify": True}
    yield "ex6/mfsa/s1/trace", "mfsa", mfsa_body("ex6", 1), {"trace": True}
    layered = layered_workload(seed=7, layers=5, width=20)
    cs = critical_path_length(layered, TimingModel(ops=standard_operation_set()))
    yield (
        f"layered/mfsa/s1/cs{cs + 40}",
        "mfsa",
        dict(_body(layered, cs + 40), style=1),
        {},
    )
    yield "ex1/mfs/cs1", "mfs", dict(mfs_body("ex1"), cs=1), {}


def responses():
    """label → ``response_text`` of every pinned job."""
    return {
        label: response_text(
            execute_spec(normalize_spec(algorithm, body, **flags))[0]
        )
        for label, algorithm, body, flags in cases()
    }


def golden():
    return json.loads((GOLDEN / "responses.json").read_text())


@pytest.fixture(scope="module")
def answered():
    return responses()


def test_every_response_is_byte_identical(answered):
    pinned = golden()
    assert sorted(answered) == sorted(pinned)
    for label, text in answered.items():
        assert text == pinned[label], label


def test_golden_covers_the_named_payloads(answered):
    """The pinned set holds a verified, a traced and a failed answer."""
    loaded = {label: json.loads(text) for label, text in answered.items()}
    assert loaded["ex6/mfs/verify"]["verified"] is True
    assert loaded["ex6/mfsa/s1/verify"]["verified"] is True
    assert loaded["ex6/mfsa/s1/trace"]["trace_jsonl"]
    failed = loaded["ex1/mfs/cs1"]
    assert failed["ok"] is False
    assert failed["error"]["type"] == "InfeasibleScheduleError"
