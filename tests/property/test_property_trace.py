"""Property-based tests (hypothesis) for the trace layer.

Strategy: random DFGs through the seeded generator, traced through
MFS/MFSA, then assert the trace-layer invariants — JSONL round-trip
identity, schema validity, a clean replayed §2.2 descent audit, and
per-node monotone non-increasing replayed energy sequences.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import random_dfg
from repro.dfg.ops import standard_operation_set
from repro.library.ncr import datapath_library
from repro.trace import (
    TraceRecorder,
    check_descent,
    node_energy_sequences,
    parse_jsonl,
    split_runs,
    validate_events,
)

TIMING = TimingModel(ops=standard_operation_set())
LIBRARY = datapath_library()

dfg_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # seed
    st.integers(min_value=1, max_value=25),       # n_ops
    st.integers(min_value=1, max_value=6),        # n_inputs
    st.integers(min_value=1, max_value=12),       # locality
)

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def traced_run(params, scheduler, slack=1):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING) + slack
    trace = TraceRecorder()
    if scheduler == "mfs":
        MFSScheduler(g, TIMING, cs=cs, mode="time", trace=trace).run()
    else:
        MFSAScheduler(g, TIMING, LIBRARY, cs=cs, trace=trace).run()
    return trace


@given(params=dfg_params, slack=st.integers(min_value=0, max_value=4))
@RELAXED
def test_mfs_trace_roundtrips_and_validates(params, slack):
    trace = traced_run(params, "mfs", slack)
    events = parse_jsonl(trace.to_jsonl())
    assert events == trace.events()
    assert validate_events(events) == []


@given(params=dfg_params)
@RELAXED
def test_mfsa_trace_roundtrips_and_validates(params):
    trace = traced_run(params, "mfsa")
    events = parse_jsonl(trace.to_jsonl())
    assert events == trace.events()
    assert validate_events(events) == []


@given(params=dfg_params)
@RELAXED
def test_mfsa_replayed_descent_is_clean(params):
    trace = traced_run(params, "mfsa")
    assert check_descent(parse_jsonl(trace.to_jsonl())) == []


@given(params=dfg_params, slack=st.integers(min_value=0, max_value=4))
@RELAXED
def test_replayed_node_energies_are_monotone_non_increasing(params, slack):
    """§2.2: once an operation's energy is priced, later repricings of the
    same operation (after other commits shrank the frames) never raise it.
    """
    trace = traced_run(params, "mfs", slack)
    for run in split_runs(parse_jsonl(trace.to_jsonl())):
        for energies in node_energy_sequences(run).values():
            assert all(a >= b for a, b in zip(energies, energies[1:]))
