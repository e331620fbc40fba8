"""Property test: every MFS/MFSA run passes the repro.check audit.

This is the acceptance property of the invariant-checker subsystem —
whatever DFG the seeded generator produces, the full audit (schedule
legality, frame containment, grid occupancy, Liapunov descent, and for
MFSA datapath/netlist consistency) finds nothing to complain about.  A
smaller differential batch cross-validates against the baseline
schedulers as well.  Every run records its move-frame alternatives,
which the §2.2 argmin audit compares the chosen energy with.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import check_mfs_result, check_mfsa_result
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import random_conditional_dfg, random_dfg
from repro.dfg.ops import standard_operation_set
from repro.library.ncr import datapath_library

TIMING1 = TimingModel(ops=standard_operation_set())
TIMING2 = TimingModel(ops=standard_operation_set(mul_latency=2))
LIBRARY = datapath_library()

dfg_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # seed
    st.integers(min_value=1, max_value=32),       # n_ops
    st.integers(min_value=1, max_value=6),        # n_inputs
    st.integers(min_value=1, max_value=12),       # locality
)

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(params=dfg_params, slack=st.integers(min_value=0, max_value=4))
@RELAXED
def test_mfs_results_pass_full_audit(params, slack):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING1) + slack
    result = MFSScheduler(
        g, TIMING1, cs=cs, mode="time", record_alternatives=True
    ).run()
    report = check_mfs_result(result)
    assert report.ok, report.render()


@given(params=dfg_params)
@RELAXED
def test_mfs_multicycle_results_pass_full_audit(params):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING2) + 1
    result = MFSScheduler(
        g, TIMING2, cs=cs, mode="time", record_alternatives=True
    ).run()
    report = check_mfs_result(result)
    assert report.ok, report.render()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_conditional_mfs_results_pass_full_audit(seed):
    g = random_conditional_dfg(seed=seed, n_ops=18)
    cs = critical_path_length(g, TIMING1) + 2
    result = MFSScheduler(
        g, TIMING1, cs=cs, mode="time", record_alternatives=True
    ).run()
    report = check_mfs_result(result)
    assert report.ok, report.render()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=24),
    style=st.sampled_from([1, 2]),
)
@settings(max_examples=20, deadline=None)
def test_mfsa_results_pass_full_audit(seed, n_ops, style):
    g = random_dfg(seed=seed, n_ops=n_ops)
    cs = critical_path_length(g, TIMING1) + 2
    result = MFSAScheduler(
        g, TIMING1, LIBRARY, cs=cs, style=style, record_alternatives=True
    ).run()
    report = check_mfsa_result(result)
    assert report.ok, report.render()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=10, deadline=None)
def test_mfs_results_survive_differential_cross_validation(seed, n_ops):
    g = random_dfg(seed=seed, n_ops=n_ops)
    cs = critical_path_length(g, TIMING1) + 1
    result = MFSScheduler(
        g, TIMING1, cs=cs, mode="time", record_alternatives=True
    ).run()
    report = check_mfs_result(result, differential=True)
    assert report.ok, report.render()
