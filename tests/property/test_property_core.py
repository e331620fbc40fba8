"""Property-based tests (hypothesis) for the core algorithms.

Strategy: generate random DFGs through the seeded generator (so shrinking
works on the seed/size space), then assert the library's global
invariants — schedule validity, Liapunov monotonicity, lower bounds,
simulator equivalence.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import random_conditional_dfg, random_dfg
from repro.dfg.ops import OpKind, standard_operation_set
from repro.library.ncr import datapath_library
from repro.sim.evaluator import evaluate_dfg
from repro.sim.executor import execute_schedule, verify_equivalence

OPS1 = standard_operation_set()
OPS2 = standard_operation_set(mul_latency=2)
TIMING1 = TimingModel(ops=OPS1)
TIMING2 = TimingModel(ops=OPS2)
LIBRARY = datapath_library()

dfg_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # seed
    st.integers(min_value=1, max_value=40),       # n_ops
    st.integers(min_value=1, max_value=6),        # n_inputs
    st.integers(min_value=1, max_value=12),       # locality
)

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(params=dfg_params, slack=st.integers(min_value=0, max_value=5))
@RELAXED
def test_mfs_schedules_are_always_valid(params, slack):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING1) + slack
    result = MFSScheduler(
        g, TIMING1, cs=cs, mode="time", record_alternatives=True
    ).run()
    result.schedule.validate()
    assert all(event.alternatives for event in result.trajectory)
    result.trajectory.verify()


@given(params=dfg_params)
@RELAXED
def test_mfs_meets_distribution_lower_bounds(params):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING1) + 2
    result = MFSScheduler(g, TIMING1, cs=cs, mode="time").run()
    for kind, count in g.count_by_kind().items():
        assert result.fu_counts.get(kind, 0) >= -(-count // cs)


@given(params=dfg_params)
@RELAXED
def test_mfs_schedule_execution_matches_reference(params):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING1) + 1
    result = MFSScheduler(g, TIMING1, cs=cs, mode="time").run()
    inputs = {name: (i * 13) % 31 - 7 for i, name in enumerate(g.inputs)}
    trace = execute_schedule(result.schedule, inputs)
    reference = evaluate_dfg(g, OPS1, inputs)
    for out in g.outputs:
        assert trace.outputs[out] == reference[out]


@given(params=dfg_params)
@RELAXED
def test_mfs_multicycle_schedules_valid(params):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING2) + 2
    result = MFSScheduler(g, TIMING2, cs=cs, mode="time").run()
    result.schedule.validate()


@given(
    params=dfg_params,
    budget_extra=st.integers(min_value=0, max_value=4),
)
@RELAXED
def test_mfs_budget_slack_never_requires_more_fus(params, budget_extra):
    """More control steps never *require* more hardware.

    The guarantee is about feasibility, not the heuristic's output: any
    schedule legal at the tight budget is legal, with the same FU
    counts, at every looser budget.  The greedy Liapunov descent itself
    is not strictly monotone — e.g. the 40-op ``random_dfg(seed=1503)``
    spends one extra FU when handed one extra step — so asserting
    ``sum(loose.fu_counts) <= sum(tight.fu_counts)`` over random DFGs
    is falsifiable and was (this test's previous, stronger form).
    """
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    base = critical_path_length(g, TIMING1)
    tight = MFSScheduler(g, TIMING1, cs=base, mode="time").run()
    padded = tight.schedule.copy()
    padded.cs = base + 1 + budget_extra
    padded.validate(resource_bounds=tight.fu_counts)
    assert padded.fu_usage() == tight.fu_counts


@given(seed=st.integers(min_value=0, max_value=10_000))
@RELAXED
def test_conditional_dfgs_schedule_validly(seed):
    g = random_conditional_dfg(seed=seed, n_ops=20)
    cs = critical_path_length(g, TIMING1) + 2
    result = MFSScheduler(g, TIMING1, cs=cs, mode="time").run()
    result.schedule.validate()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=24),
    style=st.sampled_from([1, 2]),
)
@settings(max_examples=25, deadline=None)
def test_mfsa_datapaths_are_functionally_equivalent(seed, n_ops, style):
    g = random_dfg(
        seed=seed,
        n_ops=n_ops,
        kinds=(OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.AND, OpKind.OR),
    )
    cs = critical_path_length(g, TIMING1) + 2
    result = MFSAScheduler(
        g, TIMING1, LIBRARY, cs=cs, style=style, record_alternatives=True
    ).run()
    result.schedule.validate()
    assert all(event.alternatives for event in result.trajectory)
    result.trajectory.verify()
    if style == 2:
        assert not result.datapath.has_self_loop()
    inputs = {name: (i * 7) % 19 - 4 for i, name in enumerate(g.inputs)}
    verify_equivalence(result.datapath, inputs)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=25, deadline=None)
def test_mfsa_register_count_is_optimal_for_its_schedule(seed, n_ops):
    from repro.allocation.registers import max_simultaneously_live

    g = random_dfg(seed=seed, n_ops=n_ops)
    cs = critical_path_length(g, TIMING1) + 1
    result = MFSAScheduler(g, TIMING1, LIBRARY, cs=cs).run()
    datapath = result.datapath
    assert datapath.register_count() == max_simultaneously_live(
        datapath.lifetimes.values()
    )
