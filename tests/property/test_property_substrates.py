"""Property-based tests for the substrate layers (analysis, allocation)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.lifetimes import Lifetime
from repro.allocation.mux import MuxOperand, optimize_mux_inputs
from repro.allocation.registers import (
    IncrementalRegisterEstimator,
    left_edge_allocate,
    max_simultaneously_live,
)
from repro.dfg.analysis import (
    TimingModel,
    alap_schedule,
    asap_schedule,
    critical_path_length,
)
from repro.dfg.generators import random_dfg
from repro.dfg.ops import standard_operation_set
from repro.schedule.types import Schedule

OPS1 = standard_operation_set()
OPS2 = standard_operation_set(mul_latency=2)
TIMING1 = TimingModel(ops=OPS1)
TIMING2 = TimingModel(ops=OPS2)
# 45 ns clock: fits the 40 ns multiply, chains up to four 10 ns adds.
TIMING_CHAINED = TimingModel(ops=OPS1, clock_period_ns=45.0)

RELAXED = settings(max_examples=50, deadline=None)


# ----------------------------------------------------------------------
# ASAP/ALAP properties
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=40),
    slack=st.integers(min_value=0, max_value=6),
    timing=st.sampled_from([TIMING1, TIMING2, TIMING_CHAINED]),
)
@RELAXED
def test_asap_alap_sandwich(seed, n_ops, slack, timing):
    """ASAP <= ALAP everywhere, and both are valid schedules."""
    g = random_dfg(seed=seed, n_ops=n_ops)
    cs = critical_path_length(g, timing) + slack
    asap = asap_schedule(g, timing)
    alap = alap_schedule(g, timing, cs)
    for name in g.node_names():
        assert asap[name] <= alap[name]
    Schedule(dfg=g, timing=timing, cs=cs, starts=asap).validate()
    Schedule(dfg=g, timing=timing, cs=cs, starts=alap).validate()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=40),
)
@RELAXED
def test_alap_at_critical_path_pins_some_op(seed, n_ops):
    """With cs == critical path there is at least one zero-mobility op."""
    g = random_dfg(seed=seed, n_ops=n_ops)
    cs = critical_path_length(g, TIMING1)
    asap = asap_schedule(g, TIMING1)
    alap = alap_schedule(g, TIMING1, cs)
    assert any(asap[name] == alap[name] for name in asap)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=40),
    slack=st.integers(min_value=1, max_value=6),
)
@RELAXED
def test_alap_shifts_linearly_with_budget(seed, n_ops, slack):
    g = random_dfg(seed=seed, n_ops=n_ops)
    cs = critical_path_length(g, TIMING1)
    base = alap_schedule(g, TIMING1, cs)
    shifted = alap_schedule(g, TIMING1, cs + slack)
    for name in base:
        assert shifted[name] == base[name] + slack


# ----------------------------------------------------------------------
# register allocation properties
# ----------------------------------------------------------------------
lifetime_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=8),
    ),
    min_size=0,
    max_size=40,
)


@given(raw=lifetime_lists)
@RELAXED
def test_left_edge_is_optimal_and_conflict_free(raw):
    lifetimes = [
        Lifetime(f"v{i}", birth, birth + span)
        for i, (birth, span) in enumerate(raw)
    ]
    allocation = left_edge_allocate(lifetimes)
    assert allocation.count == max_simultaneously_live(lifetimes)
    for track in allocation.tracks:
        for i, first in enumerate(track):
            for second in track[i + 1:]:
                assert not first.overlaps(second)


class MemberScanEstimator:
    """f_REG by first fit over explicit member lists: every candidate is
    overlap-tested against every stored value, and a probe deep-copies
    the tracks it packs into."""

    def __init__(self):
        self.tracks = []
        self.known = set()

    @staticmethod
    def first_fit(tracks, life):
        """Place ``life``; whether it opened a new track."""
        for track in tracks:
            if not any(life.overlaps(other) for other in track):
                track.append(life)
                return False
        tracks.append([life])
        return True

    def cost_of(self, lifetimes):
        tracks = [list(track) for track in self.tracks]
        return sum(
            self.first_fit(tracks, life)
            for life in lifetimes
            if life.needs_register and life.value not in self.known
        )

    def commit(self, lifetimes):
        for life in lifetimes:
            if life.needs_register and life.value not in self.known:
                self.known.add(life.value)
                self.first_fit(self.tracks, life)


estimator_steps = st.lists(
    st.tuples(
        st.booleans(),  # commit (else probe)
        st.lists(  # the batch: value, birth, span (0 is degenerate)
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=1,
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=40,
)


@given(steps=estimator_steps)
@RELAXED
def test_indexed_register_estimate_matches_member_scan(steps):
    """Values are drawn from a small pool, so probes meet already-stored
    signals; ``count`` follows the reference and no probe moves it."""
    estimator = IncrementalRegisterEstimator()
    reference = MemberScanEstimator()
    for commit, raw in steps:
        batch = [
            Lifetime(f"v{value}", birth, birth + span)
            for value, birth, span in raw
        ]
        count = estimator.count
        assert estimator.cost_of(batch) == reference.cost_of(batch)
        assert estimator.count == count
        if commit:
            estimator.commit(batch)
            reference.commit(batch)
        assert estimator.count == len(reference.tracks)


@given(raw=lifetime_lists)
@RELAXED
def test_every_real_lifetime_assigned(raw):
    lifetimes = [
        Lifetime(f"v{i}", birth, birth + span)
        for i, (birth, span) in enumerate(raw)
    ]
    allocation = left_edge_allocate(lifetimes)
    for life in lifetimes:
        if life.needs_register:
            assert life.value in allocation.assignment
        else:
            assert life.value not in allocation.assignment


# ----------------------------------------------------------------------
# mux optimiser properties
# ----------------------------------------------------------------------
mux_cases = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # left signal id
        st.integers(min_value=0, max_value=5),  # right signal id
        st.booleans(),  # commutative
    ),
    min_size=1,
    max_size=10,
)


@given(case=mux_cases)
@RELAXED
def test_mux_assignment_routes_every_operand(case):
    operands = [
        MuxOperand(op=f"o{i}", left=f"s{l}", right=f"s{r}", commutative=c)
        for i, (l, r, c) in enumerate(case)
    ]
    assignment = optimize_mux_inputs(operands)
    for item in operands:
        left_port = assignment.port_of(item.op, textual_left=True)
        right_port = assignment.port_of(item.op, textual_left=False)
        l_list = assignment.l1 if left_port == 1 else assignment.l2
        r_list = assignment.l1 if right_port == 1 else assignment.l2
        assert item.left in l_list
        assert item.right in r_list


@given(case=mux_cases)
@RELAXED
def test_mux_assignment_never_exceeds_naive(case):
    operands = [
        MuxOperand(op=f"o{i}", left=f"s{l}", right=f"s{r}", commutative=c)
        for i, (l, r, c) in enumerate(case)
    ]
    assignment = optimize_mux_inputs(operands)
    naive = len({o.left for o in operands}) + len({o.right for o in operands})
    assert assignment.total_inputs <= naive


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=30),
)
@RELAXED
def test_json_round_trip_preserves_everything(seed, n_ops):
    from repro.io.jsonio import dfg_from_json, dfg_to_json

    g = random_dfg(seed=seed, n_ops=n_ops)
    restored = dfg_from_json(dfg_to_json(g, indent=None))
    assert restored.node_names() == g.node_names()
    assert restored.inputs == g.inputs
    assert restored.outputs == g.outputs
    for node in g:
        other = restored.node(node.name)
        assert (other.kind, other.operands, other.branch) == (
            node.kind,
            node.operands,
            node.branch,
        )


@given(case=mux_cases)
@RELAXED
def test_noncommutative_operands_never_swapped(case):
    operands = [
        MuxOperand(op=f"o{i}", left=f"s{l}", right=f"s{r}", commutative=c)
        for i, (l, r, c) in enumerate(case)
    ]
    assignment = optimize_mux_inputs(operands)
    for item in operands:
        if not item.commutative:
            assert assignment.swapped[item.op] is False
