"""Tests for the priority ordering rules (§3.2, §5.3)."""

from functools import cmp_to_key

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.priorities import _latest_predecessor_end, priority_order
from repro.dfg.analysis import (
    TimingModel,
    alap_schedule,
    asap_schedule,
    critical_path_length,
)
from repro.dfg.generators import random_conditional_dfg, random_dfg
from repro.dfg.builder import DFGBuilder
from repro.dfg.ops import OpKind, standard_operation_set
from repro.bench.suites import ewf, hal_diffeq


def order_of(dfg, timing, cs):
    asap = asap_schedule(dfg, timing)
    alap = alap_schedule(dfg, timing, cs)
    return priority_order(dfg, timing, asap, alap)


class TestBasicRules:
    def test_order_is_topological(self, timing):
        for g in (hal_diffeq(), ewf()):
            order = order_of(g, timing, cs=20)
            rank = {name: i for i, name in enumerate(order)}
            for node in g:
                for pred in node.predecessor_names():
                    assert rank[pred] < rank[node.name]

    def test_alap_step_is_primary_key(self, timing):
        g = hal_diffeq()
        asap = asap_schedule(g, timing)
        alap = alap_schedule(g, timing, 5)
        order = priority_order(g, timing, asap, alap)
        steps = [alap[name] for name in order]
        # ALAP steps may only deviate from sorted order where a dependence
        # forces it; for HAL at cs=5 they are exactly sorted.
        assert steps == sorted(steps)

    def test_lower_mobility_first_within_step(self, timing):
        b = DFGBuilder()
        x = b.input("x")
        # rigid: chain of 3 -> mobility 0 at cs=3
        r1 = b.op(OpKind.ADD, x, 1, name="r1")
        r2 = b.op(OpKind.ADD, r1, 1, name="r2")
        b.op(OpKind.ADD, r2, 1, name="r3")
        # loose: single op, mobility 2, ALAP step 3 like r3
        b.op(OpKind.ADD, x, 9, name="loose")
        g = b.build()
        order = order_of(g, timing, cs=3)
        assert order.index("r3") < order.index("loose")

    def test_insertion_order_breaks_full_ties(self, timing):
        b = DFGBuilder()
        x = b.input("x")
        b.op(OpKind.ADD, x, 1, name="first")
        b.op(OpKind.ADD, x, 2, name="second")
        g = b.build()
        order = order_of(g, timing, cs=1)
        assert order == ["first", "second"]

    def test_lower_mobility_beats_earlier_predecessor(self, timing):
        b = DFGBuilder()
        x = b.input("x")
        early = b.op(OpKind.ADD, x, 1, name="early")           # asap 1
        late_mid = b.op(OpKind.ADD, early, 1, name="mid")      # asap 2
        b.op(OpKind.MUL, early, x, name="child_of_early")      # asap 2, mob 2
        b.op(OpKind.MUL, late_mid, x, name="child_of_mid")     # asap 3, mob 1
        g = b.build()
        order = order_of(g, timing, cs=4)
        mults = [n for n in order if n.startswith("child")]
        # both have ALAP step 4; the lower-mobility operation goes first
        assert mults == ["child_of_mid", "child_of_early"]

    def test_latest_predecessor_end_helper(self, timing):
        from repro.core.priorities import _latest_predecessor_end
        from repro.dfg.analysis import asap_schedule

        b = DFGBuilder()
        x = b.input("x")
        p = b.op(OpKind.MUL, x, 1, name="p")
        b.op(OpKind.ADD, p, x, name="consumer")
        b.op(OpKind.ADD, x, x, name="orphan")
        g = b.build()
        asap = asap_schedule(g, timing)
        assert _latest_predecessor_end(g, timing, asap, "consumer") == 1
        assert _latest_predecessor_end(g, timing, asap, "orphan") == 0


class TestMulticycleInversion:
    def test_close_mobilities_invert(self, timing_mul2):
        b = DFGBuilder()
        x = b.input("x")
        # m_rigid: mobility 0 via a consumer chain; m_loose: mobility 1
        m_rigid = b.op(OpKind.MUL, x, 1, name="m_rigid")
        b.op(OpKind.ADD, m_rigid, 1, name="tail")
        b.op(OpKind.MUL, x, 2, name="m_loose")
        g = b.build()
        asap = asap_schedule(g, timing_mul2)
        alap = alap_schedule(g, timing_mul2, 3)
        # mobilities: m_rigid 0, m_loose 1 -> difference 1 < latency 2
        # but ALAP steps differ (1 vs 2) so the primary key decides; make
        # them share the ALAP step by widening cs and checking inversion
        alap4 = alap_schedule(g, timing_mul2, 4)
        mob = {n: alap4[n] - asap[n] for n in asap}
        if alap4["m_rigid"] == alap4["m_loose"]:
            order = priority_order(g, timing_mul2, asap, alap4)
            if abs(mob["m_rigid"] - mob["m_loose"]) < 2:
                # inverted: the MORE mobile multi-cycle op goes first
                assert order.index("m_loose") < order.index("m_rigid")

    def test_far_mobilities_follow_normal_rule(self, timing_mul2):
        b = DFGBuilder()
        x = b.input("x")
        rigid = b.op(OpKind.MUL, x, 1, name="rigid")
        chain = b.op(OpKind.ADD, rigid, 1, name="c1")
        chain = b.op(OpKind.ADD, chain, 1, name="c2")
        b.op(OpKind.MUL, x, 2, name="loose")
        g = b.build()
        asap = asap_schedule(g, timing_mul2)
        alap = alap_schedule(g, timing_mul2, 8)
        mob = {n: alap[n] - asap[n] for n in asap}
        assert abs(mob["rigid"] - mob["loose"]) >= 2
        # different ALAP steps here; just assert the order is topological
        order = priority_order(g, timing_mul2, asap, alap)
        assert order.index("rigid") < order.index("c1")


class TestChainedOrder:
    def test_same_alap_chained_pair_stays_topological(self, timing_chained):
        b = DFGBuilder()
        x = b.input("x")
        a = b.op(OpKind.ADD, x, 1, name="a")
        c = b.op(OpKind.ADD, a, 2, name="c")
        b.output("o", c)
        g = b.build()
        # with chaining both fit step 1; ALAP(a) == ALAP(c) == 1 at cs=1
        order = order_of(g, timing_chained, cs=1)
        assert order == ["a", "c"]


def linear_insertion_order(dfg, timing, asap, alap):
    """The priority order with its Kahn pass as first written: the same
    §5.3 ranking, then a ready list kept sorted by linear insertion and
    popped from the front (quadratic in the ready width)."""
    mobility = {name: alap[name] - asap[name] for name in asap}
    insertion = {name: i for i, name in enumerate(dfg.node_names())}
    pred_end = {
        name: _latest_predecessor_end(dfg, timing, asap, name) for name in asap
    }
    latency = {name: timing.latency(dfg.node(name).kind) for name in asap}

    def compare(p, q):
        if alap[p] != alap[q]:
            return -1 if alap[p] < alap[q] else 1
        lat_p, lat_q = latency[p], latency[q]
        mob_p, mob_q = mobility[p], mobility[q]
        if lat_p > 1 and lat_q > 1 and mob_p != mob_q:
            if abs(mob_p - mob_q) < max(lat_p, lat_q):
                return -1 if mob_p > mob_q else 1
        if mob_p != mob_q:
            return -1 if mob_p < mob_q else 1
        if pred_end[p] != pred_end[q]:
            return -1 if pred_end[p] < pred_end[q] else 1
        return -1 if insertion[p] < insertion[q] else 1

    ranked = sorted(dfg.node_names(), key=cmp_to_key(compare))
    rank = {name: i for i, name in enumerate(ranked)}
    in_degree = {name: len(dfg.predecessors(name)) for name in dfg.node_names()}
    ready = sorted(
        (name for name, deg in in_degree.items() if deg == 0),
        key=rank.__getitem__,
    )
    order = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for succ in dfg.successors(name):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                position = 0
                while position < len(ready) and rank[ready[position]] < rank[succ]:
                    position += 1
                ready.insert(position, succ)
    return order


#: Plain, chained (a 45-ns clock fits a multiply and chains up to four
#: adds, so dependent pairs share an ALAP step and the Kahn pass
#: reorders) and 2-cycle multipliers (the §5.3 inversion).
TIMINGS = {
    "plain": TimingModel(ops=standard_operation_set()),
    "chained": TimingModel(ops=standard_operation_set(), clock_period_ns=45.0),
    "mul2": TimingModel(ops=standard_operation_set(mul_latency=2)),
}

designs = st.one_of(
    st.builds(
        lambda seed, n_ops, locality: random_dfg(
            seed=seed, n_ops=n_ops, locality=locality
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=12),
    ),
    st.builds(
        lambda seed, n_ops: random_conditional_dfg(seed=seed, n_ops=n_ops),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=40),
    ),
)


@given(
    dfg=designs,
    timing=st.sampled_from(sorted(TIMINGS)),
    slack=st.integers(min_value=0, max_value=6),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_heap_kahn_pass_equals_linear_insertion(dfg, timing, slack):
    timing = TIMINGS[timing]
    cs = critical_path_length(dfg, timing) + slack
    asap = asap_schedule(dfg, timing)
    alap = alap_schedule(dfg, timing, cs)
    assert priority_order(dfg, timing, asap, alap) == linear_insertion_order(
        dfg, timing, asap, alap
    )
