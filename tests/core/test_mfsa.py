"""Tests for the MFSA mixed scheduling-allocation algorithm (§4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.mux import MuxOperand, optimize_mux_inputs
from repro.core.liapunov import LiapunovWeights
from repro.core.mfsa import MFSAScheduler, _AllocationState, mfsa_synthesize
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.builder import DFGBuilder
from repro.dfg.generators import random_dfg
from repro.dfg.graph import DFG
from repro.dfg.ops import OpKind, standard_operation_set
from repro.errors import ScheduleError
from repro.library.cells import ALUCell, CellLibrary
from repro.library.ncr import datapath_library, simple_fu_library
from repro.perf import PerfCounters
from repro.sim.executor import verify_equivalence
from repro.bench.suites import facet_like, hal_diffeq


class TestBasics:
    def test_schedule_valid_and_bound(self, timing, alu_family):
        result = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        result.schedule.validate()
        for name in result.schedule.dfg.node_names():
            assert name in result.datapath.binding

    def test_every_op_on_capable_alu(self, timing, alu_family):
        result = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        dfg = result.schedule.dfg
        for name, key in result.datapath.binding.items():
            cell = alu_family.cell(key[0])
            assert cell.can_execute(dfg.node(name).kind)

    def test_no_overlapping_ops_on_one_instance(self, timing, alu_family):
        result = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        schedule = result.schedule
        by_instance = {}
        for name, key in result.datapath.binding.items():
            by_instance.setdefault(key, []).append(name)
        for members in by_instance.values():
            steps = {}
            for name in members:
                for step in range(schedule.start(name), schedule.end(name) + 1):
                    assert step not in steps, (
                        f"{name} and {steps[step]} overlap on one ALU"
                    )
                    steps[step] = name

    def test_empty_dfg_rejected(self, timing, alu_family):
        with pytest.raises(ScheduleError):
            mfsa_synthesize(DFG("empty"), timing, alu_family, cs=4)

    def test_bad_style_rejected(self, timing, alu_family):
        with pytest.raises(ValueError):
            MFSAScheduler(hal_diffeq(), timing, alu_family, cs=6, style=3)

    def test_functional_equivalence(self, timing, alu_family):
        result = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        verify_equivalence(
            result.datapath, {"x": 2, "dx": 3, "u": 5, "y": 7, "a": 100}
        )


class TestAluMerging:
    def test_add_and_sub_share_an_addsub_alu(self, timing, alu_family):
        # one add and one sub at different steps: a single (+-) is cheapest
        b = DFGBuilder()
        x, y = b.inputs("x", "y")
        s = b.op(OpKind.SUB, x, y, name="s")
        a = b.op(OpKind.ADD, s, y, name="a")
        b.output("o", a)
        g = b.build()
        result = mfsa_synthesize(g, timing, alu_family, cs=2)
        assert result.alu_labels() == ["(+-)"]

    def test_parallel_ops_need_two_alus(self, timing, alu_family):
        b = DFGBuilder()
        x, y = b.inputs("x", "y")
        b.op(OpKind.SUB, x, y, name="s")
        b.op(OpKind.ADD, x, y, name="a")
        g = b.build()
        result = mfsa_synthesize(g, timing, alu_family, cs=1)
        assert len(result.alu_labels()) == 2

    def test_reuse_beats_opening_even_at_later_step(self, timing, alu_family):
        # two independent adds, cs=2: reusing one (+) across both steps is
        # cheaper than opening a second adder at step 1
        b = DFGBuilder()
        x, y = b.inputs("x", "y")
        b.op(OpKind.ADD, x, y, name="a1")
        b.op(OpKind.ADD, y, x, name="a2")
        g = b.build()
        result = mfsa_synthesize(g, timing, alu_family, cs=2)
        assert len(result.alu_labels()) == 1

    def test_fu_counts_match_mfs_shape(self, timing, alu_family):
        from repro.core.mfs import mfs_schedule

        mfs = mfs_schedule(hal_diffeq(), timing, cs=6)
        mfsa = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        mul_instances = sum(
            1
            for key in mfsa.datapath.instances
            if "mul" in alu_family.cell(key[0]).kinds
        )
        assert mul_instances == mfs.fu_counts["mul"]


class TestDesignStyles:
    def test_style2_has_no_self_loops(self, timing, alu_family):
        for example in (hal_diffeq(), facet_like()):
            cs = critical_path_length(example, timing) + 2
            result = mfsa_synthesize(example, timing, alu_family, cs=cs, style=2)
            assert not result.datapath.has_self_loop()

    def test_style1_allows_self_loops(self, timing, alu_family):
        # a chain of adds on a single (+) ALU is a self-loop
        b = DFGBuilder()
        x = b.input("x")
        acc = x
        for index in range(3):
            acc = b.op(OpKind.ADD, acc, index, name=f"a{index}")
        b.output("o", acc)
        g = b.build()
        result = mfsa_synthesize(g, timing, alu_family, cs=3, style=1)
        assert result.datapath.has_self_loop()

    def test_style2_splits_dependent_chain(self, timing, alu_family):
        b = DFGBuilder()
        x = b.input("x")
        acc = x
        for index in range(3):
            acc = b.op(OpKind.ADD, acc, index, name=f"a{index}")
        b.output("o", acc)
        g = b.build()
        result = mfsa_synthesize(g, timing, alu_family, cs=3, style=2)
        assert not result.datapath.has_self_loop()
        assert len(result.alu_labels()) >= 2

    def test_style2_not_cheaper_on_chain(self, timing, alu_family):
        b = DFGBuilder()
        x = b.input("x")
        acc = x
        for index in range(4):
            acc = b.op(OpKind.ADD, acc, index, name=f"a{index}")
        b.output("o", acc)
        g = b.build()
        style1 = mfsa_synthesize(g, timing, alu_family, cs=4, style=1)
        style2 = mfsa_synthesize(g, timing, alu_family, cs=4, style=2)
        assert style2.cost.total >= style1.cost.total


class TestWeights:
    def test_reg_weight_prefers_shorter_lifetimes(self, timing, alu_family):
        g = hal_diffeq()
        plain = mfsa_synthesize(g, timing, alu_family, cs=8)
        reg_heavy = mfsa_synthesize(
            g, timing, alu_family, cs=8,
            weights=LiapunovWeights(reg=50.0),
        )
        assert (
            reg_heavy.datapath.register_count()
            <= plain.datapath.register_count()
        )

    def test_alu_weight_prefers_fewer_alus(self, timing, alu_family):
        g = hal_diffeq()
        alu_heavy = mfsa_synthesize(
            g, timing, alu_family, cs=8, weights=LiapunovWeights(alu=50.0)
        )
        plain = mfsa_synthesize(g, timing, alu_family, cs=8)
        assert len(alu_heavy.alu_labels()) <= len(plain.alu_labels())


class TestLibraryInteraction:
    def test_uncovered_kind_rejected(self, timing):
        narrow = simple_fu_library(["add"])
        with pytest.raises(Exception):
            mfsa_synthesize(hal_diffeq(), timing, narrow, cs=6)

    def test_single_function_library_mimics_mfs(self, timing):
        from repro.core.mfs import mfs_schedule

        lib = simple_fu_library(["add", "sub", "mul", "lt"])
        mfsa = mfsa_synthesize(hal_diffeq(), timing, lib, cs=6)
        mfs = mfs_schedule(hal_diffeq(), timing, cs=6)
        mfsa_counts = {}
        for key in mfsa.datapath.instances:
            kind = next(iter(lib.cell(key[0]).kinds))
            mfsa_counts[kind] = mfsa_counts.get(kind, 0) + 1
        assert mfsa_counts == mfs.fu_counts

    def test_restricted_library(self, timing, alu_family):
        names = [c.name for c in alu_family.cells() if "add" in c.kinds]
        restricted = alu_family.restricted(names)
        b = DFGBuilder()
        x = b.input("x")
        b.output("o", b.op(OpKind.ADD, x, 1, name="a"))
        g = b.build()
        result = mfsa_synthesize(g, timing, restricted, cs=1)
        assert result.schedule.makespan() == 1


class TestMulticycleAndChaining:
    def test_two_cycle_multiplier(self, timing_mul2, alu_family):
        result = mfsa_synthesize(hal_diffeq(), timing_mul2, alu_family, cs=8)
        result.schedule.validate()
        verify_equivalence(
            result.datapath, {"x": 1, "dx": 2, "u": 3, "y": 4, "a": 9}
        )

    def test_chained_synthesis(self, timing_chained, alu_family):
        from repro.bench.suites import chained_addsub

        result = mfsa_synthesize(
            chained_addsub(), timing_chained, alu_family, cs=4
        )
        result.schedule.validate()
        inputs = {f"i{k}": k for k in range(1, 10)}
        verify_equivalence(result.datapath, inputs)

    def test_random_graphs_equivalent(self, timing, alu_family):
        for seed in range(5):
            g = random_dfg(
                seed=seed,
                n_ops=18,
                kinds=(OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.AND),
            )
            cs = critical_path_length(g, timing) + 2
            result = mfsa_synthesize(g, timing, alu_family, cs=cs)
            inputs = {name: 3 + i for i, name in enumerate(g.inputs)}
            verify_equivalence(result.datapath, inputs)


class TestMuxPricing:
    def test_a_second_run_in_one_process_counts_the_same(self, timing):
        # No scheduler state outlives a run, so every perf counter
        # depends only on the run's inputs.
        g = random_dfg(seed=2027, n_ops=40, n_inputs=6)
        cs = critical_path_length(g, timing) + 2
        counters = []
        for _run in range(2):
            perf = PerfCounters()
            MFSAScheduler(g, timing, datapath_library(), cs=cs, perf=perf).run()
            counters.append(dict(perf.counters))
        assert counters[0] == counters[1]
        assert (
            0 < counters[0]["mux.optimiser_runs"]
            < counters[0]["mfsa.mux_cache_misses"]
        )

    def test_only_shared_signals_or_a_raised_cap_run_the_optimiser(
        self, timing, alu_family
    ):
        b = DFGBuilder("mux")
        x, y, z, w = b.inputs("x", "y", "z", "w")
        b.op(OpKind.ADD, x, y, name="xy")
        b.op(OpKind.ADD, y, z, name="yz")
        b.op(OpKind.ADD, z, w, name="zw")
        b.op(OpKind.SUB, z, w, name="z-w")
        perf = PerfCounters()
        state = _AllocationState(b.build(), timing, alu_family, perf=perf)
        cell = alu_family.cells_for(OpKind.ADD)[0]
        state.commit("xy", cell, 1, [])
        assert "mux.optimiser_runs" not in perf.counters
        costs = alu_family.mux_costs
        # Only new signals: one more input per port, no optimiser run.
        assert state.mux_cost_with(cell, 1, "zw") == 2 * costs.cost(2)
        assert "mux.optimiser_runs" not in perf.counters
        # y is shared: the optimiser flips yz to (z, y), sizes (2, 1).
        assert state.mux_cost_with(cell, 1, "yz") == costs.cost(2) + costs.cost(1)
        assert perf.counters["mux.optimiser_runs"] == 1
        # On a capped instance a commutative operand raises the sweep
        # cap, so even its new signals need the optimiser; a fixed-side
        # operand leaves the cap where it was.
        state = _AllocationState(b.build(), timing, alu_family, perf=perf)
        state.commit("xy", cell, 1, [])
        state._mux[(cell.name, 1)].capped = True
        state.mux_cost_with(cell, 1, "z-w")
        assert perf.counters["mux.optimiser_runs"] == 1
        state.mux_cost_with(cell, 1, "zw")
        assert perf.counters["mux.optimiser_runs"] == 2


#: Operations joining one ALU instance in turn: a commutative ADD, a
#: fixed-side SUB or a unary NEG, on two of six inputs, so fresh, shared
#: and same-signal operands all come up.
instance_ops = st.lists(
    st.tuples(
        st.sampled_from([OpKind.ADD, OpKind.SUB, OpKind.NEG]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=24,
)


@given(ops=instance_ops)
@settings(max_examples=200, deadline=None)
def test_incremental_mux_sizes_equal_the_optimiser(ops):
    """Each probe of one instance, then its commit, prices the sizes the
    §5.6 optimiser gives the whole member list from scratch."""
    b = DFGBuilder("instance")
    signals = b.inputs(*(f"s{i}" for i in range(6)))
    for index, (kind, left, right) in enumerate(ops):
        operands = [signals[left]] if kind == OpKind.NEG else [
            signals[left], signals[right]
        ]
        b.op(kind, *operands, name=f"o{index}")
    dfg = b.build()
    timing = TimingModel(ops=standard_operation_set())
    cell = ALUCell("alu", {OpKind.ADD, OpKind.SUB, OpKind.NEG}, area=1000.0)
    library = CellLibrary(
        "one-alu", [cell], 100.0, datapath_library().mux_costs
    )
    state = _AllocationState(dfg, timing, library)
    members = []
    for name in dfg.node_names():
        node = dfg.node(name)
        signals_of = node.operand_names()
        members.append(
            MuxOperand(
                op=name,
                left=signals_of[0],
                right=signals_of[1] if len(signals_of) > 1 else None,
                commutative=timing.ops.spec(node.kind).commutative,
            )
        )
        expected = optimize_mux_inputs(members)
        _cost, n1, n2, _capped = state._mux_priced(cell, 1, name)
        assert (n1, n2) == (len(expected.l1), len(expected.l2))
        state.commit(name, cell, 1, [])
