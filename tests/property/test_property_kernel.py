"""Property-based tests (hypothesis): the move-frame walks agree.

Strategy: generate random DFGs through the seeded generator and lean on
:mod:`repro.check.kernels` for the comparison, adding only the
hypothesis-driven workload space on top.  MFS runs under both of its
walks, and the results must be *byte-identical* — schedule starts,
Liapunov trajectories, FU mixes and every perf counter: the vector walk
is a pure performance layer, and any observable divergence is a bug.
MFSA has one walk; its default-option run must render the recorded
whole-frame run's bytes and make its moves.

MFS's ``kernel="auto"`` mixes the walks within one run on designs of
``VECTOR_MIN_OPS`` and more, each operation picking its walk by frame
size; with alternatives recorded, the mixed runs must equal the scalar
walk in every counter too.  With default options (alternatives off)
every walk stops building a move frame at the first step that cannot
win: the runs must still render the recorded whole-frame run's bytes
and make its moves, and MFS's three walks must count every event alike.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.kernels import check_mfs_kernels, check_mfsa_kernels
from repro.core import engine, kernel
from repro.core.liapunov import LiapunovWeights
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import (
    layered_workload,
    random_conditional_dfg,
    random_dfg,
)
from repro.dfg.ops import standard_operation_set
from repro.io.jsonio import schedule_to_json, synthesis_to_json
from repro.library.cells import CellLibrary, MuxCostTable
from repro.library.ncr import datapath_library
from repro.perf import PerfCounters

TIMING = TimingModel(ops=standard_operation_set())
TIMING_MUL2 = TimingModel(ops=standard_operation_set(mul_latency=2))
LIBRARY = datapath_library()
#: The shipped cells with a mux cost linear in its inputs; the shipped
#: table falls past 12 inputs, which lets f_MUX go negative.
MONOTONE_LIBRARY = CellLibrary(
    "monotone-mux",
    LIBRARY.cells(),
    LIBRARY.register_area,
    MuxCostTable(unit_cost=620.0),
)

dfg_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # seed
    st.integers(min_value=1, max_value=40),       # n_ops
    st.integers(min_value=1, max_value=6),        # n_inputs
    st.integers(min_value=1, max_value=12),       # locality
)

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(params=dfg_params, slack=st.integers(min_value=0, max_value=8))
@RELAXED
def test_mfs_kernels_byte_identical(params, slack):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(
        seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality
    )
    cs = critical_path_length(g, TIMING) + slack
    report = check_mfs_kernels(g, TIMING, cs=cs)
    assert report.ok, report.render()


@given(
    params=dfg_params,
    slack=st.integers(min_value=0, max_value=6),
    style=st.sampled_from([1, 2]),
)
@RELAXED
def test_mfsa_kernels_byte_identical(params, slack, style):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(
        seed=seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality
    )
    cs = critical_path_length(g, TIMING) + slack
    report = check_mfsa_kernels(g, TIMING, LIBRARY, cs=cs, style=style)
    assert report.ok, report.render()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=4, max_value=32),
    slack=st.integers(min_value=0, max_value=4),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_conditional_dfgs_agree(seed, n_ops, slack):
    g = random_conditional_dfg(seed=seed, n_ops=n_ops)
    cs = critical_path_length(g, TIMING) + slack
    report = check_mfs_kernels(g, TIMING, cs=cs)
    assert report.ok, report.render()
    report = check_mfsa_kernels(g, TIMING, LIBRARY, cs=cs)
    assert report.ok, report.render()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_nondefault_weights_and_latency_agree(seed):
    """Eager weights + multi-cycle multiplies hit the folded-frame paths."""
    g = random_dfg(seed=seed, n_ops=24)
    cs = critical_path_length(g, TIMING_MUL2) + 3
    report = check_mfsa_kernels(
        g,
        TIMING_MUL2,
        LIBRARY,
        cs=cs,
        weights=LiapunovWeights(1.0, 2.0, 0.5, 1.5),
    )
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# MFS kernel="auto": one walk per operation, picked by frame size
# ----------------------------------------------------------------------
large_designs = st.one_of(
    st.builds(
        lambda seed, n_ops, locality: random_dfg(
            seed=seed, n_ops=n_ops, n_inputs=8, locality=locality
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=48, max_value=160),
        st.integers(min_value=4, max_value=40),
    ),
    st.builds(
        lambda seed, layers, width: layered_workload(
            seed=seed, layers=layers, width=width
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=16, max_value=20),
    ),
)


def run_design(g, cs, style, library=LIBRARY, **options):
    """(JSON bytes, trajectory, perf) of one run; ``style`` 0 is MFS."""
    perf = PerfCounters()
    if style == 0:
        result = MFSScheduler(g, TIMING, cs=cs, perf=perf, **options).run()
        text = schedule_to_json(result.schedule)
    else:
        result = MFSAScheduler(
            g, TIMING, library, cs=cs, style=style, perf=perf, **options
        ).run()
        text = synthesis_to_json(result)
    return text, result.trajectory, perf


def run_walk(g, cs, kern):
    """(JSON bytes, trajectory, counters) of one MFS run with
    alternatives recorded."""
    text, trajectory, perf = run_design(
        g, cs, 0, kernel=kern, record_alternatives=True
    )
    return text, trajectory, dict(perf.counters)


def moves(trajectory):
    """The (node, position, energy) sequence of a trajectory."""
    return [(event.node, event.position, event.energy) for event in trajectory]


@given(g=large_designs, slack=st.integers(min_value=0, max_value=40))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_auto_mixed_walks_equal_scalar(g, slack):
    """MFS: bytes, trajectory (alternatives included) and every counter."""
    assert len(g) >= kernel.VECTOR_MIN_OPS
    cs = critical_path_length(g, TIMING) + slack
    assert run_walk(g, cs, "auto") == run_walk(g, cs, "scalar")


@given(
    g=large_designs,
    slack=st.integers(min_value=0, max_value=40),
    style=st.sampled_from([0, 1, 2]),
    library=st.sampled_from([LIBRARY, MONOTONE_LIBRARY]),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_default_options_equal_recorded_scalar(g, slack, style, library):
    """Default options — alternatives off, frames stopped at the first
    step that cannot win — give the recorded whole-frame scalar walk's
    bytes and moves (placements and energies): MFSA's one walk, and
    MFS's ``auto``, ``scalar`` and ``vector`` walks, which also count
    every event alike."""
    cs = critical_path_length(g, TIMING) + slack
    walks = [{}]
    if style == 0:
        walks = [{"kernel": kern} for kern in ("scalar", "auto", "vector")]
    ref_text, ref_trajectory, _ = run_design(
        g, cs, style, library, record_alternatives=True, **walks[0]
    )
    counters = []
    for walk in walks:
        text, trajectory, perf = run_design(g, cs, style, library, **walk)
        assert text == ref_text, walk
        assert moves(trajectory) == moves(ref_trajectory), walk
        counters.append(perf.counters)
    assert all(c == counters[0] for c in counters)


def test_auto_builds_frames_on_both_walks(monkeypatch):
    """A 192-op MFS run at its critical path mixes the walks: the
    operations whose frame rectangle holds ``VECTOR_MIN_CELLS`` cells or
    more take the vector walk."""
    built = {"scalar": 0, "vector": 0}

    def counting(walk, build):
        def wrapped(*args, **kwargs):
            built[walk] += 1
            return build(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        engine, "compute_frames", counting("scalar", engine.compute_frames)
    )
    monkeypatch.setattr(
        kernel, "move_frame_mask", counting("vector", kernel.move_frame_mask)
    )
    g = layered_workload(seed=7, layers=2, width=96)
    cs = critical_path_length(g, TIMING)
    MFSScheduler(g, TIMING, cs=cs, kernel="auto").run()
    assert built["scalar"] > 0 and built["vector"] > 0, built
