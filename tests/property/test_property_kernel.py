"""Property-based tests (hypothesis): scalar and vector kernels agree.

Strategy: generate random DFGs through the seeded generator, run MFS
and MFSA under both kernels, and assert the results are *byte-identical*
— schedule starts, Liapunov trajectories, FU mixes, datapath costs and
(where meaningful) perf counters.  The vector kernel is a pure
performance layer; any observable divergence is a bug, so these tests
lean on :mod:`repro.check.kernels` for the comparison and only add the
hypothesis-driven workload space on top.

Counter caveat: with alternatives off (the default) and a monotone mux
cost table, the vector MFSA path prunes whole columns via a zero-mux
lower bound, so mux/operand *cache* counters (how often the optimiser
was consulted) legitimately differ; ``comparable_counters`` excludes
them.

``kernel="auto"`` mixes the walks within one run on designs of
``VECTOR_MIN_OPS`` and more, each operation picking its walk by frame
size; with alternatives recorded, the mixed runs must equal the scalar
walk in every counter too.  With default options they must still place
every operation as the recorded scalar walk does, with the shipped
library and with ``MONOTONE_LIBRARY``, where the pruning runs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation.mux import clear_mux_memo
from repro.check.kernels import (
    check_mfs_kernels,
    check_mfsa_kernels,
    comparable_counters,
)
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
from repro.library.cells import CellLibrary
from repro.library.ncr import datapath_library
from repro.perf import PerfCounters

TIMING = TimingModel(ops=standard_operation_set())
TIMING_MUL2 = TimingModel(ops=standard_operation_set(mul_latency=2))
LIBRARY = datapath_library()
#: ``LIBRARY``'s cells with the default mux cost table, which never gets
#: cheaper with more inputs.  The shipped table does (12 inputs cost more
#: than the fitted 13-input extension), so ``mux_costs_monotone`` fails
#: past five operations and only this library lets the vector MFSA
#: pricer prune on the large designs.
MONOTONE_LIBRARY = CellLibrary(
    "datapath-monotone-mux", LIBRARY.cells(), LIBRARY.register_area
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


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    slack=st.integers(min_value=0, max_value=4),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_counters_identical_when_alternatives_recorded(seed, slack):
    """With pruning off, *every* counter matches — including mux/operand."""
    g = random_dfg(seed=seed, n_ops=20)
    cs = critical_path_length(g, TIMING) + slack
    counters = {}
    for kern in ("scalar", "vector"):
        clear_mux_memo()
        perf = PerfCounters()
        MFSAScheduler(
            g,
            TIMING,
            LIBRARY,
            cs=cs,
            kernel=kern,
            perf=perf,
            record_alternatives=True,
        ).run()
        counters[kern] = dict(perf.counters)
    assert counters["scalar"] == counters["vector"]


def test_comparable_counters_filters_mux_and_operand():
    perf = PerfCounters()
    perf.incr("mfsa.candidates_evaluated")
    perf.incr("mfsa.mux_cache_hits")
    perf.incr("mfsa.operand_cache_misses")
    perf.incr("mux.canon_hits")
    kept = comparable_counters(perf)
    assert kept == {"mfsa.candidates_evaluated": 1}


# ----------------------------------------------------------------------
# kernel="auto": one walk per operation, picked by frame size
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
    """(JSON bytes, trajectory, perf) of one cache-cold run; ``style`` 0
    is MFS."""
    clear_mux_memo()
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


def run_walk(g, cs, kern, style):
    """(JSON bytes, trajectory, counters) of one run with alternatives
    recorded."""
    text, trajectory, perf = run_design(
        g, cs, style, kernel=kern, record_alternatives=True
    )
    return text, trajectory, dict(perf.counters)


def moves(trajectory):
    """The (node, position, energy) sequence of a trajectory."""
    return [(event.node, event.position, event.energy) for event in trajectory]


@given(
    g=large_designs,
    slack=st.integers(min_value=0, max_value=40),
    style=st.sampled_from([0, 1, 2]),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_auto_mixed_walks_equal_scalar(g, slack, style):
    """Bytes, trajectory (alternatives included) and every counter."""
    assert len(g) >= kernel.VECTOR_MIN_OPS
    cs = critical_path_length(g, TIMING) + slack
    assert run_walk(g, cs, "auto", style) == run_walk(g, cs, "scalar", style)


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
    """Default options — ``auto``, alternatives off, and with
    ``MONOTONE_LIBRARY`` the vector MFSA pricer pruning — give the
    recorded scalar walk's bytes, moves and comparable counters."""
    cs = critical_path_length(g, TIMING) + slack
    text, trajectory, perf = run_design(g, cs, style, library)
    ref_text, ref_trajectory, ref_perf = run_design(
        g, cs, style, library, kernel="scalar", record_alternatives=True
    )
    assert text == ref_text
    assert moves(trajectory) == moves(ref_trajectory)
    assert comparable_counters(perf) == comparable_counters(ref_perf)


def test_default_options_prune_with_a_monotone_mux_table():
    """A 100-op MFSA run at 40 steps of slack skips mux pricing that the
    recorded run does, and emits the same bytes."""
    g = layered_workload(seed=7, layers=5, width=20)
    cs = critical_path_length(g, TIMING) + 40
    text, _, perf = run_design(g, cs, 1, MONOTONE_LIBRARY)
    ref_text, _, ref_perf = run_design(
        g, cs, 1, MONOTONE_LIBRARY, record_alternatives=True
    )
    assert text == ref_text
    assert (
        perf.counters["mfsa.mux_cache_misses"]
        < ref_perf.counters["mfsa.mux_cache_misses"]
    )


def test_auto_builds_frames_on_both_walks(monkeypatch):
    """A 100-op MFSA run at 10 steps of slack mixes the walks."""
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
    g = layered_workload(seed=7, layers=5, width=20)
    cs = critical_path_length(g, TIMING) + 10
    MFSAScheduler(g, TIMING, LIBRARY, cs=cs, kernel="auto").run()
    assert built["scalar"] > 0 and built["vector"] > 0, built
