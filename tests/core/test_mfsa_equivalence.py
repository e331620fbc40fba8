"""Cached MFSA must be byte-identical to the naive reference path.

The caching layer (the `_AllocationState` memo tables and incremental
per-instance mux state, the shared per-node frame, the f_REG cache)
guarantees exactness: every cache is keyed on the complete input of a
deterministic function, and the mux state prices only what the §5.6
optimiser's answer is known for.  These tests lock that down against the
``no_cache=True`` reference, which recomputes every Liapunov term from
scratch for every candidate position:

* all six paper examples, both design styles;
* hypothesis-generated random DFGs (seeded generator).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.suites import EXAMPLES
from repro.bench.table2 import run_example
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import random_dfg
from repro.dfg.ops import standard_operation_set
from repro.library.ncr import datapath_library

TIMING = TimingModel(ops=standard_operation_set())
LIBRARY = datapath_library()


def assert_equivalent(cached, naive):
    """Every observable artifact must match between the two paths."""
    assert cached.schedule.starts == naive.schedule.starts
    assert cached.placements == naive.placements
    assert cached.alu_labels() == naive.alu_labels()
    assert cached.cost == naive.cost
    assert (
        cached.datapath.register_count() == naive.datapath.register_count()
    )
    assert cached.datapath.mux_count() == naive.datapath.mux_count()
    assert cached.datapath.mux_inputs() == naive.datapath.mux_inputs()
    assert [e.node for e in cached.trajectory.events] == [
        e.node for e in naive.trajectory.events
    ]
    assert [e.energy for e in cached.trajectory.events] == [
        e.energy for e in naive.trajectory.events
    ]


@pytest.mark.parametrize("key", sorted(EXAMPLES))
@pytest.mark.parametrize("style", [1, 2])
def test_examples_cached_equals_naive(key, style):
    spec = EXAMPLES[key]
    cached = run_example(spec, style)
    naive = run_example(spec, style, no_cache=True)
    assert_equivalent(cached, naive)
    # A second run in the same process must not change anything either.
    assert_equivalent(run_example(spec, style), naive)


dfg_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=30),      # n_ops
    st.integers(min_value=1, max_value=6),       # n_inputs
    st.integers(min_value=1, max_value=10),      # locality
)

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(params=dfg_params, style=st.sampled_from([1, 2]), slack=st.integers(0, 3))
@RELAXED
def test_random_dfgs_cached_equals_naive(params, style, slack):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING) + slack

    def run(no_cache):
        return MFSAScheduler(
            g, TIMING, LIBRARY, cs=cs, style=style, no_cache=no_cache
        ).run()

    assert_equivalent(run(False), run(True))
