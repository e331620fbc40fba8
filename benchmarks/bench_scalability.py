"""Scalability sweep backing the O(l^3) complexity analysis (§3.2).

Layered synthetic workloads of growing size; the benchmark records MFS
and MFSA wall times so the growth curve can be read off the
pytest-benchmark table, and a sanity test checks the growth stays far
below the quartic envelope.

Three tiers:

* the regular ladder (20 .. 1000 ops) runs on every invocation;
* the 10k-op tier is marked ``@pytest.mark.slow`` and needs
  ``--runslow`` (an MFS run alone is ~10 s of wall clock);
* the kernel-comparison benchmarks time MFS's scalar reference walk
  against its numpy vector walk, and MFSA's one walk, on the same seeded
  workloads the ``bench_kernels.py`` harness records to BENCH_core.json.
"""

import time

import pytest

from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import layered_workload
from repro.dfg.ops import standard_operation_set
from repro.library.ncr import datapath_library

TIMING = TimingModel(ops=standard_operation_set())
# (layers, width) -> 20 .. 1000 ops
SIZES = [(4, 5), (8, 5), (8, 10), (16, 10), (25, 40)]
# 10k ops: --runslow only (a single MFS run is ~10 s)
SLOW_SIZES = [(50, 200)]

#: Kernel-comparison points (ops -> layers, width, slack).  Generous
#: slack is where the move-frame grids get tall and MFS's vector walk
#: pays — the same regime bench_kernels.py measures.
KERNEL_POINTS = {
    100: (5, 20, 40),
    1000: (25, 40, 400),
}

KERNELS = ["scalar", "vector"]


@pytest.mark.parametrize("layers,width", SIZES)
def test_mfs_scaling(benchmark, layers, width):
    g = layered_workload(seed=1, layers=layers, width=width)
    cs = critical_path_length(g, TIMING) + 2

    result = benchmark(
        lambda: MFSScheduler(g, TIMING, cs=cs, mode="time").run()
    )
    result.schedule.validate()


@pytest.mark.parametrize("layers,width", SIZES[:3])
def test_mfsa_scaling(benchmark, layers, width):
    g = layered_workload(seed=1, layers=layers, width=width)
    cs = critical_path_length(g, TIMING) + 2
    library = datapath_library()

    result = benchmark(
        lambda: MFSAScheduler(g, TIMING, library, cs=cs).run()
    )
    result.schedule.validate()


def test_mfsa_scaling_1k(benchmark):
    layers, width = SIZES[-1]
    g = layered_workload(seed=1, layers=layers, width=width)
    cs = critical_path_length(g, TIMING) + 2
    library = datapath_library()

    result = benchmark.pedantic(
        lambda: MFSAScheduler(g, TIMING, library, cs=cs).run(),
        rounds=3,
    )
    result.schedule.validate()


@pytest.mark.slow
@pytest.mark.parametrize("layers,width", SLOW_SIZES)
def test_mfs_scaling_10k(benchmark, layers, width):
    g = layered_workload(seed=1, layers=layers, width=width)
    cs = critical_path_length(g, TIMING) + 2

    result = benchmark.pedantic(
        lambda: MFSScheduler(g, TIMING, cs=cs, mode="time").run(),
        rounds=1,
    )
    result.schedule.validate()


@pytest.mark.slow
@pytest.mark.parametrize("layers,width", SLOW_SIZES)
def test_mfsa_scaling_10k(benchmark, layers, width):
    g = layered_workload(seed=1, layers=layers, width=width)
    cs = critical_path_length(g, TIMING) + 2
    library = datapath_library()

    result = benchmark.pedantic(
        lambda: MFSAScheduler(g, TIMING, library, cs=cs).run(),
        rounds=1,
    )
    result.schedule.validate()


@pytest.mark.parametrize("kern", KERNELS)
def test_mfs_kernels_1k(benchmark, kern):
    layers, width, slack = KERNEL_POINTS[1000]
    g = layered_workload(seed=7, layers=layers, width=width)
    cs = critical_path_length(g, TIMING) + slack

    result = benchmark.pedantic(
        lambda: MFSScheduler(
            g, TIMING, cs=cs, mode="time", kernel=kern
        ).run(),
        rounds=3,
    )
    result.schedule.validate()


def test_mfsa_kernel_100(benchmark):
    layers, width, slack = KERNEL_POINTS[100]
    g = layered_workload(seed=7, layers=layers, width=width)
    cs = critical_path_length(g, TIMING) + slack
    library = datapath_library()

    result = benchmark(lambda: MFSAScheduler(g, TIMING, library, cs=cs).run())
    result.schedule.validate()


@pytest.mark.slow
def test_mfsa_kernel_1k(benchmark):
    layers, width, slack = KERNEL_POINTS[1000]
    g = layered_workload(seed=7, layers=layers, width=width)
    cs = critical_path_length(g, TIMING) + slack
    library = datapath_library()

    result = benchmark.pedantic(
        lambda: MFSAScheduler(g, TIMING, library, cs=cs).run(), rounds=1
    )
    result.schedule.validate()


def test_growth_below_quartic_envelope():
    def runtime(layers, width):
        g = layered_workload(seed=1, layers=layers, width=width)
        cs = critical_path_length(g, TIMING) + 2
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            MFSScheduler(g, TIMING, cs=cs, mode="time").run()
            best = min(best, time.perf_counter() - start)
        return best

    small = max(runtime(6, 5), 1e-3)
    large = runtime(12, 10)  # 4x operations
    assert large / small < 4**4
