"""Kernel cross-validation: scalar and vector paths must be byte-identical.

The vector kernel (:mod:`repro.core.kernel`) is a pure performance
layer: same greedy placements, same tie-breaking, same IEEE association
in every accumulated energy, so the *whole result* — schedule starts,
Liapunov trajectory, datapath, cost — must be equal to the scalar
reference, not merely equivalent.  This module audits that claim the
same way the rest of :mod:`repro.check` audits the paper's invariants,
and backs the ``repro check --kernels`` CLI flag plus the property
suite in ``tests/property/test_property_kernel.py``.

Both walks consult every cache the same way, so every perf counter —
candidates evaluated, frames computed, mux, operand and register cache
traffic — must match exactly.  Both audits record move-frame
alternatives on both walks, so their trajectories are compared
position by position.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.allocation.mux import clear_mux_memo
from repro.check.report import CheckReport
from repro.check.runner import _merge_sub
from repro.perf import PerfCounters


def check_mfs_kernels(
    dfg,
    timing,
    cs: int,
    mode: str = "time",
    latency_l: Optional[int] = None,
    pipelined_kinds=frozenset(),
) -> CheckReport:
    """Run MFS under both kernels and compare everything observable."""
    from repro.core.mfs import MFSScheduler

    report = CheckReport(target=f"MFS kernels {dfg.name} (cs={cs})")
    results = {}
    perfs = {}
    for kern in ("scalar", "vector"):
        perfs[kern] = PerfCounters()
        results[kern] = MFSScheduler(
            dfg,
            timing,
            cs=cs,
            mode=mode,
            latency_l=latency_l,
            pipelined_kinds=pipelined_kinds,
            kernel=kern,
            perf=perfs[kern],
            record_alternatives=True,
        ).run()
    _compare(report, results["scalar"], results["vector"], perfs)
    report.ran("kernel-fu-counts")
    if results["scalar"].fu_counts != results["vector"].fu_counts:
        report.add(
            "kernel-divergence",
            "fu_counts",
            f"scalar {results['scalar'].fu_counts} != "
            f"vector {results['vector'].fu_counts}",
        )
    return report


def check_mfsa_kernels(
    dfg,
    timing,
    library,
    cs: int,
    style: int = 1,
    weights=None,
) -> CheckReport:
    """Run MFSA under both kernels and compare everything observable.

    Each run starts with a cleared process-wide mux memo so the second
    kernel cannot ride the first one's cached optimisations.
    """
    from repro.core.mfsa import MFSAScheduler

    report = CheckReport(target=f"MFSA kernels {dfg.name} (cs={cs})")
    results = {}
    perfs = {}
    for kern in ("scalar", "vector"):
        clear_mux_memo()
        perfs[kern] = PerfCounters()
        kwargs = {}
        if weights is not None:
            kwargs["weights"] = weights
        results[kern] = MFSAScheduler(
            dfg,
            timing,
            library,
            cs=cs,
            style=style,
            kernel=kern,
            perf=perfs[kern],
            record_alternatives=True,
            **kwargs,
        ).run()
    scalar, vector = results["scalar"], results["vector"]
    _compare(report, scalar, vector, perfs)
    report.ran("kernel-datapath")
    if scalar.alu_labels() != vector.alu_labels():
        report.add(
            "kernel-divergence",
            "alu_labels",
            f"scalar {scalar.alu_labels()} != vector {vector.alu_labels()}",
        )
    if scalar.cost != vector.cost:
        report.add(
            "kernel-divergence",
            "cost",
            f"scalar {scalar.cost!r} != vector {vector.cost!r}",
        )
    return report


def _compare(report: CheckReport, scalar, vector, perfs) -> None:
    report.ran("kernel-schedule")
    if scalar.schedule.starts != vector.schedule.starts:
        diff = {
            op: (scalar.schedule.starts[op], vector.schedule.starts[op])
            for op in scalar.schedule.starts
            if scalar.schedule.starts[op] != vector.schedule.starts.get(op)
        }
        report.add(
            "kernel-divergence",
            "schedule.starts",
            f"{len(diff)} ops placed differently: {sorted(diff)[:5]}",
        )
    report.ran("kernel-trajectory")
    if scalar.trajectory != vector.trajectory:
        report.add(
            "kernel-divergence",
            "trajectory",
            "Liapunov trajectories differ "
            f"(scalar {len(scalar.trajectory)} points, "
            f"vector {len(vector.trajectory)})",
        )
    report.ran("kernel-counters")
    sc = perfs["scalar"].counters
    vc = perfs["vector"].counters
    if sc != vc:
        keys = sorted(
            key
            for key in set(sc) | set(vc)
            if sc.get(key) != vc.get(key)
        )
        report.add(
            "kernel-divergence",
            "perf-counters",
            f"counters differ on {keys[:6]}",
        )


# ----------------------------------------------------------------------
# Example and random-workload harnesses (``repro check --kernels``)
# ----------------------------------------------------------------------
def check_kernels_example(key: str) -> CheckReport:
    """Cross-validate both kernels on one paper example."""
    from repro.bench.suites import EXAMPLES
    from repro.dfg.analysis import TimingModel
    from repro.dfg.ops import standard_operation_set
    from repro.library.ncr import datapath_library

    spec = EXAMPLES[key]
    report = CheckReport(target=f"kernels {key} ({spec.description})")
    dfg = spec.build()
    library = datapath_library()
    for index, case in enumerate(spec.table1_cases):
        timing = TimingModel(
            ops=standard_operation_set(mul_latency=case.mul_latency),
            clock_period_ns=case.clock_ns,
        )
        sub = check_mfs_kernels(
            dfg,
            timing,
            cs=case.cs,
            latency_l=case.latency_l,
            pipelined_kinds=case.pipelined_kinds,
        )
        sub.target = f"{key} table1[{index}] (cs={case.cs})"
        _merge_sub(report, sub)
    mfsa_timing = TimingModel(
        ops=standard_operation_set(mul_latency=spec.mfsa_mul_latency),
        clock_period_ns=spec.mfsa_clock_ns,
    )
    for style in (1, 2):
        sub = check_mfsa_kernels(
            dfg, mfsa_timing, library, cs=spec.mfsa_cs, style=style
        )
        sub.target = f"{key} table2 style {style}"
        _merge_sub(report, sub)
    return report


def check_kernels_all_examples(
    keys: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Cross-validate both kernels on the paper's six examples."""
    from repro.bench.suites import EXAMPLES

    report = CheckReport(target="kernel equivalence (paper examples)")
    for key in list(keys) if keys else sorted(EXAMPLES):
        _merge_sub(report, check_kernels_example(key))
    return report


def check_kernels_random(
    count: int = 10, seed: int = 0, n_ops: int = 24
) -> CheckReport:
    """Cross-validate both kernels on generator-produced workloads."""
    from repro.dfg.analysis import TimingModel, critical_path_length
    from repro.dfg.generators import random_dfg
    from repro.dfg.ops import standard_operation_set
    from repro.library.ncr import datapath_library

    timing = TimingModel(ops=standard_operation_set())
    library = datapath_library()
    report = CheckReport(
        target=f"kernel equivalence ({count} random DFGs, seed {seed})"
    )
    for index in range(count):
        dfg = random_dfg(seed=seed + index, n_ops=n_ops)
        cs = critical_path_length(dfg, timing) + 2 + (index % 5)
        sub = check_mfs_kernels(dfg, timing, cs=cs)
        sub.target = f"random[{index}] MFS (cs={cs})"
        _merge_sub(report, sub)
        sub = check_mfsa_kernels(
            dfg, timing, library, cs=cs, style=1 + (index % 2)
        )
        sub.target = f"random[{index}] MFSA (cs={cs})"
        _merge_sub(report, sub)
    return report

