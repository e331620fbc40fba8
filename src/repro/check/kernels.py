"""Move-frame walk cross-validation (``repro check --kernels``).

MFS has two walks: the scalar reference and the numpy vector walk
(:mod:`repro.core.kernel`), a pure performance layer — same greedy
placements, same tie-breaking — so the *whole result* (schedule starts,
Liapunov trajectory, FU mix) must equal the scalar walk's, not merely
be equivalent.  Both walks consult every cache the same way, so every
perf counter must match too.  The audit runs each walk twice: with
move-frame alternatives recorded, so the trajectories are compared
position by position over whole frames, and with default options, where
each walk stops building a frame at the first step that cannot win.

MFSA has one walk.  Its default-option run stops each frame at the
first step :class:`~repro.core.mfsa._StepBound` rules out; it must render
the recorded whole-frame run's result bytes and make its moves.

The property suite in ``tests/property/test_property_kernel.py`` adds a
hypothesis-driven workload space on top of these audits.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.check.report import CheckReport
from repro.check.runner import _merge_sub
from repro.perf import PerfCounters


WALKS = ("scalar", "vector")


def _run_walks(run, record: bool) -> dict:
    """``{walk: (result, perf)}``: ``run(walk, perf, record)`` once per
    walk."""
    runs = {}
    for walk in WALKS:
        perf = PerfCounters()
        runs[walk] = (run(walk, perf, record), perf)
    return runs


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
    from repro.io.jsonio import schedule_to_json

    def run(walk, perf, record):
        return MFSScheduler(
            dfg,
            timing,
            cs=cs,
            mode=mode,
            latency_l=latency_l,
            pipelined_kinds=pipelined_kinds,
            kernel=walk,
            perf=perf,
            record_alternatives=record,
        ).run()

    report = CheckReport(target=f"MFS kernels {dfg.name} (cs={cs})")
    recorded = _run_walks(run, True)
    _compare(report, recorded)
    scalar, vector = recorded["scalar"][0], recorded["vector"][0]
    report.ran("kernel-fu-counts")
    if scalar.fu_counts != vector.fu_counts:
        report.add(
            "kernel-divergence",
            "fu_counts",
            f"scalar {scalar.fu_counts} != vector {vector.fu_counts}",
        )
    default = _run_walks(run, False)
    _compare(report, default, prefix="default ")
    for walk in WALKS:
        _compare_bounded(
            report,
            "kernel-default",
            default[walk][0],
            recorded[walk][0],
            lambda result: schedule_to_json(result.schedule),
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
    """Run MFSA with default options and with alternatives recorded; the
    bounded run must render the whole-frame run's bytes and moves."""
    from repro.core.mfsa import MFSAScheduler
    from repro.io.jsonio import synthesis_to_json

    kwargs = {} if weights is None else {"weights": weights}

    def run(record):
        return MFSAScheduler(
            dfg,
            timing,
            library,
            cs=cs,
            style=style,
            record_alternatives=record,
            **kwargs,
        ).run()

    report = CheckReport(target=f"MFSA bounded frames {dfg.name} (cs={cs})")
    _compare_bounded(
        report, "mfsa-bounded", run(False), run(True), synthesis_to_json
    )
    return report


def _moves(result):
    """The (node, position, energy) sequence of a run's trajectory."""
    return [(event.node, event.position, event.energy) for event in result.trajectory]


def _compare_bounded(
    report: CheckReport, family: str, bounded, recorded, encode
) -> None:
    """A default-option run renders the recorded whole-frame run's bytes
    and makes its moves (checks ``<family>-bytes`` and ``-moves``)."""
    report.ran(f"{family}-bytes")
    if encode(bounded) != encode(recorded):
        report.add(
            "kernel-divergence",
            "default bytes",
            "the default-option run renders other bytes than the "
            "recorded whole-frame run",
        )
    report.ran(f"{family}-moves")
    if _moves(bounded) != _moves(recorded):
        report.add(
            "kernel-divergence",
            "default moves",
            "the default-option run's moves differ from the recorded "
            "whole-frame run's",
        )


def _compare(report: CheckReport, runs, prefix: str = "") -> None:
    (scalar, scalar_perf), (vector, vector_perf) = runs["scalar"], runs["vector"]
    report.ran("kernel-schedule")
    if scalar.schedule.starts != vector.schedule.starts:
        diff = {
            op: (scalar.schedule.starts[op], vector.schedule.starts[op])
            for op in scalar.schedule.starts
            if scalar.schedule.starts[op] != vector.schedule.starts.get(op)
        }
        report.add(
            "kernel-divergence",
            f"{prefix}schedule.starts",
            f"{len(diff)} ops placed differently: {sorted(diff)[:5]}",
        )
    report.ran("kernel-trajectory")
    if scalar.trajectory != vector.trajectory:
        report.add(
            "kernel-divergence",
            f"{prefix}trajectory",
            "Liapunov trajectories differ "
            f"(scalar {len(scalar.trajectory)} points, "
            f"vector {len(vector.trajectory)})",
        )
    report.ran("kernel-counters")
    sc, vc = scalar_perf.counters, vector_perf.counters
    if sc != vc:
        keys = sorted(
            key
            for key in set(sc) | set(vc)
            if sc.get(key) != vc.get(key)
        )
        report.add(
            "kernel-divergence",
            f"{prefix}perf-counters",
            f"counters differ on {keys[:6]}",
        )


# ----------------------------------------------------------------------
# Example and random-workload harnesses (``repro check --kernels``)
# ----------------------------------------------------------------------
def check_kernels_example(key: str) -> CheckReport:
    """Cross-validate the walks on one paper example."""
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
    """Cross-validate the walks on the paper's six examples."""
    from repro.bench.suites import EXAMPLES

    report = CheckReport(target="kernel equivalence (paper examples)")
    for key in list(keys) if keys else sorted(EXAMPLES):
        _merge_sub(report, check_kernels_example(key))
    return report


def check_kernels_random(
    count: int = 10, seed: int = 0, n_ops: int = 24
) -> CheckReport:
    """Cross-validate the walks on generator-produced workloads."""
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

