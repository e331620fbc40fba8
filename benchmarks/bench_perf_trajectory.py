"""Perf-trajectory harness: measures the scheduling kernel, emits BENCH_core.json.

Measures, on the paper's hardest example (EWF, ``ewf()``, T = 17):

* the MFSA run through the naive reference path (``no_cache=True`` — every
  Liapunov term recomputed per candidate, the pre-perf-layer behaviour);
* the MFSA run through the cached fast path (memo tables + incremental
  per-instance mux state), with its perf counters;
* the MFS run (single-pass Liapunov evaluation);
* a ``design_space`` sweep over the budget ladder, serial vs process-pool
  backend, asserting the results are identical in order and value.

Timings are best-of-N wall clock around ``scheduler.run()`` (DFG, timing
model and library are built once, outside the timed region).  Results are
appended to the ``history`` list of ``BENCH_core.json`` so later PRs can
track the speedup trajectory; ``--smoke`` runs a quick variant with a
generous wall-clock ceiling for CI and does not touch the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_trajectory.py
    PYTHONPATH=src python benchmarks/bench_perf_trajectory.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from bench_record import append_entry

from repro.bench.suites import EXAMPLES
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel
from repro.dfg.ops import standard_operation_set
from repro.explore import default_budget_ladder, design_space
from repro.library.ncr import datapath_library
from repro.perf import PerfCounters

EWF_KEY = "ex6"  # the elliptic wave filter, ewf(), T = 17

#: CI smoke ceiling for one cached EWF MFSA run (seconds).  The paper's
#: budget was 0.4 s on a 1992 SPARC; a modern box does the cached run in
#: single-digit milliseconds, so 0.5 s only catches complexity blowups.
SMOKE_CEILING_S = 0.5


def best_of(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(repeat):
    spec = EXAMPLES[EWF_KEY]
    dfg = spec.build()
    ops = standard_operation_set(mul_latency=spec.mfsa_mul_latency)
    timing = TimingModel(ops=ops, clock_period_ns=spec.mfsa_clock_ns)
    library = datapath_library()

    def mfsa(no_cache, perf=None):
        return MFSAScheduler(
            dfg,
            timing,
            library,
            cs=spec.mfsa_cs,
            style=1,
            no_cache=no_cache,
            perf=perf,
        ).run()

    # Equivalence guard: the numbers below are only comparable if both
    # paths produce the same design.
    cached = mfsa(False)
    naive = mfsa(True)
    assert cached.schedule.starts == naive.schedule.starts
    assert cached.cost == naive.cost
    assert cached.alu_labels() == naive.alu_labels()

    naive_s = best_of(lambda: mfsa(True), repeat)
    cached_s = best_of(lambda: mfsa(False), repeat)

    perf = PerfCounters()
    mfsa(False, perf=perf)

    case = spec.table1_cases[0]
    mfs_ops = standard_operation_set(mul_latency=case.mul_latency)
    mfs_timing = TimingModel(ops=mfs_ops, clock_period_ns=case.clock_ns)

    def mfs():
        return MFSScheduler(
            dfg, mfs_timing, cs=case.cs, mode="time",
            latency_l=case.latency_l, pipelined_kinds=case.pipelined_kinds,
        ).run()

    mfs_s = best_of(mfs, repeat)

    # Sweep: serial vs process pool over the budget ladder (>= 6 budgets).
    budgets = default_budget_ladder(dfg, timing)
    top = budgets[-1]
    while len(budgets) < 6:
        top += 1
        budgets.append(top)
    start = time.perf_counter()
    serial_points = design_space(dfg, timing, library, budgets=budgets)
    sweep_serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled_points = design_space(
        dfg, timing, library, budgets=budgets, backend="process"
    )
    sweep_process_s = time.perf_counter() - start
    assert pooled_points == serial_points, (
        "process-pool sweep diverged from serial"
    )

    return {
        "example": EWF_KEY,
        "cs": spec.mfsa_cs,
        "repeat": repeat,
        "mfsa_naive_ms": round(naive_s * 1e3, 3),
        "mfsa_cached_ms": round(cached_s * 1e3, 3),
        "mfsa_speedup": round(naive_s / cached_s, 2),
        "mfs_ms": round(mfs_s * 1e3, 3),
        "sweep_budgets": budgets,
        "sweep_serial_ms": round(sweep_serial_s * 1e3, 3),
        "sweep_process_ms": round(sweep_process_s * 1e3, 3),
        "sweep_identical": True,
        "counters": {
            key: value for key, value in sorted(perf.counters.items())
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI variant: fewer repeats, assert the wall-clock "
        "ceiling, do not write BENCH_core.json",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="best-of repeat count (default 15, smoke 5)",
    )
    parser.add_argument(
        "--label", default="perf-layer",
        help="history-entry label recorded in BENCH_core.json",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="output path (default: repo root BENCH_core.json)",
    )
    args = parser.parse_args(argv)
    repeat = args.repeat or (5 if args.smoke else 15)

    entry = measure(repeat)
    entry["label"] = args.label
    print(
        f"EWF (T={entry['cs']}) MFSA: naive {entry['mfsa_naive_ms']:.2f} ms, "
        f"cached {entry['mfsa_cached_ms']:.2f} ms "
        f"-> {entry['mfsa_speedup']:.2f}x"
    )
    print(
        f"MFS {entry['mfs_ms']:.2f} ms; sweep over {len(entry['sweep_budgets'])} "
        f"budgets: serial {entry['sweep_serial_ms']:.1f} ms, "
        f"process {entry['sweep_process_ms']:.1f} ms (identical results)"
    )

    if args.smoke:
        cached_s = entry["mfsa_cached_ms"] / 1e3
        if cached_s > SMOKE_CEILING_S:
            print(
                f"FAIL: cached EWF MFSA took {cached_s:.3f} s "
                f"(ceiling {SMOKE_CEILING_S} s)",
                file=sys.stderr,
            )
            return 1
        print(f"smoke OK: {cached_s * 1e3:.2f} ms <= {SMOKE_CEILING_S * 1e3:.0f} ms ceiling")
        return 0

    out = append_entry(entry, "perf_trajectory", Path(args.out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
