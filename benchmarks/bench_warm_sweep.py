"""Warm-sweep harness: serial vs pooled design sweeps, emits BENCH_core.json.

Two measurements around :class:`repro.sweep.SweepExecutor`:

* **serial vs process** — the EWF design-space sweep
  (:func:`repro.explore.design_space` over the default budget ladder)
  on the serial backend vs the process pool with warm workers (pool
  initializer pre-imports the scheduling stack and the DFG/timing/
  library context ships once per worker instead of once per item).
  Results are asserted identical.  The entry records ``cpus`` — on a
  single-core box the pool cannot win and the speedup documents the
  overhead instead; on a multi-core host this is the scaling number.
* **cold vs warm pool** — the Table-1 regeneration payloads mapped
  three times through a fresh pool each time (cold: pay interpreter
  start-up and imports per map) vs three times through one
  ``keep_pool=True`` executor (warm: pay them once).  The warm gain is
  what the serve dispatcher and repeated sweeps actually feel.

Results land in the ``history`` list of ``BENCH_core.json`` as a
``warm_sweep`` entry; ``--smoke`` asserts the sweeps stay identical
across backends with generous ceilings and does not write the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_warm_sweep.py
    PYTHONPATH=src python benchmarks/bench_warm_sweep.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from bench_record import append_entry

from repro.bench.suites import EXAMPLES
from repro.bench.table1 import _row_worker
from repro.dfg.analysis import TimingModel
from repro.dfg.ops import standard_operation_set
from repro.explore import default_budget_ladder, design_space
from repro.library.ncr import datapath_library
from repro.sweep import SweepExecutor, default_workers

EWF_KEY = "ex6"


def ewf_workload():
    spec = EXAMPLES[EWF_KEY]
    dfg = spec.build()
    ops = standard_operation_set(mul_latency=spec.mfsa_mul_latency)
    timing = TimingModel(ops=ops, clock_period_ns=spec.mfsa_clock_ns)
    library = datapath_library()
    budgets = default_budget_ladder(dfg, timing)
    top = budgets[-1]
    while len(budgets) < 8:
        top += 1
        budgets.append(top)
    return dfg, timing, library, budgets


def table1_payloads():
    return [
        (key, case_index)
        for key, spec in EXAMPLES.items()
        for case_index in range(len(spec.table1_cases))
    ]


def measure_backends(repeat):
    dfg, timing, library, budgets = ewf_workload()

    def sweep(backend):
        return design_space(
            dfg, timing, library, budgets=budgets, backend=backend
        )

    serial_points = sweep("serial")
    pooled_points = sweep("process")
    assert pooled_points == serial_points, "pooled sweep diverged from serial"

    serial_s = min(_timed(sweep, "serial") for _ in range(repeat))
    process_s = min(_timed(sweep, "process") for _ in range(repeat))
    return budgets, serial_s, process_s


def _timed(fn, *fn_args):
    start = time.perf_counter()
    fn(*fn_args)
    return time.perf_counter() - start


def measure_pool_warmth(maps):
    payloads = table1_payloads()

    start = time.perf_counter()
    for _ in range(maps):
        # A fresh executor per map: every map pays pool start-up,
        # interpreter imports and context transfer again.
        executor = SweepExecutor(backend="process", workers=None)
        cold = executor.map(_row_worker, payloads)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    with SweepExecutor(
        backend="process", workers=None, keep_pool=True
    ) as executor:
        for _ in range(maps):
            warm = executor.map(_row_worker, payloads)
    warm_s = time.perf_counter() - start

    assert [row.fu_counts for row in warm] == [row.fu_counts for row in cold]
    return len(payloads), cold_s, warm_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI variant: assert backend equivalence, no JSON write",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="best-of repeats for the backend comparison (default 3)",
    )
    parser.add_argument(
        "--maps", type=int, default=3,
        help="consecutive maps for the cold/warm pool contrast (default 3)",
    )
    parser.add_argument(
        "--label", default="warm-sweep",
        help="history-entry label recorded in BENCH_core.json",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="output path (default: repo root BENCH_core.json)",
    )
    args = parser.parse_args(argv)

    cpus = default_workers()
    maps = 2 if args.smoke else args.maps
    budgets, serial_s, process_s = measure_backends(
        1 if args.smoke else args.repeat
    )
    cells, cold_s, warm_s = measure_pool_warmth(maps)

    process_speedup = round(serial_s / process_s, 2) if process_s else 0.0
    warm_gain = round(cold_s / warm_s, 2) if warm_s else 0.0
    print(
        f"EWF sweep over {len(budgets)} budgets ({cpus} cpu): "
        f"serial {serial_s * 1e3:.1f} ms, process {process_s * 1e3:.1f} ms "
        f"-> x{process_speedup} (identical results)"
    )
    print(
        f"table1 x{maps} maps ({cells} cells): cold pools "
        f"{cold_s * 1e3:.1f} ms, warm pool {warm_s * 1e3:.1f} ms "
        f"-> x{warm_gain}"
    )

    if args.smoke:
        # Equivalence asserts already ran; only sanity-check liveness.
        if warm_s <= 0 or process_s <= 0:
            print("FAIL: degenerate timing", file=sys.stderr)
            return 1
        print("smoke OK: backends identical, pools alive")
        return 0

    entry = {
        "cpus": cpus,
        "example": EWF_KEY,
        "sweep_budgets": budgets,
        "sweep_serial_ms": round(serial_s * 1e3, 3),
        "sweep_process_ms": round(process_s * 1e3, 3),
        "sweep_process_speedup": process_speedup,
        "sweep_identical": True,
        "pool_maps": maps,
        "pool_cells_per_map": cells,
        "pool_cold_ms": round(cold_s * 1e3, 3),
        "pool_warm_ms": round(warm_s * 1e3, 3),
        "pool_warm_gain": warm_gain,
        "label": args.label,
    }
    out = append_entry(entry, "warm_sweep", Path(args.out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
