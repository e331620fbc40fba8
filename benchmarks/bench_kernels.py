"""Kernel-scaling harness: scalar, vector and auto MFS/MFSA, emits BENCH_core.json.

Times the scheduler under each move-frame walk (see
:mod:`repro.core.kernel`): the pure-python scalar reference and the numpy
bitmask vector walk, each forced for every frame, and ``auto``, which
picks one of them per operation by frame size.  The workloads are seeded
layered designs of 100, 1 000 and 10 000 operations.  The time budget
uses generous slack (``cs = critical_path + slack``): tall move-frame
grids are exactly the regime where the candidate scan dominates and the
vector walk pays.

Before any timing, every tier asserts that all timed walks produce
byte-identical JSON (schedule, and datapath for MFSA) and equal
trajectories — the numbers are only comparable because the designs are
equal.  Timings are best-of-N around ``scheduler.run()`` with default
options (move-frame alternatives off); a run keeps every cache to
itself, so every walk starts cache-cold.

The 10k-op scalar rows are skipped by default (the scalar MFSA run is
minutes of wall clock); ``--full`` measures them too.  Results land in
the ``history`` list of ``BENCH_core.json`` as a ``kernel_scaling``
entry carrying ``cpus``; ``--smoke`` runs one ``auto`` MFSA run on the
100-op tier and one ``auto`` MFS and MFSA run each on the 1k-op tier,
each against a checked-in wall-clock budget (fail at 2x), and does not
write the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke
    PYTHONPATH=src python benchmarks/bench_kernels.py --full
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from bench_record import append_entry

from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import layered_workload
from repro.dfg.ops import standard_operation_set
from repro.io.jsonio import schedule_to_json, synthesis_to_json
from repro.library.ncr import datapath_library
from repro.sweep import default_workers

SEED = 7

#: The timed walks: two forced, then the per-operation pick.
WALKS = ("scalar", "vector", "auto")

#: (ops -> layers, width, slack).  slack is added to the critical path.
#: The 10k tier uses modest slack (grid height drives cost for *both*
#: walks) and, by default, skips the forced scalar walk — its rows there
#: are minutes of wall clock and need ``--full``.
TIERS = [
    {"ops": 100, "layers": 5, "width": 20, "slack": 40, "repeat": 5},
    {"ops": 1000, "layers": 25, "width": 40, "slack": 400, "repeat": 3},
    {"ops": 10000, "layers": 50, "width": 200, "slack": 10, "repeat": 1,
     "scalar_needs_full": True},
]

#: Smoke budget for one cache-cold ``auto`` MFSA run on the 100-op tier.
#: No operation there opens the 48 columns MFSA's vector-walk gate asks
#: for, so all 116 frames take the scalar walk, each stopped at the first
#: step that cannot win.  Measured ~14 ms on a 2-vCPU VM; CI fails the
#: perf-smoke job only when the wall time regresses past 2x this budget,
#: so noise and slower runners don't trip it but complexity regressions
#: in the walks do.
SMOKE_BUDGET_MS = 150.0

#: Smoke budget for one default-options ``auto`` MFS run on the 1k-op
#: tier.  Measured 82 ms on a 2-vCPU VM; recording every move frame's
#: alternatives, as every run did before they went off by default, takes
#: it to about 2 s, past 2x this budget.
SMOKE_MFS_1K_BUDGET_MS = 250.0

#: Smoke budget for one cache-cold, default-options ``auto`` MFSA run on
#: the 1k-op tier: 400-step frames the scalar walk stops at the first
#: step that cannot win.  Measured 335–463 ms on a 2-vCPU VM (6
#: alternating repeats), 44 % of it under cProfile the §5.6 optimiser's
#: 460 runs on probes that share a signal with an instance; building and
#: pricing those frames whole with the scalar walk takes about 3 s, past
#: 2x this budget.
SMOKE_MFSA_1K_BUDGET_MS = 750.0


def best_of(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_tier(tier):
    timing = TimingModel(ops=standard_operation_set())
    dfg = layered_workload(
        seed=SEED, layers=tier["layers"], width=tier["width"]
    )
    cs = critical_path_length(dfg, timing) + tier["slack"]
    library = datapath_library()
    return dfg, timing, library, cs


def runners(dfg, timing, library, cs, kern):
    mfs = lambda: MFSScheduler(  # noqa: E731
        dfg, timing, cs=cs, mode="time", kernel=kern
    ).run()
    mfsa = lambda: MFSAScheduler(  # noqa: E731
        dfg, timing, library, cs=cs, kernel=kern
    ).run()
    return mfs, mfsa


def assert_identical(walks, ops):
    """Every walk emits the same JSON bytes and trajectory."""
    for index, (what, encode) in enumerate(
        (("MFS", lambda r: schedule_to_json(r.schedule)),
         ("MFSA", synthesis_to_json))
    ):
        outputs = {}
        for kern, run in walks.items():
            result = run[index]()
            outputs[kern] = (encode(result), result.trajectory)
        first = next(iter(outputs.values()))
        for kern, output in outputs.items():
            assert output == first, f"{what} @{ops} ops: {kern} walk diverges"


def measure_tier(tier, full):
    dfg, timing, library, cs = build_tier(tier)
    timed = [
        kern for kern in WALKS
        if kern != "scalar" or full or not tier.get("scalar_needs_full")
    ]
    row = {
        "ops": len(dfg),
        "layers": tier["layers"],
        "width": tier["width"],
        "cs": cs,
        "repeat": tier["repeat"],
    }
    walks = {kern: runners(dfg, timing, library, cs, kern) for kern in timed}
    # Equivalence guard before any timing.
    assert_identical(walks, len(dfg))
    row["identical"] = True

    for kern in WALKS:
        for index, algorithm in enumerate(("mfs", "mfsa")):
            row[f"{algorithm}_{kern}_ms"] = (
                round(best_of(walks[kern][index], tier["repeat"]) * 1e3, 1)
                if kern in walks
                else None
            )
    for algorithm in ("mfs", "mfsa"):
        scalar_ms = row[f"{algorithm}_scalar_ms"]
        row[f"{algorithm}_speedup"] = (
            round(scalar_ms / row[f"{algorithm}_vector_ms"], 2)
            if scalar_ms
            else None
        )
    return row


def smoke():
    # The vector walk imports numpy on first use (~120-150 ms here).  No
    # budget is for that one-time import: the 100-op MFSA run no longer
    # takes the vector walk, so without this the 1k-op MFS run would pay it.
    import numpy  # noqa: F401

    failed = 0
    for tier, algorithm, budget_ms in (
        (TIERS[0], "MFSA", SMOKE_BUDGET_MS),
        (TIERS[1], "MFS", SMOKE_MFS_1K_BUDGET_MS),
        (TIERS[1], "MFSA", SMOKE_MFSA_1K_BUDGET_MS),
    ):
        dfg, timing, library, cs = build_tier(tier)
        mfs, mfsa = runners(dfg, timing, library, cs, "auto")
        start = time.perf_counter()
        (mfsa if algorithm == "MFSA" else mfs)()
        elapsed_ms = (time.perf_counter() - start) * 1e3
        ceiling = 2 * budget_ms
        what = (
            f"{len(dfg)}-op {algorithm} "
            f"(auto: scalar or vector walk per operation)"
        )
        if elapsed_ms > ceiling:
            print(
                f"FAIL: {what} took {elapsed_ms:.1f} ms, over 2x the "
                f"{budget_ms:.0f} ms budget",
                file=sys.stderr,
            )
            failed = 1
        else:
            print(
                f"smoke OK: {what} {elapsed_ms:.1f} ms <= {ceiling:.0f} ms "
                f"ceiling"
            )
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI variant: 100-op MFSA and 1k-op MFS and MFSA only, assert "
        "their wall-clock budgets (2x headroom), do not write BENCH_core.json",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="also measure the scalar kernel on the 10k-op tier "
        "(minutes of wall clock)",
    )
    parser.add_argument(
        "--label", default="vector-kernel",
        help="history-entry label recorded in BENCH_core.json",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="output path (default: repo root BENCH_core.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()

    tiers = []
    for tier in TIERS:
        row = measure_tier(tier, args.full)
        tiers.append(row)
        print(
            f"{row['ops']:>6} ops (cs={row['cs']}): "
            + "; ".join(
                f"{algorithm.upper()} "
                + ", ".join(
                    f"{kern} {row[f'{algorithm}_{kern}_ms']} ms" for kern in WALKS
                )
                for algorithm in ("mfs", "mfsa")
            )
        )

    entry = {
        "seed": SEED,
        "cpus": default_workers(),
        "tiers": tiers,
        "smoke_budget_ms": SMOKE_BUDGET_MS,
        "label": args.label,
    }
    out = append_entry(entry, "kernel_scaling", Path(args.out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
