"""Scenario-matrix throughput: serial vs warm process pool, BENCH_core.json.

One measurement around :func:`repro.scenarios.run_matrix`: a fixed
smoke-sized matrix (two generator families × seeds × three schedulers)
is run on the serial backend and again through a warm process pool
(``keep_pool=True`` via repeated maps would hide expansion cost, so the
matrix runs whole each time — what the CI ``scenario-smoke`` job and a
developer's ``repro-hls scenarios run --parallel`` actually pay).
Grids are asserted byte-identical across backends before any timing is
recorded — a pool that changed the bytes would be a correctness bug,
not a performance number.

The history entry records ``scenarios_per_s`` for both backends plus
``cpus`` (a single-core box documents pool overhead, not scaling).
``--smoke`` asserts equivalence with generous ceilings and writes
nothing.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench_record import append_entry

from repro.scenarios import expand_matrix, grid_payload, normalize_config, run_matrix
from repro.sweep import default_workers

MATRIX = {
    "name": "bench",
    "seeds": [1, 2, 3],
    "generators": [
        "random:ops=24:mix=mul*2+add+sub:cond=1",
        "layered:layers=5:width=4",
    ],
    "schedulers": ["mfs", "mfsa", "list"],
}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def measure(repeat):
    config = normalize_config(MATRIX)
    n_scenarios = len(expand_matrix(config))

    serial_run, _ = _timed(lambda: run_matrix(config, backend="serial"))
    pooled_run, _ = _timed(lambda: run_matrix(config, backend="process"))
    serial_grid = json.dumps(grid_payload(serial_run), sort_keys=True)
    pooled_grid = json.dumps(grid_payload(pooled_run), sort_keys=True)
    assert serial_grid == pooled_grid, "pooled grid diverged from serial"

    serial_s = min(
        _timed(lambda: run_matrix(config, backend="serial"))[1]
        for _ in range(repeat)
    )
    pooled_s = min(
        _timed(lambda: run_matrix(config, backend="process"))[1]
        for _ in range(repeat)
    )
    return n_scenarios, serial_s, pooled_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI variant: assert backend equivalence, no JSON write",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="best-of repeats per backend (default 3)",
    )
    parser.add_argument(
        "--label", default="scenarios",
        help="history-entry label recorded in BENCH_core.json",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="output path (default: repo root BENCH_core.json)",
    )
    args = parser.parse_args(argv)

    cpus = default_workers()
    n_scenarios, serial_s, pooled_s = measure(1 if args.smoke else args.repeat)
    serial_rate = round(n_scenarios / serial_s, 2) if serial_s else 0.0
    pooled_rate = round(n_scenarios / pooled_s, 2) if pooled_s else 0.0
    print(
        f"{n_scenarios}-scenario matrix ({cpus} cpu): "
        f"serial {serial_s * 1e3:.1f} ms ({serial_rate}/s), "
        f"process {pooled_s * 1e3:.1f} ms ({pooled_rate}/s), "
        f"grids byte-identical"
    )

    if args.smoke:
        if serial_s <= 0 or pooled_s <= 0:
            print("FAIL: degenerate timing", file=sys.stderr)
            return 1
        print("smoke OK: backends byte-identical, matrix alive")
        return 0

    entry = {
        "cpus": cpus,
        "scenarios": n_scenarios,
        "serial_ms": round(serial_s * 1e3, 3),
        "process_ms": round(pooled_s * 1e3, 3),
        "serial_scenarios_per_s": serial_rate,
        "process_scenarios_per_s": pooled_rate,
        "grids_identical": True,
        "label": args.label,
    }
    out = append_entry(entry, "scenarios", Path(args.out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
