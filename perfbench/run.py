"""Benchmark entry point.

    python3 perfbench/run.py --workload compile_paper --seed 1 --seconds 20 --trace 0

Runs one workload against the program in ``src/`` of the checkout this
file sits in, checks every output, and prints as its last stdout line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones and writes the run's spans to ``.perfbench/``.  The line before it
holds diagnostics (raw timings, probe readings, per-layer self times).
Exits non-zero, printing no result, when the program is missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("compile_paper", "compile_large", "serve_fleet")


def locate_program() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def result_line(outcome: dict, trace: bool) -> dict:
    import metrics

    names, values = (
        (metrics.PER_LAYER, outcome["per_layer"]) if trace
        else (metrics.END_TO_END, outcome["end_to_end"])
    )
    failed = outcome["failed"]
    if not trace and set(values) != set(names):
        failed = max(1, failed)
    return {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {
            # Per-layer metrics of layers a workload never reaches read 0.
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_program()
    if args.workload == "serve_fleet":
        import fleet

        if args.setup_sample:
            raise SystemExit("perfbench: --setup-sample is for compile workloads")
        outcome = fleet.run_workload(args.seed, args.seconds, bool(args.trace), OUT)
    else:
        import compiles

        if args.setup_sample:
            print(json.dumps(compiles.setup_sample(compiles.Run(args.workload), STARTED)))
            return 0
        outcome = compiles.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), OUT, STARTED
        )
    print(json.dumps({"diagnostics": outcome["diagnostics"],
                      "errors": outcome["errors"]}))
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
