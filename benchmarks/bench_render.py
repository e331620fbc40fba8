"""Render harness: the result texts, walked directly against the encoder; emits BENCH_core.json.

Every MFS or MFSA answer leaves as three texts, each rendered once in
the worker: the ``repro-schedule`` or ``repro-synthesis`` document
(``schedule_to_json`` / ``synthesis_to_json``, ``indent=2``) and the
sorted ``response_text`` around it.  A client's ``wait=1`` answer then
splices the stored text into the compact envelope
(``JobAnswer.body``).  Per design this times each against the
``json.dumps`` call whose bytes it reproduces:

* **result** — ``json.dumps(_schedule_payload(...), indent=2)`` (or
  ``_synthesis_payload``) against ``schedule_to_json`` (or
  ``synthesis_to_json``), which walks the same payload;
* **response** — ``json.dumps(payload, sort_keys=True, indent=2)``
  against ``response_text``, over the payload a worker builds;
* **envelope** — ``json.dumps({"job": ..., "result":
  json.loads(text)}, sort_keys=True)`` against the splice.

Each figure is a per-design median over ``--rounds`` passes, averaged
over a tier:

* ``paper`` — the six paper examples, MFS and MFSA at their Table 2
  parameters;
* ``small`` — seeded 12–47-op ``random_dfg`` and
  ``random_conditional_dfg`` designs;
* ``large`` — seeded 100–400-op ``random_dfg`` and ``layered_workload``
  designs.

Results land in the ``history`` list of ``BENCH_core.json`` as a
``render`` entry with ``cpus``.  ``--smoke`` makes one pass, writes
nothing, and fails unless every direct text equals the encoder's.

Usage::

    PYTHONPATH=src python benchmarks/bench_render.py
    PYTHONPATH=src python benchmarks/bench_render.py --smoke
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

from bench_record import append_entry

from repro.bench.suites import EXAMPLES
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import layered_workload, random_conditional_dfg, random_dfg
from repro.dfg.ops import standard_operation_set
from repro.io import jsonio
from repro.library.ncr import datapath_library
from repro.serve.httpcore import JobAnswer
from repro.serve.jobs import response_text
from repro.sweep import default_workers

PARTS = ("result", "response", "envelope")


def _run(algorithm, dfg, mul_latency=1, clock_ns=None, cs=None):
    """``(payload, encoder, direct)``: the worker's payload, and the two
    renderings of its result document (each builds what it renders)."""
    timing = TimingModel(
        ops=standard_operation_set(mul_latency=mul_latency),
        clock_period_ns=clock_ns,
    )
    cs = cs or critical_path_length(dfg, timing) + 2
    if algorithm == "mfs":
        done = MFSScheduler(dfg, timing, cs=cs, mode="time").run().schedule
        build, render = jsonio._schedule_payload, jsonio.schedule_to_json
    else:
        done = MFSAScheduler(dfg, timing, datapath_library(), cs=cs).run()
        build, render = jsonio._synthesis_payload, jsonio.synthesis_to_json
    result = build(done)
    payload = {
        "ok": True,
        "algorithm": algorithm,
        "design": dfg.name,
        "cs": cs,
        "result": result,
    }
    return (
        payload,
        lambda: json.dumps(build(done), indent=2),
        lambda: render(done),
    )


def paper_runs():
    runs = []
    for example in EXAMPLES.values():
        for algorithm in ("mfs", "mfsa"):
            runs.append(_run(
                algorithm, example.build(), example.mfsa_mul_latency,
                example.mfsa_clock_ns, example.mfsa_cs,
            ))
    return runs


def small_runs(seed, count):
    rng = random.Random(f"small-{seed}")
    runs = []
    for index in range(count):
        n_ops = rng.randint(12, 47)
        if index % 2:
            dfg = random_conditional_dfg(seed=seed * 1000 + index, n_ops=n_ops)
        else:
            dfg = random_dfg(seed=seed * 1000 + index, n_ops=n_ops,
                             n_inputs=rng.randint(3, 8))
        runs.append(_run(("mfs", "mfsa")[index % 2], dfg))
    return runs


def large_runs(seed, count):
    rng = random.Random(f"large-{seed}")
    runs = []
    for index in range(count):
        if index % 2:
            width = rng.randint(10, 20)
            dfg = layered_workload(seed=seed * 1000 + index,
                                   layers=rng.randint(100, 400) // width,
                                   width=width)
        else:
            dfg = random_dfg(seed=seed * 1000 + index,
                             n_ops=rng.randint(100, 400),
                             n_inputs=rng.randint(8, 16), locality=12)
        runs.append(_run(("mfs", "mfsa")[index % 2], dfg))
    return runs


def _envelope_info(payload):
    """A job description shaped like a finished job's."""
    return {"id": "j00001-00000000", "status": "done", "cache": "miss",
            "algorithm": payload["algorithm"], "key": "0" * 64,
            "fingerprint": "f" * 64, "queue_seconds": 0.000123,
            "run_seconds": 0.012345, "total_seconds": 0.012468}


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def time_run(payload, encoder, direct):
    """Seconds of each encoder call and its direct rendering, for one design."""
    text = response_text(payload)
    info = _envelope_info(payload)
    return {
        "result_encoder": _timed(encoder),
        "result_direct": _timed(direct),
        "response_encoder": _timed(
            lambda: json.dumps(payload, sort_keys=True, indent=2) + "\n"),
        "response_direct": _timed(lambda: response_text(payload)),
        "envelope_encoder": _timed(lambda: json.dumps(
            {"job": info, "result": json.loads(text)}, sort_keys=True) + "\n"),
        "envelope_direct": _timed(lambda: JobAnswer(info, text).body()),
    }


def measure_tier(runs, rounds):
    """Per-tier mean of each design's median milliseconds."""
    samples = [[time_run(*run) for _ in range(rounds)] for run in runs]
    tier = {
        "designs": len(runs),
        "ops_mean": round(statistics.mean(
            len(payload["result"]["starts"]) for payload, _e, _d in runs), 1),
    }
    for part in PARTS:
        for side in ("encoder", "direct"):
            name = f"{part}_{side}"
            tier[f"{name}_ms"] = round(statistics.mean(
                statistics.median(s[name] for s in design) * 1e3
                for design in samples), 4)
        tier[f"{part}_speedup"] = round(
            tier[f"{part}_encoder_ms"] / tier[f"{part}_direct_ms"], 2)
    return tier


def check_bytes(runs):
    """Every direct text equals the encoder's; returns how many were
    checked, or raises ``SystemExit`` naming the first that does not."""
    for payload, encoder, direct in runs:
        text = response_text(payload)
        info = _envelope_info(payload)
        pairs = {
            "result": (direct(), encoder()),
            "response": (text, json.dumps(payload, sort_keys=True, indent=2) + "\n"),
            "envelope": (JobAnswer(info, text).body(), (json.dumps(
                {"job": info, "result": json.loads(text)}, sort_keys=True
            ) + "\n").encode("utf-8")),
        }
        for part, (got, expected) in pairs.items():
            if got != expected:
                raise SystemExit(
                    f"FAIL: {part} text of {payload['design']!r} differs "
                    "from the encoder's")
    return len(PARTS) * len(runs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one pass, every text checked against the "
                             "encoder's, nothing written")
    parser.add_argument("--rounds", type=int, default=31,
                        help="passes over every design (median per design)")
    parser.add_argument("--small", type=int, default=24,
                        help="seeded 12-47-op designs")
    parser.add_argument("--large", type=int, default=12,
                        help="seeded 100-400-op designs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--label", default="render")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"))
    args = parser.parse_args(argv)

    tiers = {
        "paper": paper_runs(),
        "small": small_runs(args.seed, args.small),
        "large": large_runs(args.seed, args.large),
    }
    rounds = 1 if args.smoke else args.rounds
    results = {}
    for name, runs in tiers.items():
        results[name] = row = measure_tier(runs, rounds)
        print(f"{name:>5}: {row['designs']} designs, ~{row['ops_mean']:g} ops; "
              + "; ".join(
                  f"{part} {row[f'{part}_encoder_ms']:.3f} -> "
                  f"{row[f'{part}_direct_ms']:.3f} ms "
                  f"({row[f'{part}_speedup']:.2f}x)"
                  for part in PARTS))
    if args.smoke:
        checked = sum(check_bytes(runs) for runs in tiers.values())
        print(f"smoke OK ({checked} texts equal the encoder's)")
        return 0
    entry = {
        "label": args.label,
        "cpus": default_workers(),
        "rounds": rounds,
        "seed": args.seed,
        "tiers": results,
    }
    out = append_entry(entry, "render", Path(args.out))
    print(f"appended to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
