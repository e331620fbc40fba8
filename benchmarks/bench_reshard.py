"""Reshard-cost harness: hit retention, handoff time, cold throughput.

Measures three numbers of the elastic fleet, against a real
:class:`~repro.serve.router.ShardRouter` fleet over sockets:

* **cache-hit retention** — warm a 2-shard fleet with distinct designs,
  grow it to 3 shards through ``POST /admin/shards``, resubmit every
  design, and count the cache hits.  The router L2 is pinned to a
  single entry, so surviving hits can only come from the warm handoff
  into the shards' L1s — the zero-downtime-reshard claim.  Budget:
  **≥ 90 %** retained (in practice 100 %; the handoff is push-before-
  flip, not best-effort invalidation).
* **handoff wall time** — how long the warm push itself took, from the
  router's ``handoff_seconds`` summary.
* **cold throughput** — cache-cold jobs/s through a fresh 2-shard
  fleet, best of ``--trials`` runs (best-of-N is the standard estimate
  of uncontended capability for a throughput microbenchmark).  Compare
  it only with entries recorded on the same ``cpus``.

Results are appended to the ``history`` list of ``BENCH_core.json``;
``--smoke`` runs the retention drill only, gated on the retention floor
and a wall-time budget, and does not touch the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_reshard.py
    PYTHONPATH=src python benchmarks/bench_reshard.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_record import append_entry

from repro.serve import Client, RouterConfig, ShardRouter

RETENTION_FLOOR_PCT = 90.0

#: Distinct-by-constant designs (constants land in the DFG structure,
#: so every design has its own fingerprint and ring position).
DESIGN = """input a b c
t1 = a + {k} * b
t2 = t1 * c
x = t2 - {k2}
output x
"""


def _sources(count, salt=0):
    return [DESIGN.format(k=3 + salt + i, k2=7 + salt + i) for i in range(count)]


def measure_retention(entries, cs):
    """Warm 2 shards, grow to 3, resubmit: % still served as hits."""
    router = ShardRouter(
        RouterConfig(
            port=0,
            shards=2,
            cache_entries=1,  # the router L2 cannot mask a broken handoff
            shard_args=("--serial", "--batch-wait-ms", "2",
                        "--cache-entries", str(max(1024, 2 * entries))),
        )
    )
    handle = router.start_in_thread()
    try:
        client = Client(handle.url, timeout=300.0)
        sources = _sources(entries)
        for source in sources:
            out = client.schedule(source=source, cs=cs, wait=True, timeout=300)
            assert out["result"]["ok"], out

        reshard_start = time.perf_counter()
        added = client.admin_add_shard()
        reshard_s = time.perf_counter() - reshard_start

        hits = 0
        for source in sources:
            again = client.schedule(source=source, cs=cs, wait=True, timeout=300)
            assert again["result"]["ok"], again
            if again["job"]["cache"] == "hit":
                hits += 1
        retention_pct = 100.0 * hits / entries
        handoff_s, _count = router.metrics.summary_value("handoff_seconds")
        return {
            "retention_pct": round(retention_pct, 2),
            "handoff_entries": added["handoff_entries"],
            "handoff_seconds": round(handoff_s, 4),
            "reshard_seconds": round(reshard_s, 3),
        }
    finally:
        handle.stop()


def _cold_trial(jobs, clients, cs, salt):
    """One cache-cold throughput run: jobs/s through a fresh fleet."""
    router = ShardRouter(
        RouterConfig(
            port=0,
            shards=2,
            shard_args=("--serial", "--batch-wait-ms", "2",
                        "--queue-size", str(max(64, jobs))),
        )
    )
    handle = router.start_in_thread()
    try:
        client = Client(handle.url, timeout=300.0)
        for source in _sources(4, salt=10_000):  # warm the processes
            client.schedule(source=source, cs=cs, wait=True, timeout=300)
        sources = _sources(jobs, salt=salt)

        def submit(source):
            out = client.schedule(source=source, cs=cs, wait=True, timeout=300)
            assert out["result"]["ok"], out
            assert out["job"]["cache"] == "miss", out["job"]

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            list(pool.map(submit, sources))
        return jobs / (time.perf_counter() - start)
    finally:
        handle.stop()


def measure_cold_throughput(jobs, clients, cs, trials=3):
    """Best cache-cold jobs/s of ``trials`` fresh 2-shard fleets."""
    return max(
        _cold_trial(jobs, clients, cs, salt=20_000 * (trial + 1))
        for trial in range(trials)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI variant: retention drill only, gated, no JSON write",
    )
    parser.add_argument("--entries", type=int, default=None,
                        help="warm cache entries (default 200, smoke 24)")
    parser.add_argument("--jobs", type=int, default=32,
                        help="jobs per cold-throughput trial (default 32)")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default 8)")
    parser.add_argument("--cs", type=int, default=4)
    parser.add_argument("--trials", type=int, default=3,
                        help="cold-throughput trials, best-of wins "
                             "(default 3)")
    parser.add_argument("--budget", type=float, default=180.0,
                        help="smoke wall-time budget in seconds (default 180)")
    parser.add_argument("--label", default="elastic-fleet",
                        help="history-entry label recorded in BENCH_core.json")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="output path (default: repo root BENCH_core.json)",
    )
    args = parser.parse_args(argv)
    entries = args.entries or (24 if args.smoke else 200)

    start = time.perf_counter()
    retention = measure_retention(entries, args.cs)
    print(
        f"retention: {retention['retention_pct']:.1f}% of {entries} warm "
        f"entries still hits after 2→3 reshard "
        f"({retention['handoff_entries']} handed off in "
        f"{retention['handoff_seconds']:.3f} s)"
    )

    if args.smoke:
        wall = time.perf_counter() - start
        failed = False
        if retention["retention_pct"] < RETENTION_FLOOR_PCT:
            print(
                f"FAIL: retention {retention['retention_pct']:.1f}% "
                f"< {RETENTION_FLOOR_PCT:g}% floor",
                file=sys.stderr,
            )
            failed = True
        if wall > args.budget:
            print(
                f"FAIL: smoke took {wall:.1f} s (budget {args.budget:g} s)",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
        print(f"smoke OK ({wall:.1f} s <= {args.budget:g} s budget)")
        return 0

    rate = measure_cold_throughput(
        args.jobs, args.clients, args.cs, trials=args.trials
    )
    print(f"cold throughput: {rate:.1f} jobs/s (best of {args.trials} trials)")
    assert retention["retention_pct"] >= RETENTION_FLOOR_PCT, retention

    entry = {
        "benchmark": "reshard",
        "label": args.label,
        "entries": entries,
        "jobs": args.jobs,
        "clients": args.clients,
        "trials": args.trials,
        "cpus": os.cpu_count(),
        "cs": args.cs,
        "retention_pct": retention["retention_pct"],
        "handoff_entries": retention["handoff_entries"],
        "handoff_seconds": retention["handoff_seconds"],
        "reshard_seconds": retention["reshard_seconds"],
        "cold_jobs_per_s": round(rate, 2),
    }
    out = append_entry(entry, "reshard", Path(args.out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
