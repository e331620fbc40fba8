"""Shard-scaling harness: jobs/s vs shard count, emits BENCH_core.json.

Boots a :class:`~repro.serve.router.ShardRouter` fleet at 1 / 2 / 4
worker shards and measures, over real sockets through the router,
jobs/sec for a cache-cold uniform workload of distinct MFSA jobs
(distinct DFG fingerprints → consistent hashing spreads them across the
fleet, and no submission can be served from either cache tier).
Each fleet run pushes 480 jobs by default, 1-2 s of work on a 2-vCPU
host; at 48 (about 0.2 s) two shards read slower than one.  Even at
480 the ratios move from run to run, so read several runs, not one.

Every shard runs ``--serial`` — one synthesis at a time in the shard
process — so the shard count is the *only* parallelism axis and the
curve measures exactly what sharding buys.  On a multi-core box the
scaling is near-linear until shards ≥ cores; the recorded ``cpus``
field is what a reader needs to interpret the ratios (on a single-core
container the shards time-share one CPU, so jobs/s stays roughly flat
and only the router-overhead delta is visible — same caveat as the
``warm_sweep`` and ``serve_throughput`` history entries).

Results are appended to the ``history`` list of ``BENCH_core.json``;
``--smoke`` runs a quick 2-shard variant gated on a wall-time budget
for CI and does not touch the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_record import append_entry

from repro.serve import Client, RouterConfig, ShardRouter
from repro.sweep import default_workers

#: Distinct-by-constant designs: the constants land in the DFG
#: structure, so every job has its own fingerprint (cache-cold, and
#: uniformly spread over the ring).
DESIGN = """input a b c d
t1 = a + {k} * b
t2 = t1 * c
t3 = t2 - {k2}
t4 = t3 * d
x = t4 + t1
output x
"""


def _sources(count, salt=0):
    return [DESIGN.format(k=3 + salt + i, k2=5 + salt + i) for i in range(count)]


def measure_fleet(shards, jobs, clients, cs):
    """Jobs/sec through the router at one shard count (cache-cold)."""
    router = ShardRouter(
        RouterConfig(
            port=0,
            shards=shards,
            shard_args=("--serial", "--queue-size", str(max(64, jobs))),
        )
    )
    handle = router.start_in_thread()
    try:
        client = Client(handle.url, timeout=300.0)
        # Warm every shard's process (imports, memos) outside the
        # timed region; the warmers use a salt far from the workload.
        for source in _sources(2 * shards, salt=10_000):
            client.synth(source=source, cs=cs, wait=True, timeout=300)

        sources = _sources(jobs)

        def submit(source):
            out = client.synth(source=source, cs=cs, wait=True, timeout=300)
            assert out["result"]["ok"], out
            assert out["job"]["cache"] == "miss", out["job"]
            return out["job"]["shard"]

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            placed = list(pool.map(submit, sources))
        elapsed = time.perf_counter() - start
        assert len(placed) == jobs
        used = sorted(set(placed))
        return jobs / elapsed, elapsed, used
    finally:
        handle.stop()


def measure(jobs, clients, cs=6, shard_counts=(1, 2, 4)):
    throughput = {}
    for shards in shard_counts:
        jps, elapsed, used = measure_fleet(shards, jobs, clients, cs)
        throughput[shards] = jps
        print(
            f"shards={shards}: {jobs} jobs in {elapsed:.2f} s "
            f"({jps:.1f} jobs/s, {len(used)} shard(s) used)"
        )
    base = shard_counts[0]
    entry = {
        "benchmark": "shard_scaling",
        "jobs": jobs,
        "clients": clients,
        "cpus": default_workers(),
        "cs": cs,
    }
    for shards in shard_counts:
        entry[f"shard{shards}_jobs_per_s"] = round(throughput[shards], 2)
        if shards != base:
            entry[f"scaling_{shards}x"] = round(
                throughput[shards] / throughput[base], 2
            )
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI variant: 2-shard fleet, wall-time budget, no JSON write",
    )
    parser.add_argument("--jobs", type=int, default=None,
                        help="distinct jobs per fleet run (default 480, smoke 8)")
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent client threads (default 16)")
    parser.add_argument("--budget", type=float, default=120.0,
                        help="smoke wall-time budget in seconds (default 120)")
    parser.add_argument("--label", default="serve-shards",
                        help="history-entry label recorded in BENCH_core.json")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="output path (default: repo root BENCH_core.json)",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs or (8 if args.smoke else 480)

    if args.smoke:
        start = time.perf_counter()
        jps, elapsed, used = measure_fleet(2, jobs, args.clients, cs=6)
        wall = time.perf_counter() - start
        print(
            f"smoke: {jobs} jobs through a 2-shard fleet in {elapsed:.2f} s "
            f"({jps:.1f} jobs/s, {len(used)} shard(s) used, "
            f"{wall:.1f} s wall incl. boot)"
        )
        if wall > args.budget:
            print(
                f"FAIL: 2-shard smoke took {wall:.1f} s "
                f"(budget {args.budget:g} s)",
                file=sys.stderr,
            )
            return 1
        print(f"smoke OK ({wall:.1f} s <= {args.budget:g} s budget)")
        return 0

    entry = measure(jobs, args.clients)
    entry["label"] = args.label
    out = append_entry(entry, "shard_scaling", Path(args.out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
