"""Serve-throughput harness: measures the synthesis service, emits BENCH_core.json.

Boots one embedded :class:`~repro.serve.app.ServeApp` per configuration
and measures, over real sockets:

* **batching throughput** — jobs/sec for a fleet of distinct MFSA jobs
  submitted by concurrent clients, at ``max_batch`` 1 / 4 / 16.  At
  batch 1 every job runs serially in-process; larger batches (the jobs
  queued behind a running one) fan out through the warm process pool,
  so the ratio is the measured gain of micro-batched dispatch;
* **cache-hit latency** — round-trip time of a repeated submission
  (served from the content-addressed cache) against the cold run of the
  same job, giving the cache-hit speedup.

Results are appended to the ``history`` list of ``BENCH_core.json``;
``--smoke`` runs a quick variant with generous ceilings for CI and does
not touch the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_record import append_entry

from repro.serve import Client, ServeApp
from repro.sweep import default_workers

#: Distinct-by-constant behavioral designs: constant ``k`` lands in the
#: DFG structure, so every job has its own fingerprint (no cache hits).
DESIGN = """input a b c d
t1 = a + {k} * b
t2 = t1 * c
t3 = t2 - {k2}
t4 = t3 * d
x = t4 + t1
output x
"""


def _sources(count):
    return [DESIGN.format(k=3 + i, k2=5 + i) for i in range(count)]


def measure_throughput(jobs, clients, max_batch, cs):
    """Jobs/sec for ``jobs`` distinct MFSA submissions at one batch size."""
    app = ServeApp(port=0, max_batch=max_batch, queue_size=max(64, jobs))
    handle = app.start_in_thread()
    try:
        client = Client(handle.url)
        sources = _sources(jobs)
        # The batcher dispatches nothing until its pool has started, so
        # once this job is answered the timed region starts with a warm
        # pool.  The lone job itself runs in-process.
        client.synth(source="input a b\nx = a * b\noutput x", cs=2)

        def submit(source):
            out = client.synth(source=source, cs=cs, wait=True, timeout=300)
            assert out["result"]["ok"], out
            return out

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            results = list(pool.map(submit, sources))
        elapsed = time.perf_counter() - start
        assert len(results) == jobs
        assert app.metrics.counter_value("jobs_executed") == jobs + 1
        batches = app.metrics.counter_value("batches")
        return jobs / elapsed, elapsed, int(batches) - 1
    finally:
        handle.stop()


def measure_cache_hit(repeat, cs):
    """Cold latency vs best-of cache-hit latency for one job."""
    app = ServeApp(port=0)
    handle = app.start_in_thread()
    try:
        client = Client(handle.url)
        source = _sources(1)[0]
        start = time.perf_counter()
        cold = client.synth(source=source, cs=cs, wait=True)
        cold_s = time.perf_counter() - start
        assert cold["job"]["cache"] == "miss"

        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            warm = client.synth(source=source, cs=cs, wait=True)
            best = min(best, time.perf_counter() - start)
            assert warm["job"]["cache"] == "hit"
        raw_cold = client.result_text(cold["job"]["id"])
        raw_warm = client.result_text(warm["job"]["id"])
        assert raw_cold == raw_warm
        return cold_s, best
    finally:
        handle.stop()


def measure(jobs, clients, repeat, cs=6):
    throughput = {}
    for max_batch in (1, 4, 16):
        jps, elapsed, batches = measure_throughput(jobs, clients, max_batch, cs)
        throughput[max_batch] = jps
        print(
            f"max_batch={max_batch:>2}: {jobs} jobs in {elapsed:.2f} s "
            f"({jps:.1f} jobs/s, {batches} batches)"
        )
    cold_s, hit_s = measure_cache_hit(repeat, cs)
    print(
        f"cache: cold {cold_s * 1e3:.2f} ms, hit {hit_s * 1e3:.3f} ms "
        f"-> {cold_s / hit_s:.0f}x"
    )
    return {
        "jobs": jobs,
        "clients": clients,
        "cpus": default_workers(),
        "cs": cs,
        "batch1_jobs_per_s": round(throughput[1], 2),
        "batch4_jobs_per_s": round(throughput[4], 2),
        "batch16_jobs_per_s": round(throughput[16], 2),
        "batching_gain": round(throughput[16] / throughput[1], 2),
        "cold_ms": round(cold_s * 1e3, 3),
        "cache_hit_ms": round(hit_s * 1e3, 3),
        "cache_speedup": round(cold_s / hit_s, 1),
        "benchmark": "serve_throughput",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI variant: fewer jobs, sanity ceilings, no JSON write",
    )
    parser.add_argument("--jobs", type=int, default=None,
                        help="distinct jobs per throughput run (default 480, smoke 8)")
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent client threads (default 16)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="cache-hit best-of repeats (default 20, smoke 5)")
    parser.add_argument("--label", default="serve-layer",
                        help="history-entry label recorded in BENCH_core.json")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="output path (default: repo root BENCH_core.json)",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs or (8 if args.smoke else 480)
    repeat = args.repeat or (5 if args.smoke else 20)

    entry = measure(jobs, args.clients, repeat)
    entry["label"] = args.label

    if args.smoke:
        # Generous ceilings — only complexity blowups should trip them.
        if entry["cache_hit_ms"] > 200.0:
            print(
                f"FAIL: cache hit took {entry['cache_hit_ms']:.1f} ms "
                "(ceiling 200 ms)",
                file=sys.stderr,
            )
            return 1
        if entry["cache_speedup"] < 1.0:
            print("FAIL: cache hit slower than cold run", file=sys.stderr)
            return 1
        print(
            f"smoke OK: hit {entry['cache_hit_ms']:.2f} ms, "
            f"{entry['cache_speedup']:.0f}x vs cold"
        )
        return 0

    out = append_entry(entry, "serve_throughput", Path(args.out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
