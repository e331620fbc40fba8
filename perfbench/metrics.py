"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names; the self-tests keep the two in
step.  Every workload prints every metric: an end-to-end metric has a
meaning on each workload (see README.md), and a per-layer metric of a
layer the workload does not reach reads 0.
"""

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "hit_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "area_um2_mean": "um2",
    "fu_count_mean": "count",
}

PER_LAYER = {
    # repro.dfg / repro.io
    "dfg.decode_ms": "ms",
    "io.encode_ms": "ms",
    # repro.core
    "core.mfs_ms": "ms",
    "core.mfsa_ms": "ms",
    "core.candidates_per_op": "count",
    "core.frames_per_op": "count",
    "core.reschedules_per_op": "count",
    "core.vector_share": "ratio",
    # repro.allocation (inside MFSA)
    "allocation.mux_memo_hit_ratio": "ratio",
    "core.operand_cache_hit_ratio": "ratio",
    "core.reg_cache_hit_ratio": "ratio",
    # repro.check / repro.sim
    "check.audit_ms": "ms",
    "sim.verify_ms": "ms",
    # repro.serve, router side
    "router.l2_hit_ratio": "ratio",
    "router.overhead_ms_mean": "ms",
    "router.replica_puts_per_miss": "count",
    "router.replica_probe_hit_share": "ratio",
    # repro.serve, shard side
    "serve.queue_ms_mean": "ms",
    "serve.execute_ms_mean": "ms",
    "serve.scheduler_ms_per_job": "ms",
    "serve.batch_size_mean": "count",
    "serve.l1_hit_ratio": "ratio",
    "serve.backpressure": "count",
    # repro.sweep
    "sweep.map_ms_per_job": "ms",
    # repro.resilience
    "resilience.journal_writes_per_job": "count",
    # harness diagnostics
    "host.probe_ms": "ms",
    "host.steal_share": "ratio",
    "raw.latency_ms_p50": "ms",
    "raw.latency_ms_p90": "ms",
    "raw.hit_ms_p50": "ms",
    "raw.setup_s": "s",
    "loadgen.late_ms_p90": "ms",
    # the traced run itself
    "trace.latency_ms_p50": "ms",
    "trace.overhead_share": "ratio",
    "trace.coverage_min": "ratio",
}
