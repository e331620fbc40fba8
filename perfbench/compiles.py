"""compile_paper and compile_large: in-process MFS/MFSA compiles.

One op is what ``repro.serve.jobs.execute_spec`` does for a request,
called one layer at a time: decode the ``repro-dfg`` JSON
(``repro.io``/``repro.dfg``), run MFS or MFSA (``repro.core``, with
``repro.allocation`` inside MFSA), encode the canonical response
(``repro.io`` + ``response_text``).  A host-speed probe runs before each
op; the oracle (``repro.sim``, ``repro.check``) and the in-process hit
path (``repro.serve`` cache key + lookup) run after it, outside its time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from itertools import chain, islice
from pathlib import Path
from typing import Dict, List, Optional

import designs
import harness

#: Designs each workload runs before timing starts (fixed, seed-free).
WARMUP = {"compile_paper": 6, "compile_large": 3}

#: Fixed, seed-free designs that open every compile_large run; QoR and
#: the exact counters are taken over them (compile_paper uses the paper
#: examples).
LARGE_FIXED = 12

#: compile_large audits only these first fixed designs: the audit grows
#: faster with design size than the synthesis it checks.
LARGE_AUDITED = 4

#: Seeded input vectors simulated per op.
VECTORS = 2

#: Setup measurements per run (this process plus fresh subprocesses).
SETUP_SAMPLES = 3

#: Share of an op span its decode/schedule/encode children must cover.
MIN_COVERAGE = 0.97

#: Capacity of the result cache the in-process hit path goes through.
HIT_CACHE_ENTRIES = 256


class Program:
    """The program's entry points, imported during setup."""

    def __init__(self) -> None:
        from repro.check import check_mfs_result, check_mfsa_result
        from repro.core import kernel
        from repro.core.mfs import MFSScheduler
        from repro.core.mfsa import MFSAScheduler
        from repro.dfg.analysis import TimingModel
        from repro.dfg.ops import standard_operation_set
        from repro.io.jsonio import dfg_from_json, schedule_to_json, synthesis_to_json
        from repro.library.ncr import datapath_library
        from repro.perf import PerfCounters
        from repro.serve.cache import ResultCache
        from repro.serve.jobs import cache_key, normalize_spec, response_text
        from repro.sim.evaluator import evaluate_dfg
        from repro.sim.executor import execute_schedule, verify_equivalence

        # Every name imported above becomes an attribute of the program.
        self.__dict__.update(
            (name, value) for name, value in locals().items() if name != "self"
        )
        self.library = datapath_library()
        self.timings: Dict[tuple, object] = {}
        self.cache = ResultCache(HIT_CACHE_ENTRIES)

    def timing(self, mul_latency: int, clock_ns: Optional[float]):
        key = (mul_latency, clock_ns)
        if key not in self.timings:
            self.timings[key] = self.TimingModel(
                ops=self.standard_operation_set(mul_latency=mul_latency),
                clock_period_ns=clock_ns,
            )
        return self.timings[key]


class OpFailure(Exception):
    """An op whose output the oracle rejected."""


def _run_op(program: Program, job: dict, text: str, perf) -> tuple:
    """Decode → schedule → encode; returns timestamps and products."""
    body = job["body"]
    t0 = time.perf_counter()
    dfg = program.dfg_from_json(text)
    t1 = time.perf_counter()
    timing = program.timing(body["mul_latency"], body.get("clock_ns"))
    common = dict(
        cs=body["cs"],
        latency_l=body.get("latency_l"),
        pipelined_kinds=tuple(body.get("pipelined", ())),
        perf=perf,
    )
    if job["algorithm"] == "mfs":
        result = program.MFSScheduler(dfg, timing, mode="time", **common).run()
        t2 = time.perf_counter()
        encoded = program.schedule_to_json(result.schedule)
    else:
        result = program.MFSAScheduler(
            dfg, timing, program.library, style=body["style"], **common
        ).run()
        t2 = time.perf_counter()
        encoded = program.synthesis_to_json(result)
    payload = {
        "ok": True,
        "algorithm": job["algorithm"],
        "design": dfg.name,
        "cs": body["cs"],
        "result": json.loads(encoded),
    }
    response = program.response_text(payload)
    t3 = time.perf_counter()
    return (t0, t1, t2, t3), dfg, timing, result, response


def _hit_path(program: Program, job: dict, response: str) -> float:
    """Seconds to answer a repeat of ``job`` from the result cache the
    way the router does: normalise the request, key it, look it up."""
    h0 = time.perf_counter()
    spec = program.normalize_spec(job["algorithm"], job["body"])
    key = program.cache_key(spec)
    h1 = time.perf_counter()
    program.cache.put(key, response)
    h2 = time.perf_counter()
    cached = program.cache.get(key)
    json.loads(cached)
    h3 = time.perf_counter()
    if cached != response:
        raise OpFailure("result cache returned other bytes")
    return (h1 - h0) + (h3 - h2)


def _simulate(program: Program, job: dict, dfg, timing, result) -> None:
    for inputs in designs.input_vectors(job["body"]["dfg"], 0, VECTORS):
        if job["algorithm"] == "mfsa":
            program.verify_equivalence(result.datapath, inputs)
            continue
        outputs = program.execute_schedule(result.schedule, inputs).outputs
        reference = program.evaluate_dfg(dfg, timing.ops, inputs)
        for name in dfg.outputs:
            if outputs[name] != reference[name]:
                raise OpFailure(
                    f"{job['label']}: output {name} simulated {outputs[name]}, "
                    f"evaluates to {reference[name]}"
                )


def _check_encoding(job: dict, result, response: str) -> None:
    """The encoded response carries the schedule that was simulated."""
    decoded = json.loads(response)["result"]
    starts = {name: int(step) for name, step in result.schedule.starts.items()}
    if decoded["starts"] != starts or decoded["cs"] != job["body"]["cs"]:
        raise OpFailure(f"{job['label']}: encoded schedule differs")
    names = {node["name"] for node in job["body"]["dfg"]["nodes"]}
    if set(decoded["starts"]) != names:
        raise OpFailure(f"{job['label']}: encoded schedule misses ops")
    paper_fu = job.get("paper_fu")
    if paper_fu is not None and dict(result.fu_counts) != paper_fu:
        raise OpFailure(
            f"{job['label']}: FU mix {dict(result.fu_counts)} is not the "
            f"published {paper_fu}"
        )


def _qor(job: dict, result) -> float:
    if job["algorithm"] == "mfsa":
        return float(result.cost.total)
    return float(sum(result.fu_counts.values()))


class Run:
    """State of one compile workload run."""

    def __init__(self, workload: str, seed: int = 0,
                 spans: Optional[harness.Spans] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.spans = spans or harness.Spans(False)
        self.program: Optional[Program] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.rows: List[dict] = []
        self.fixed_perf = None
        self.steal = 0.0
        self.peak_rss_mb = 0.0

    # -- inputs -------------------------------------------------------------
    def fixed_jobs(self) -> List[dict]:
        if self.workload == "compile_paper":
            return designs.paper_jobs()
        return list(islice(designs.seeded_jobs("large", "fixed", 0), LARGE_FIXED))

    def warmup_jobs(self) -> List[dict]:
        kind = "paper" if self.workload == "compile_paper" else "large"
        return list(islice(designs.seeded_jobs(kind, "warmup", 0),
                           WARMUP[self.workload]))

    # -- one iteration ------------------------------------------------------
    def iterate(self, index: int, job: dict, audit: bool, perf) -> Optional[dict]:
        program = self.program
        spans = self.spans
        self.attempted += 1
        text = json.dumps(job["body"]["dfg"])
        start = time.perf_counter()
        probe = harness.probe_ms()
        try:
            (t0, t1, t2, t3), dfg, timing, result, response = _run_op(
                program, job, text, perf
            )
            hit_s = _hit_path(program, job, response)
            s0 = time.perf_counter()
            _simulate(program, job, dfg, timing, result)
            s1 = time.perf_counter()
            report = None
            if audit:
                checker = (program.check_mfsa_result if job["algorithm"] == "mfsa"
                           else program.check_mfs_result)
                report = checker(result)
            s2 = time.perf_counter()
            if report is not None and not report.ok:
                raise OpFailure(f"{job['label']}: audit found {report.violations[:3]}")
            _check_encoding(job, result, response)
        except Exception as error:  # any failure is a failed op, not a crash
            self.failed += 1
            self.errors.append(f"{job.get('label')}: {type(error).__name__}: {error}")
            return None
        end = time.perf_counter()
        if spans.enabled:
            root = spans.add("iteration", start, end, None, index)
            spans.add("probe", start, t0, root, index)
            op = spans.add("op", t0, t3, root, index)
            spans.add("decode", t0, t1, op, index)
            spans.add("mfs" if job["algorithm"] == "mfs" else "mfsa", t1, t2, op, index)
            spans.add("encode", t2, t3, op, index)
            spans.add("hit", t3, s0, root, index)
            spans.add("simulate", s0, s1, root, index)
            if audit:
                spans.add("audit", s1, s2, root, index)
        return {
            "algorithm": job["algorithm"],
            "ops": len(job["body"]["dfg"]["nodes"]),
            "at": start,
            "probe_ms": probe,
            "op_ms": (t3 - t0) * 1e3,
            "hit_ms": hit_s * 1e3,
            "qor": _qor(job, result),
            "vector": self.uses_vector(job),
        }

    def uses_vector(self, job: dict) -> bool:
        """Whether the program's kernel dispatch picks the vector loop."""
        kernel = self.program.kernel
        body = job["body"]
        return (
            kernel.resolve_kernel("auto", len(body["dfg"]["nodes"])) == "vector"
            and kernel.vector_supported(
                latency_l=body.get("latency_l"),
                pipelined_tables=tuple(body.get("pipelined", ())),
            )
        )

    # -- phases -------------------------------------------------------------
    def setup(self) -> None:
        """Import the program, build library/timings, warm up."""
        self.program = Program()
        for index, job in enumerate(self.warmup_jobs()):
            self.iterate(-1 - index, job, audit=True,
                         perf=self.program.PerfCounters())
        self.spans.records.clear()

    def measure(self, seconds: float) -> None:
        """Run the fixed designs, then seeded ones until ``seconds`` pass."""
        program = self.program
        fixed_jobs = self.fixed_jobs()
        fixed = len(fixed_jobs)
        kind = "paper" if self.workload == "compile_paper" else "large"
        jobs = chain(fixed_jobs, designs.seeded_jobs(kind, "timed", self.seed))
        self.fixed_perf = program.PerfCounters()
        ticks = harness.cpu_ticks()
        deadline = time.perf_counter() + seconds
        for index, job in enumerate(jobs):
            if index >= fixed and time.perf_counter() >= deadline:
                break
            audit = self.workload == "compile_paper" or index < LARGE_AUDITED
            perf = program.PerfCounters()
            row = self.iterate(index, job, audit, perf)
            if index < fixed:
                self.fixed_perf.merge_counters(perf)
            if index == fixed - 1:
                # Peak RSS over setup and the fixed designs: a fixed
                # amount of work, unlike the time-bounded rest of the run.
                self.peak_rss_mb = harness.vm_hwm_mb()
            if row is not None:
                row["fixed"] = index < fixed
                self.rows.append(row)
        self.steal = harness.steal_share(ticks, harness.cpu_ticks())


def setup_sample(run: Run, started: float) -> dict:
    """Set ``run`` up and time it: program import (from ``started``),
    library/timing construction and warm-up."""
    failed_before = run.failed
    run.setup()
    return {"setup_raw_s": time.perf_counter() - started,
            "probe_ms": harness.median_probe(),
            "failed": run.failed - failed_before}


def _fresh_setup_samples(workload: str, count: int) -> List[dict]:
    """Setup samples from fresh interpreters (import cost included)."""
    script = Path(__file__).with_name("run.py")
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(script), "--setup-sample", "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, started: float) -> dict:
    run = Run(workload, seed, harness.Spans(trace))
    samples = [setup_sample(run, started)]
    run.measure(seconds)
    if not trace:
        fresh = _fresh_setup_samples(workload, SETUP_SAMPLES - 1)
        run.failed += sum(sample["failed"] for sample in fresh)
        samples += fresh
    return summarise(run, samples, trace, out_dir)


def summarise(run: Run, setups: List[dict], trace: bool, out_dir: Path) -> dict:
    """End-to-end metrics, per-layer metrics (traced run) and diagnostics."""
    rows = run.rows
    outcome = {"attempted": max(1, run.attempted), "failed": run.failed,
               "errors": run.errors[:20], "end_to_end": {}, "per_layer": {},
               "diagnostics": {}}
    if not rows:
        outcome["failed"] = max(1, run.failed)
        return outcome
    factors = harness.speed_factors([row["at"] for row in rows],
                                    [row["probe_ms"] for row in rows])
    op_ms = [row["op_ms"] * f for row, f in zip(rows, factors)]
    hit_ms = [row["hit_ms"] * f for row, f in zip(rows, factors)]
    raw_op_ms = [row["op_ms"] for row in rows]
    setup_norm = [
        s["setup_raw_s"] * harness.REFERENCE_PROBE_MS / s["probe_ms"] for s in setups
    ]
    fixed = [row for row in rows if row["fixed"]]
    outcome["end_to_end"] = {
        "throughput_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "latency_ms_p50": statistics.median(op_ms),
        "latency_ms_p90": harness.percentile(op_ms, 90),
        "hit_ms_p50": statistics.median(hit_ms),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": run.peak_rss_mb,
        "area_um2_mean": harness.mean(
            row["qor"] for row in fixed if row["algorithm"] == "mfsa"),
        "fu_count_mean": harness.mean(
            row["qor"] for row in fixed if row["algorithm"] == "mfs"),
    }
    outcome["diagnostics"] = {
        "ops": len(rows),
        "raw.latency_ms_p50": statistics.median(raw_op_ms),
        "raw.latency_ms_p90": harness.percentile(raw_op_ms, 90),
        "raw.hit_ms_p50": statistics.median(row["hit_ms"] for row in rows),
        "raw.setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        "host.probe_ms": statistics.median(row["probe_ms"] for row in rows),
        "host.steal_share": run.steal,
    }
    if trace:
        _per_layer(run, rows, factors, outcome, out_dir)
    return outcome


def _per_layer(run: Run, rows, factors, outcome: dict, out_dir: Path) -> None:
    spans = run.spans
    factor = statistics.median(factors)
    self_s = spans.self_times()
    count: Dict[str, int] = {}
    for record in spans.records:
        count[record[1]] = count.get(record[1], 0) + 1

    def per_span_ms(name: str) -> float:
        if not count.get(name):
            return 0.0
        return self_s[name] / count[name] * 1e3 * factor

    fixed = run.fixed_perf
    n_fixed = sum(1 for row in rows if row["fixed"])
    mfs_fixed = sum(1 for row in rows if row["fixed"] and row["algorithm"] == "mfs")
    coverage = spans.coverage("op")
    gaps = [share for share in coverage if share < MIN_COVERAGE]
    if gaps:
        outcome["failed"] += 1
        outcome["errors"].append(
            f"{len(gaps)} op span(s) whose children cover < {MIN_COVERAGE:.0%}")
    spans_per_op = len(spans.records) / len(rows)
    path = out_dir / f"trace-{run.workload}-seed{run.seed}.jsonl"
    spans.write_jsonl(path)
    diagnostics = outcome["diagnostics"]
    outcome["per_layer"] = {
        "dfg.decode_ms": per_span_ms("decode"),
        "io.encode_ms": per_span_ms("encode"),
        "core.mfs_ms": per_span_ms("mfs"),
        "core.mfsa_ms": per_span_ms("mfsa"),
        "core.candidates_per_op": harness.ratio(
            fixed.get("mfs.positions_evaluated") + fixed.get("mfsa.candidates_evaluated"),
            n_fixed),
        "core.frames_per_op": harness.ratio(
            fixed.get("mfs.frames_computed") + fixed.get("mfsa.frames_computed"),
            n_fixed),
        "core.reschedules_per_op": harness.ratio(
            fixed.get("mfs.local_reschedules"), mfs_fixed),
        "core.vector_share": harness.mean(1.0 if row["vector"] else 0.0 for row in rows),
        "allocation.mux_memo_hit_ratio": _hit_ratio(fixed, "mux.canon"),
        "core.operand_cache_hit_ratio": _hit_ratio(fixed, "mfsa.operand_cache"),
        "core.reg_cache_hit_ratio": _hit_ratio(fixed, "mfsa.reg_cache"),
        "check.audit_ms": per_span_ms("audit"),
        "sim.verify_ms": per_span_ms("simulate"),
        "host.probe_ms": diagnostics["host.probe_ms"],
        "raw.latency_ms_p50": diagnostics["raw.latency_ms_p50"],
        "raw.latency_ms_p90": diagnostics["raw.latency_ms_p90"],
        "raw.hit_ms_p50": diagnostics["raw.hit_ms_p50"],
        "raw.setup_s": diagnostics["raw.setup_s"],
        "host.steal_share": run.steal,
        "trace.latency_ms_p50": outcome["end_to_end"]["latency_ms_p50"],
        "trace.overhead_share": harness.ratio(
            spans_per_op * harness.span_cost_s() * 1e3,
            harness.mean(row["op_ms"] for row in rows)),
        "trace.coverage_min": min(coverage) if coverage else 0.0,
    }
    diagnostics["trace.file"] = str(path.relative_to(out_dir.parent))
    diagnostics["trace.self_ms_per_op"] = {
        name: round(total / len(rows) * 1e3 * factor, 6)
        for name, total in sorted(self_s.items())
    }


def _hit_ratio(perf, prefix: str) -> float:
    hits = perf.get(f"{prefix}_hits")
    return harness.ratio(hits, hits + perf.get(f"{prefix}_misses"))
