"""serve_fleet: a 2-shard fleet driven over HTTP at a fixed open-loop rate.

The fleet is ``repro-hls serve --shards 2`` with a fresh state dir and
every other setting at its default (RF-2 replication, journal fsync,
10 ms batch window).  One load-generator process with two threads (so
at most two connections) sends seeded arrivals: half repeat an already
answered request byte for byte (router-L2 hits), half are fresh
paper-size designs (2/3 ``/v1/synth``, 1/3 ``/v1/schedule``, 1 in 4 with
``verify=1``).

Serve timings are normalised for host contention, not host speed: the
fleet's many process hand-offs per request stretch with the hypervisor's
steal time far more than a single-process probe loop does (see
README.md), so each timing is divided by ``1 + STEAL_WEIGHT × steal``.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import designs
import harness

#: Offered load (requests/s), well under the fleet's capacity.
RATE = 15.0

#: Every this many requests, one repeats an earlier, answered one.
REPEAT_EVERY = 2

#: A repeat targets a request scheduled at least this long before it, so
#: the target has been answered when the repeat is sent.
REPEAT_LAG_S = 1.0

#: Every this many fresh requests, one is sent with ``verify=1``.
VERIFY_EVERY = 4

#: Setups (spawn → ready → warm-up) per run; the last one is measured.
SETUPS = 3

#: Pairs of fixed warm-up jobs tried, after the paper list, until both
#: shards have started their worker pools.
WARMUP_PAIRS = 40

#: How much one unit of host steal share stretches a serve timing.
#: Fitted once, on the reference host, from 4-s windows of miss and hit
#: latency against the steal share measured over them.
STEAL_WEIGHT = 6.0

#: Steal share for a request is taken over this many seconds each side.
STEAL_WINDOW_S = 2.0

READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0


class FleetError(RuntimeError):
    """The fleet could not be started or driven."""


class Request:
    """One HTTP submission: endpoint, flags and exact body bytes."""

    def __init__(self, job: dict, verify: bool) -> None:
        self.job = job
        self.verify = verify
        endpoint = "synth" if job["algorithm"] == "mfsa" else "schedule"
        self.path = f"/v1/{endpoint}?wait=1" + ("&verify=1" if verify else "")
        self.body = json.dumps(job["body"]).encode()
        self.status: Optional[int] = None
        self.error = ""
        self.result_text: Optional[str] = None
        self.cache = ""
        self.shard_total_s: Optional[float] = None

    def send(self, port: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("POST", self.path, body=self.body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
            self.status = response.status
        except OSError as error:
            self.error = f"{type(error).__name__}: {error}"
            return
        finally:
            connection.close()
        if self.status != 200:
            self.error = raw[:200].decode("utf-8", "replace")
            return
        payload = json.loads(raw)
        self.cache = payload["job"].get("cache", "")
        self.shard_total_s = payload["job"].get("total_seconds")
        # What the caches store is response_text(result): sorted keys,
        # indent 2, so re-serialising the parsed result gives its bytes.
        self.result_text = json.dumps(payload["result"], sort_keys=True, indent=2) + "\n"


def parse_metrics(text: str) -> Dict[Tuple[str, frozenset], float]:
    """Prometheus text exposition → ``{(series, labels): value}``."""
    samples = {}
    for line in text.splitlines():
        match = re.match(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$", line)
        if match is None or line.startswith("#"):
            continue
        labels = frozenset(re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', match.group(2) or ""))
        samples[(match.group(1), labels)] = float(match.group(3))
    return samples


def metric_sum(samples, series_name: str, **labels: str) -> float:
    """Sum of every series called ``series_name`` whose labels include
    ``labels``."""
    wanted = set(labels.items())
    return sum(
        value for (series, series_labels), value in samples.items()
        if series == series_name and wanted <= series_labels
    )


class Fleet:
    """``repro-hls serve --shards 2`` in its own process group."""

    def __init__(self, root: Path, work_dir: Path) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.home = Path(tempfile.mkdtemp(prefix="fleet-", dir=work_dir))
        (self.home / "tmp").mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(self.home / "tmp")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", "2",
             "--state-dir", str(self.home / "state"), "--port", "0"],
            cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> None:
        """Block until the router prints its ``serving on`` line."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        descriptor = self.process.stderr.fileno()
        seen = b""
        while time.monotonic() < deadline:
            readable, _, _ = select.select([descriptor], [], [], deadline - time.monotonic())
            if not readable:
                break
            chunk = os.read(descriptor, 4096)
            if not chunk:
                raise FleetError(f"router exited during startup (rc={self.process.poll()})")
            seen += chunk
            match = re.search(rb"serving on http://[^:]+:(\d+)", seen)
            if match:
                self.port = int(match.group(1))
                return
        raise FleetError("router did not announce readiness in time")

    def metrics(self):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        if response.status != 200:
            raise FleetError(f"GET /metrics answered {response.status}")
        return parse_metrics(body)

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the router, shards and pool workers."""
        return sum(harness.vm_hwm_mb(pid) for pid in harness.group_processes(self.process.pid))

    def pools_started(self) -> bool:
        """Whether every shard has forked its worker pool.  A shard runs a
        one-job batch in-process and starts its pool at the first batch of
        two or more."""
        tree = harness.group_processes(self.process.pid)
        shards = [pid for pid, parent in tree.items() if parent == self.process.pid]
        return len(shards) == 2 and all(shard in tree.values() for shard in shards)

    def stop(self) -> None:
        """SIGTERM-drain the fleet, then kill whatever is left of its
        process group, and remove its state dir."""
        pgid = self.process.pid
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.communicate(timeout=DRAIN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
            self.process.stderr.close()
            deadline = time.monotonic() + DRAIN_TIMEOUT_S
            while harness.group_processes(pgid) and time.monotonic() < deadline:
                time.sleep(0.05)
            shutil.rmtree(self.home, ignore_errors=True)


def warm_up(fleet: Fleet) -> List[Request]:
    """Send the paper list, then pairs of fixed extra jobs at once until
    both shards have started their lazily created worker pools (a pair
    that lands on one shard shares a batch) and the router L2 holds
    entries."""
    sent = []
    for job in designs.paper_jobs():
        sent.append(Request(job, verify=False))
        sent[-1].send(fleet.port)
    extra = designs.seeded_jobs("paper", "fleet-warmup", 0)
    for _ in range(WARMUP_PAIRS):
        samples = fleet.metrics()
        if fleet.pools_started() and metric_sum(
                samples, "repro_serve_cache_entries", shard="router") >= 1:
            return sent
        pair = [Request(next(extra), verify=False) for _ in range(2)]
        helper = threading.Thread(target=pair[1].send, args=(fleet.port,), daemon=True)
        helper.start()
        pair[0].send(fleet.port)
        helper.join(timeout=REQUEST_TIMEOUT_S)
        if helper.is_alive():
            raise FleetError("warm-up request did not finish")
        sent += pair
    raise FleetError("warm-up did not start both shards' worker pools")


def plan(seed: int, seconds: float, answered: List[Request]):
    """Seeded open-loop schedule of ``(offset_s, request, repeat_of)``.

    ``RATE × seconds`` arrivals at sorted uniform offsets: a Poisson
    process conditioned on its count, so every seed offers the same load.
    Every second arrival repeats a seeded choice of answered requests and
    every fourth fresh one asks for ``verify=1``, so the mix is exact in
    every run.
    """
    rng = random.Random(f"perfbench:fleet:{seed}")
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(max(1, round(RATE * seconds))))
    fresh = designs.seeded_jobs("paper", "fleet", seed)
    schedule: List[Tuple[float, Request, Optional[Request]]] = []
    fresh_count = 0
    for index, offset in enumerate(offsets):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            eligible = answered + [
                request for earlier, request, target in schedule
                if target is None and earlier <= offset - REPEAT_LAG_S
            ]
            target = rng.choice(eligible)
            schedule.append((offset, Request(target.job, target.verify), target))
        else:
            verify = fresh_count % VERIFY_EVERY == VERIFY_EVERY - 1
            schedule.append((offset, Request(next(fresh), verify), None))
            fresh_count += 1
    return schedule


def drive(port: int, schedule) -> Tuple[List[dict], float, float, list]:
    """Send ``schedule`` open-loop from two threads; time each request
    from its scheduled send.  Also samples the host's CPU ticks at every
    send and completion, for the steal share around each request."""
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    outcomes: List[dict] = [{} for _ in schedule]
    ticks: List[Tuple[float, int, int]] = []
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, request, _target = schedule[index]
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            ticks.append((time.perf_counter(), *harness.cpu_ticks()))
            sent = time.perf_counter()
            request.send(port)
            done = time.perf_counter()
            ticks.append((done, *harness.cpu_ticks()))
            outcomes[index] = {"due": due, "sent": sent, "done": done}

    helper = threading.Thread(target=sender, daemon=True)
    helper.start()
    sender()
    helper.join(timeout=REQUEST_TIMEOUT_S * 2)
    if helper.is_alive():
        raise FleetError("load generator thread did not finish")
    ticks.sort()
    return outcomes, origin, time.perf_counter(), ticks


def steal_factor(share: float) -> float:
    """Divisor that maps a timing under ``share`` steal to a quiet host."""
    return 1.0 + STEAL_WEIGHT * share


def local_steal(ticks, at: float) -> float:
    """Steal share over ``STEAL_WINDOW_S`` each side of time ``at``."""
    times = [sample[0] for sample in ticks]
    lo = min(bisect.bisect_left(times, at - STEAL_WINDOW_S), len(ticks) - 2)
    hi = max(bisect.bisect_right(times, at + STEAL_WINDOW_S) - 1, lo + 1)
    return harness.steal_share(ticks[lo][1:], ticks[hi][1:])


def run_workload(seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    root = Path(__file__).resolve().parents[1]
    previous = signal.signal(signal.SIGTERM, _raise_exit)
    setups: List[Tuple[float, float]] = []
    fleet: Optional[Fleet] = None
    try:
        for attempt in range(SETUPS):
            before_ticks = harness.cpu_ticks()
            started = time.perf_counter()
            fleet = Fleet(root, out_dir)
            try:
                fleet.wait_ready()
                warm = warm_up(fleet)
                setups.append((time.perf_counter() - started,
                               harness.steal_share(before_ticks, harness.cpu_ticks())))
            finally:
                if attempt < SETUPS - 1:
                    fleet.stop()
        schedule = plan(seed, seconds, [r for r in warm if r.status == 200])
        before = fleet.metrics()
        outcomes, origin, finished, ticks = drive(fleet.port, schedule)
        after = fleet.metrics()
        rss = fleet.peak_rss_mb()
    finally:
        if fleet is not None:
            fleet.stop()
        signal.signal(signal.SIGTERM, previous)
    failed, errors = check(warm, schedule)
    outcome = {"attempted": len(warm) + len(schedule), "failed": failed,
               "errors": errors[:20], "end_to_end": {}, "per_layer": {},
               "diagnostics": {}}
    timed = [(request, o) for (_offset, request, _target), o in zip(schedule, outcomes)]
    if not any(r.cache == "hit" for r, _ in timed) or not any(r.cache == "miss" for r, _ in timed):
        outcome["failed"] = max(1, failed)
        return outcome
    summarise(outcome, warm, timed, setups, origin, finished, ticks, rss, before, after)
    if trace:
        write_spans(outcome, timed, seed, out_dir)
    return outcome


def check(warm: List[Request], schedule) -> Tuple[int, List[str]]:
    """The oracle: HTTP 200 everywhere, each repeat byte-identical to
    its target, every distinct job equal to an in-process run through
    ``execute_spec``/``response_text``, and the published FU mixes."""
    from repro.serve.jobs import execute_spec, normalize_spec, response_text

    errors = []
    requests = warm + [request for _offset, request, _target in schedule]
    for request in requests:
        if request.status != 200:
            errors.append(f"{request.path}: HTTP {request.status} {request.error}")
    for _offset, request, target in schedule:
        if target is not None and request.status == 200 \
                and request.result_text != target.result_text:
            errors.append(f"repeat of {target.job['label']} answered other bytes")
    distinct = {}
    for request in requests:
        if request.status == 200:
            distinct.setdefault((request.path, request.body), request)
    for request in distinct.values():
        spec = normalize_spec(request.job["algorithm"], request.job["body"],
                              verify=request.verify)
        payload, _perf = execute_spec(spec)
        if not payload.get("ok") or response_text(payload) != request.result_text:
            errors.append(f"{request.job['label']}: fleet answer differs from in-process run")
    for request in warm:
        paper_fu = request.job.get("paper_fu")
        if paper_fu is not None and request.result_text is not None:
            usage = json.loads(request.result_text)["result"]["fu_usage"]
            if usage != paper_fu:
                errors.append(f"{request.job['label']}: FU mix {usage} is not {paper_fu}")
    return len(errors), errors


def summarise(outcome, warm, timed, setups, origin, finished, ticks, rss,
              before, after) -> None:
    def latencies(cache: str, normalised: bool) -> List[float]:
        return [
            (o["done"] - o["due"]) * 1e3
            / (steal_factor(local_steal(ticks, o["due"])) if normalised else 1.0)
            for r, o in timed if r.cache == cache
        ]

    misses, hits = latencies("miss", True), latencies("hit", True)
    raw_misses, raw_hits = latencies("miss", False), latencies("hit", False)
    paper = [json.loads(r.result_text)["result"] for r in warm[:len(designs.paper_jobs())]
             if r.result_text]
    outcome["end_to_end"] = {
        "throughput_per_s": len(timed) / (finished - origin),
        "latency_ms_p50": statistics.median(misses),
        "latency_ms_p90": harness.percentile(misses, 90),
        "hit_ms_p50": statistics.median(hits),
        "setup_s": statistics.median(raw / steal_factor(share) for raw, share in setups),
        "peak_rss_mb": rss,
        "area_um2_mean": harness.mean(
            result["cost"]["total"] for result in paper if "cost" in result),
        "fu_count_mean": harness.mean(
            sum(result["fu_usage"].values()) for result in paper if "fu_usage" in result),
    }

    def change(series: str, **labels: str) -> float:
        return metric_sum(after, series, **labels) - metric_sum(before, series, **labels)

    def stage_ms(stage: str) -> float:
        return 1e3 * harness.ratio(change("repro_serve_stage_seconds_sum", stage=stage),
                                   change("repro_serve_stage_seconds_count", stage=stage))

    executed = change("repro_serve_jobs_executed_total")
    router_hits = change("repro_serve_cache_hits_total", shard="router")
    router_misses = change("repro_serve_cache_misses_total", shard="router")
    shard_hits = change("repro_serve_cache_hits_total") - router_hits
    shard_misses = change("repro_serve_cache_misses_total") - router_misses
    outcome["per_layer"] = {
        "router.l2_hit_ratio": harness.ratio(router_hits, router_hits + router_misses),
        "router.overhead_ms_mean": harness.mean(
            (o["done"] - o["sent"] - r.shard_total_s) * 1e3
            for r, o in timed if r.cache == "miss" and r.shard_total_s is not None),
        "router.replica_puts_per_miss": harness.ratio(
            change("repro_serve_replica_puts_total"), router_misses),
        "router.replica_probe_hit_share": harness.ratio(
            change("repro_serve_replica_probe_hits_total"), len(hits)),
        "serve.queue_ms_mean": stage_ms("queue"),
        "serve.execute_ms_mean": stage_ms("execute"),
        "serve.scheduler_ms_per_job": 1e3 * harness.ratio(
            change("repro_perf_timer_seconds_total", name="mfs.run")
            + change("repro_perf_timer_seconds_total", name="mfsa.run"), executed),
        "serve.batch_size_mean": harness.ratio(
            change("repro_serve_batch_size_sum"), change("repro_serve_batch_size_count")),
        "serve.l1_hit_ratio": harness.ratio(shard_hits, shard_hits + shard_misses),
        "serve.backpressure": change("repro_serve_backpressure_total"),
        "sweep.map_ms_per_job": 1e3 * harness.ratio(
            change("repro_perf_timer_seconds_total", name="sweep.map"), executed),
        "resilience.journal_writes_per_job": harness.ratio(
            change("repro_serve_journal_writes_total"), executed),
        "host.steal_share": harness.steal_share(ticks[0][1:], ticks[-1][1:]),
        "raw.latency_ms_p50": statistics.median(raw_misses),
        "raw.latency_ms_p90": harness.percentile(raw_misses, 90),
        "raw.hit_ms_p50": statistics.median(raw_hits),
        "raw.setup_s": statistics.median(raw for raw, _share in setups),
        "loadgen.late_ms_p90": harness.percentile(
            [(o["sent"] - o["due"]) * 1e3 for _r, o in timed], 90),
    }
    outcome["diagnostics"] = {
        "requests": len(timed), "hits": len(hits), "misses": len(misses),
        "followers": sum(1 for r, _o in timed if r.cache == "follower"),
        **{name: outcome["per_layer"][name] for name in (
            "raw.latency_ms_p50", "raw.latency_ms_p90", "raw.hit_ms_p50",
            "raw.setup_s", "host.steal_share", "loadgen.late_ms_p90")},
    }


def write_spans(outcome: dict, timed, seed: int, out_dir: Path) -> None:
    """One client span per request; spans inside the fleet are not
    recorded by this benchmark."""
    spans = harness.Spans(True)
    for index, (request, o) in enumerate(timed):
        spans.add("request", o["due"], o["done"], None,
                  f"r{index}:{request.cache}:{request.job['label']}")
    path = out_dir / f"trace-serve_fleet-seed{seed}.jsonl"
    spans.write_jsonl(path)
    mean_ms = harness.mean((o["done"] - o["due"]) * 1e3 for _r, o in timed)
    outcome["per_layer"].update({
        "trace.latency_ms_p50": outcome["end_to_end"]["latency_ms_p50"],
        "trace.overhead_share": harness.ratio(harness.span_cost_s() * 1e3, mean_ms),
    })
    outcome["diagnostics"]["trace.file"] = str(path.relative_to(out_dir.parent))
    outcome["diagnostics"]["trace.self_ms_per_request"] = {
        name: round(total / len(timed) * 1e3, 6)
        for name, total in spans.self_times().items()
    }


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)
