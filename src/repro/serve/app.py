"""The synthesis service: JSON-over-HTTP on asyncio streams.

Stdlib-only by construction (``asyncio.start_server`` + hand-rolled
HTTP/1.1 request parsing; no third-party framework), because the repo's
dependency surface is the python standard library.  One
:class:`ServeApp` owns the whole pipeline::

    HTTP request ──▶ JobSpec ──▶ cache? ──▶ single-flight? ──▶ JobQueue
                                                       │
    response ◀── Job.future ◀── resolve ◀── MicroBatcher ◀────┘

The :class:`~repro.serve.batcher.MicroBatcher` dispatches a queued job
at once, batched with whatever queued behind the running batch; its
pool workers start with it, when the listener comes up.

API surface (see ``docs/SERVICE.md`` for the full reference):

* ``POST /v1/schedule`` / ``POST /v1/synth`` — submit an MFS scheduling
  or MFSA synthesis job; ``?wait=1`` blocks for the result, ``?verify=on``
  audits the run through :mod:`repro.check`, ``?trace=on`` attaches a
  :mod:`repro.trace` JSONL artifact;
* ``GET /v1/jobs/<id>`` — job status (+ result when finished);
* ``GET /v1/jobs/<id>/result`` — the raw canonical result bytes;
* ``GET /healthz`` — liveness/readiness (reports draining);
* ``GET /metrics`` — Prometheus text exposition.

Overload behaviour: a full :class:`~repro.serve.queue.JobQueue` answers
**429 with a ``Retry-After`` hint** instead of queueing unboundedly, and
a draining instance (SIGTERM received) answers **503** while in-flight
work finishes.  Graceful drain = stop admitting, finish every queued and
running batch, flush a final metrics snapshot, close the listener.
"""

from __future__ import annotations

import asyncio
import importlib
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.perf import PerfCounters
from repro.resilience.faults import InjectedFault, fault_point
from repro.resilience.journal import JobJournal
from repro.serve.httpcore import (
    DEFAULT_CACHE_ENTRIES,
    BaseServer,
    Response,
    flag,
    remember,
    timeout_param,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.jobs import (
    JOB_IMPORTS,
    cache_key,
    key_and_fingerprint,
    normalize_spec,
    spec_fingerprint,
)
from repro.serve.queue import (
    Job,
    JobFailed,
    JobQueue,
    JobTimeout,
    QueueFull,
)

#: Journal file name inside ``--state-dir``.
JOURNAL_FILENAME = "jobs.journal.jsonl"

@dataclass
class ServeConfig:
    """Tunables of one service instance (see docs/SERVICE.md)."""

    host: str = "127.0.0.1"
    port: int = 8421
    queue_size: int = 64
    max_batch: int = 8
    workers: Optional[int] = None
    backend: str = "auto"
    cache_entries: int = DEFAULT_CACHE_ENTRIES
    default_timeout_s: float = 60.0
    retry_after_s: float = 1.0
    job_history: int = 1024
    max_body_bytes: int = 8 * 1024 * 1024
    #: Directory for crash-safe state (the write-ahead job journal).
    #: ``None`` disables durability; see docs/ROBUSTNESS.md.
    state_dir: Optional[str] = None
    #: Write the bound port here once the listener is up (atomic
    #: temp-file + rename).  How the shard router — and anything else
    #: spawning ``serve --port 0`` — learns where a worker landed.
    port_file: Optional[str] = None
    #: Fault-injection plan spec (``FaultPlan.parse`` spelling) armed for
    #: the lifetime of the server — chaos-testing only.
    faults: Optional[str] = None
    fault_seed: int = 0


class ServeApp(BaseServer):
    """One synthesis service instance (cache + queue + batcher + HTTP)."""

    config_class = ServeConfig

    def __init__(self, config: Optional[ServeConfig] = None, **overrides) -> None:
        super().__init__(config, **overrides)
        config = self.config
        # Before the batcher forks its pool, so fork workers inherit the
        # modules instead of each compiling its own and no timed job pays
        # a first import; and on this thread (a shard's main thread),
        # where importing measured a smaller fleet than on the pool-start
        # thread (docs/PERFORMANCE.md, "Start-up").
        for module in JOB_IMPORTS:
            importlib.import_module(module)
        self.perf = PerfCounters()
        self.queue = JobQueue(config.queue_size)
        self.inflight: Dict[str, Job] = {}
        self.batcher = MicroBatcher(
            self.queue,
            resolve=self._resolve,
            max_batch=config.max_batch,
            backend=config.backend,
            workers=config.workers,
            perf=self.perf,
            metrics=self.metrics,
        )
        self.journal: Optional[JobJournal] = None
        if config.state_dir:
            self.journal = JobJournal(
                os.path.join(config.state_dir, JOURNAL_FILENAME)
            )
        self._describe_metrics()

    def _describe_metrics(self) -> None:
        m = self.metrics
        m.describe("jobs", "Jobs finished, by terminal status.")
        m.describe("jobs_executed", "Jobs actually synthesised (cache misses).")
        m.describe("batches", "Micro-batches dispatched to the sweep executor.")
        m.describe("batch_size", "Jobs per dispatched micro-batch.")
        m.describe("stage_seconds", "Per-stage latency (queue/execute/total).")
        m.describe("cache_hits", "Result-cache hits.")
        m.describe("cache_misses", "Result-cache misses.")
        m.describe("cache_evictions", "LRU evictions from the result cache.")
        m.describe("singleflight_followers", "Submissions coalesced onto an identical in-flight job.")
        m.describe("backpressure", "Submissions rejected with 429 (queue full).")
        m.describe("journal_writes", "Write-ahead journal records fsync'd.")
        m.describe("journal_errors", "Journal writes that failed (job still served).")
        m.describe("recovered_jobs", "Jobs replayed from the journal at startup, by kind.")
        m.describe("dispatch_errors", "Batches failed by a dispatch-loop error.")
        m.describe("cache_put_errors", "Result-cache insertions that failed (result still served).")
        m.gauge("queue_depth", self.queue.depth)
        m.gauge("inflight", lambda: len(self.inflight))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _after_listen(self) -> None:
        self.batcher.start()

    async def _stop_work(self, drain: bool) -> None:
        if drain:
            await self.batcher.drain()
            while self.inflight:
                await asyncio.sleep(0.02)
        await self.batcher.stop()

    def _release(self, drain: bool) -> None:
        if self.journal is not None:
            if drain:
                try:
                    self.journal.compact(keep=self.config.job_history)
                except Exception:
                    self.metrics.incr("journal_errors")
            self.journal.close()

    # ------------------------------------------------------------------
    # submission pipeline
    # ------------------------------------------------------------------
    def submit(
        self,
        algorithm: str,
        body: Mapping[str, Any],
        verify: bool = False,
        trace: bool = False,
        timeout_s: Optional[float] = None,
    ) -> Job:
        """Admit one request: cache → single-flight → bounded queue.

        Raises :class:`JobSpecError` (400) or :class:`QueueFull` (429).
        Must run on the event-loop thread.
        """
        spec = normalize_spec(algorithm, body, verify=verify, trace=trace)
        fault_point("serve.admit")
        key, fingerprint = key_and_fingerprint(spec)
        loop = asyncio.get_running_loop()
        job = Job(
            spec,
            key,
            timeout_s=timeout_s
            if timeout_s is not None
            else self.config.default_timeout_s,
            loop=loop,
        )
        job.fingerprint = fingerprint
        self._register(job)

        cached = self.cache.get(key)
        if cached is not None:
            job.cache = "hit"
            job.mark_running()
            job.finish(True, cached)
            return job

        leader = self.inflight.get(key)
        if leader is not None and not leader.terminal:
            self.metrics.incr("singleflight_followers")
            job.follow(leader)
            return job

        try:
            self.queue.put(job, retry_after=self.config.retry_after_s)
        except QueueFull:
            self.metrics.incr("backpressure")
            self.jobs.pop(job.id, None)
            raise
        self.inflight[key] = job
        job.arm_timeout(loop)
        self._journal_admit(job)
        return job

    def _journal_admit(self, job: Job) -> None:
        """Write-ahead the admission of an execution leader.

        Cache hits and single-flight followers never reach the journal:
        they hold no work a crash could lose.  A failed journal write is
        counted but does not fail the job — the server prefers availability
        (the job runs, undurably) over refusing work it can still do.
        """
        if self.journal is None:
            return
        job.journaled = True
        try:
            self.journal.record_admit(job.id, job.key, job.spec, job.timeout_s)
            self.metrics.incr("journal_writes")
        except Exception:
            self.metrics.incr("journal_errors")

    def _register(self, job: Job) -> None:
        remember(self.jobs, job.id, job, self.config.job_history)

        def _on_terminal(future: asyncio.Future) -> None:
            if not future.cancelled():
                # Mark a failure retrieved: it lives on in ``job.error``,
                # and a ``wait=0`` job's future has no other reader, so
                # asyncio would log it as never retrieved on collection.
                future.exception()
            self.metrics.incr("jobs", status=job.status)
            total = job.total_seconds()
            if total is not None:
                self.metrics.observe("stage_seconds", total, stage="total")
            # A job that died before the batcher saw it (queued timeout,
            # cancel) must release its single-flight slot so identical
            # retries recompute instead of following a corpse.
            if self.inflight.get(job.key) is job and job.status != "done":
                if job.status in ("timeout", "cancelled"):
                    self.inflight.pop(job.key, None)
            if self.journal is not None and job.journaled:
                try:
                    self.journal.record_complete(
                        job.id,
                        job.status,
                        job.status == "done",
                        job.response_text,
                        key=job.key,
                        error=job.error,
                    )
                    self.metrics.incr("journal_writes")
                except Exception:
                    self.metrics.incr("journal_errors")

        job.future.add_done_callback(_on_terminal)

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    async def _before_listen(self) -> None:
        """Replay the journal into the cache, job table and queue.

        Runs before the batcher starts and before the listener port is
        announced, so by the time a client can reconnect every
        previously admitted job is either served from the journal or
        back in the pipeline.

        Completed jobs are resurrected as terminal :class:`Job` records
        (their ``GET /v1/jobs/<id>`` answers survive the crash) and
        successful results repopulate the cache.  Admitted-but-unfinished
        jobs — the crash window — are re-queued under their original ids;
        synthesis is deterministic, so the replayed results are
        byte-identical to what the dead process would have produced.
        """
        if self.journal is None:
            return
        state = self.journal.replay()
        loop = asyncio.get_running_loop()
        for entry in state.completed:
            if entry.job_id in self.jobs:
                continue
            job = Job(
                entry.spec or {},
                entry.key or "",
                timeout_s=None,
                loop=loop,
                job_id=entry.job_id,
            )
            job.journaled = True
            job.status = entry.status or "failed"
            job.error = dict(entry.error) if entry.error else None
            job.response_text = entry.text
            job.started_monotonic = job.created_monotonic
            job.finished_monotonic = job.created_monotonic
            if entry.status == "done" and entry.text is not None:
                job.future.set_result(entry.text)
                if entry.key:
                    self.cache.put(entry.key, entry.text)
            else:
                # Nothing awaits a resurrected failure; a cancelled
                # future is silent on collection, an exception is not.
                job.future.cancel()
            remember(self.jobs, job.id, job, self.config.job_history)
            self.metrics.incr("recovered_jobs", kind="completed")
        for entry in state.pending:
            if entry.spec is None or entry.job_id in self.jobs:
                continue
            job = Job(
                entry.spec,
                entry.key or cache_key(entry.spec),
                timeout_s=entry.timeout_s
                if entry.timeout_s is not None
                else self.config.default_timeout_s,
                loop=loop,
                job_id=entry.job_id,
            )
            job.fingerprint = self._entry_fingerprint(entry.spec)
            self._register(job)
            job.journaled = True  # its admit record is already on disk
            self.metrics.incr("recovered_jobs", kind="pending")
            cached = self.cache.get(job.key)
            if cached is not None:
                job.cache = "hit"
                job.mark_running()
                job.finish(True, cached)
                continue
            leader = self.inflight.get(job.key)
            if leader is not None and not leader.terminal:
                job.follow(leader)
                continue
            # Recovered work was admitted by the previous incarnation;
            # it bypasses the admission bound rather than being dropped.
            self.queue.requeue(job)
            self.inflight[job.key] = job
            job.arm_timeout(loop)

    @staticmethod
    def _entry_fingerprint(spec: Optional[Mapping[str, Any]]) -> Optional[str]:
        """Best-effort DFG fingerprint of a journal entry's design (the
        ``fingerprint`` of a replayed job's description)."""
        if not spec or "dfg_json" not in spec:
            return None
        try:
            return spec_fingerprint(spec)
        except Exception:  # pragma: no cover - corrupt journal entry
            return None

    def _resolve(
        self, job: Job, text: str, error: Optional[Dict[str, str]]
    ) -> None:
        """Batcher callback: publish a computed result (loop thread).

        ``text`` is the job's response text as the worker rendered it;
        ``error`` is ``None`` for a job that succeeded."""
        ok = error is None
        if ok:
            # Cache before resolving waiters so anything they trigger
            # next already sees the entry.  A cache that cannot accept
            # the entry costs future hits, never this job's result.
            try:
                fault_point("serve.cache.put")
                self.cache.put(job.key, text)
            except InjectedFault:
                self.metrics.incr("cache_put_errors")
        if self.inflight.get(job.key) is job:
            self.inflight.pop(job.key, None)
        job.finish(ok, text, error)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_submit(
        self, algorithm: str, path: str, query: Mapping[str, str], body: bytes
    ) -> Response:
        parsed = self._admit(body)
        timeout_s = timeout_param(query)
        job = self.submit(
            algorithm,
            parsed,
            verify=flag(query, "verify"),
            trace=flag(query, "trace"),
            timeout_s=timeout_s,
        )
        if not flag(query, "wait"):
            return 202, {}, {"job": job.describe()}
        try:
            await asyncio.shield(job.future)
        except JobTimeout:
            return 504, {}, {"job": job.describe()}
        except (JobFailed, asyncio.CancelledError):
            return 500, {}, self._job_answer(job)
        return 200, {}, self._job_answer(job)

    def _health_fields(self) -> Dict[str, Any]:
        return {
            "queue_depth": self.queue.depth(),
            "queue_size": self.config.queue_size,
            "inflight": len(self.inflight),
        }

    def _own_metrics(self) -> str:
        return self.metrics.render(self.perf)
