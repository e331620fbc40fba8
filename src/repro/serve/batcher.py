"""Micro-batching dispatcher: queue → :class:`~repro.sweep.SweepExecutor`.

The dispatcher takes the first queued job the moment it arrives, plus
whatever is already queued behind it (up to ``max_batch``), and fans the
batch out at once through a *warm* process pool
(``SweepExecutor(keep_pool=True)``).  There is no coalescing window: an
idle service answers with serial-CLI latency, and a multi-job batch
forms exactly when jobs queue behind a running one, so under load
throughput scales with cores.  Single-job batches skip the pool
(the executor's ``auto`` backend runs one item in-process); the pool's
workers are started when the dispatcher starts, off the event loop, so
the first burst does not pay the fork.

The batch map runs in a worker thread (``asyncio.to_thread``) so the
event loop keeps serving requests, scrapes and health checks while
synthesis is on the CPU.  Each job's canonical response text comes back
rendered by the worker (:func:`~repro.serve.jobs.execute_job`), so the
event loop never renders a result.  Job resolution is delegated to the
``resolve(job, text, error)`` callback supplied by the app, which owns
cache insertion, single-flight bookkeeping and per-job metrics; the
batcher only tracks batch-shaped metrics (sizes, execute latency) and
merges worker perf snapshots.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional

from repro.perf import PerfCounters
from repro.resilience.faults import fault_point
from repro.serve.jobs import execute_job, response_text
from repro.serve.metrics import Metrics
from repro.serve.queue import Job, JobQueue
from repro.sweep import SweepExecutor


class MicroBatcher:
    """Dispatches queued jobs as sweep batches and resolves them."""

    def __init__(
        self,
        queue: JobQueue,
        resolve: Callable[[Job, str, Optional[dict]], None],
        max_batch: int = 8,
        backend: str = "auto",
        workers: Optional[int] = None,
        perf: Optional[PerfCounters] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.queue = queue
        self.resolve = resolve
        self.max_batch = max_batch
        self.perf = perf if perf is not None else PerfCounters()
        self.metrics = metrics
        self.executor = SweepExecutor(
            backend=backend, workers=workers, perf=self.perf, keep_pool=True
        )
        self._task: Optional[asyncio.Task] = None
        self._pool_started: Optional[asyncio.Future] = None
        self._busy = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the pool workers and the dispatch loop on the running loop."""
        if self._task is None:
            loop = asyncio.get_running_loop()
            self._pool_started = loop.run_in_executor(None, self.executor.start)
            self._task = loop.create_task(self._run())

    async def stop(self) -> None:
        """Cancel the loop and release the warm pool."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
            # A close racing a pool start would leave the started pool open.
            await self._pool_started
        await asyncio.to_thread(self.executor.close)

    @property
    def busy(self) -> bool:
        """Whether a batch is currently executing."""
        return self._busy

    async def drain(self, poll_s: float = 0.02) -> None:
        """Wait until the queue is empty and no batch is running."""
        while self.queue.depth() > 0 or self._busy:
            await asyncio.sleep(poll_s)

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        await asyncio.shield(self._pool_started)
        while True:
            batch = [await self.queue.get()]
            while len(batch) < self.max_batch:
                job = self.queue.get_nowait()
                if job is None:
                    break
                batch.append(job)
            self._busy = True
            try:
                await self._dispatch(batch, loop)
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # The dispatch loop must outlive any single bad batch
                # (an injected fault, a bug in the executor): fail the
                # batch's jobs and keep consuming the queue.
                self._fail_batch(batch, error)
            finally:
                self._busy = False

    def _fail_batch(self, batch: List[Job], error: BaseException) -> None:
        if self.metrics is not None:
            self.metrics.incr("dispatch_errors")
        failure = {"type": type(error).__name__, "message": str(error)}
        text = response_text({"ok": False, "error": failure})
        for job in batch:
            if not job.terminal:
                self.resolve(job, text, failure)

    async def _dispatch(
        self, batch: List[Job], loop: asyncio.AbstractEventLoop
    ) -> None:
        fault_point("serve.dispatch")
        # A job can die (timeout, cancel) between enqueue and dispatch;
        # it already resolved its waiters, so just drop it here.
        live = [job for job in batch if not job.terminal]
        if not live:
            return
        for job in live:
            job.mark_running()
            if self.metrics is not None:
                queue_wait = job.queue_seconds()
                if queue_wait is not None:
                    self.metrics.observe(
                        "stage_seconds", queue_wait, stage="queue"
                    )
        specs = [job.spec for job in live]
        started = loop.time()
        outcomes = await asyncio.to_thread(
            self.executor.map, execute_job, specs
        )
        elapsed = loop.time() - started
        if self.metrics is not None:
            self.metrics.incr("batches")
            self.metrics.observe("batch_size", len(live))
            self.metrics.observe("stage_seconds", elapsed, stage="execute")
            self.metrics.incr("jobs_executed", len(live))
        for job, (text, error, snapshot) in zip(live, outcomes):
            if snapshot:
                self.perf.merge(snapshot)
            self.resolve(job, text, error)
