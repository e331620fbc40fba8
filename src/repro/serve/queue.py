"""Jobs and the bounded submission queue (the backpressure layer).

A :class:`Job` is one accepted synthesis request moving through the
service: ``queued → running → done | failed | timeout | cancelled``.
Each job owns an :class:`asyncio.Future` that resolves to the canonical
response text; HTTP waiters, single-flight followers and the CLI client
all await that one future.

:class:`JobQueue` is a deliberately *bounded* FIFO.  When the queue is
full the service refuses new work with HTTP 429 + ``Retry-After`` rather
than buffering unboundedly — under sustained overload an explicit,
early, cheap rejection keeps tail latency of accepted jobs bounded and
lets well-behaved clients back off (the standard load-shedding
argument).  Timed-out or cancelled jobs still physically in the FIFO are
lazily skipped by the consumer, so cancellation is O(1) and never leaves
orphaned work for the batcher.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from collections import deque
from typing import Any, Dict, Mapping, Optional

#: Job lifecycle states.
STATUSES = ("queued", "running", "done", "failed", "timeout", "cancelled")

_TERMINAL = ("done", "failed", "timeout", "cancelled")

_job_seq = itertools.count(1)


class QueueFull(Exception):
    """The bounded queue rejected a submission (HTTP 429).

    ``retry_after`` is the server's backoff hint in seconds.
    """

    def __init__(self, depth: int, maxsize: int, retry_after: float) -> None:
        super().__init__(
            f"job queue full ({depth}/{maxsize}); retry in {retry_after:g}s"
        )
        self.depth = depth
        self.maxsize = maxsize
        self.retry_after = retry_after


class JobTimeout(Exception):
    """A job exceeded its per-job timeout (HTTP 504 for waiters)."""


class JobFailed(Exception):
    """A job finished unsuccessfully (HTTP 500 for waiters)."""


class Job:
    """One accepted synthesis request and its resolution future."""

    def __init__(
        self,
        spec: Mapping[str, Any],
        key: str,
        timeout_s: Optional[float] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        job_id: Optional[str] = None,
    ) -> None:
        loop = loop or asyncio.get_running_loop()
        # ``job_id`` pins the identity across process death: journal
        # replay resurrects jobs under their original ids so that
        # ``GET /v1/jobs/<id>`` keeps answering after a restart.
        self.id = job_id or f"j{next(_job_seq):05d}-{uuid.uuid4().hex[:8]}"
        self.spec = dict(spec)
        self.key = key
        #: Canonical DFG fingerprint — the hash-ring routing key.  Set
        #: by the app when it parses the spec; it tags the job's L1 and
        #: router-L2 cache entries, which the reshard handoff moves by
        #: ring owner.
        self.fingerprint: Optional[str] = None
        self.timeout_s = timeout_s
        self.status = "queued"
        self.cache = "miss"  # "miss" | "hit" | "follower"
        #: Whether this job has an ``admit`` record in the write-ahead
        #: journal (execution leaders under ``--state-dir`` only).
        self.journaled = False
        self.error: Optional[Dict[str, str]] = None
        self.response_text: Optional[str] = None
        self.created_monotonic = time.monotonic()
        self.started_monotonic: Optional[float] = None
        self.finished_monotonic: Optional[float] = None
        self.future: "asyncio.Future[str]" = loop.create_future()
        self._timeout_handle: Optional[asyncio.TimerHandle] = None

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def queue_seconds(self) -> Optional[float]:
        if self.started_monotonic is None:
            return None
        return self.started_monotonic - self.created_monotonic

    def run_seconds(self) -> Optional[float]:
        if self.started_monotonic is None or self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self.started_monotonic

    def total_seconds(self) -> Optional[float]:
        if self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self.created_monotonic

    # ------------------------------------------------------------------
    def mark_running(self) -> None:
        if self.status == "queued":
            self.status = "running"
            self.started_monotonic = time.monotonic()

    def finish(self, ok: bool, text: str, error: Optional[Dict] = None) -> None:
        """Resolve with the canonical response text (success or job error)."""
        if self.terminal or self.future.done():
            return
        self.finished_monotonic = time.monotonic()
        if self.started_monotonic is None:
            self.started_monotonic = self.finished_monotonic
        self._cancel_timer()
        self.response_text = text
        if ok:
            self.status = "done"
            self.future.set_result(text)
        else:
            self.status = "failed"
            self.error = dict(error or {"type": "JobFailed", "message": "job failed"})
            self.future.set_exception(
                JobFailed(self.error.get("message", "job failed"))
            )

    def mark_timeout(self) -> None:
        """Per-job deadline fired; resolve waiters, leave no pending work.

        If the job is still queued it will be skipped by the consumer;
        if it is running, the batch result is discarded on arrival
        (:meth:`finish` is a no-op once terminal).
        """
        if self.terminal or self.future.done():
            return
        self.finished_monotonic = time.monotonic()
        self.status = "timeout"
        self.error = {
            "type": "JobTimeout",
            "message": f"job exceeded its {self.timeout_s:g}s timeout",
        }
        self.future.set_exception(JobTimeout(self.error["message"]))

    def cancel(self) -> None:
        """Client-side cancellation of a queued job."""
        if self.terminal or self.future.done():
            return
        self.finished_monotonic = time.monotonic()
        self.status = "cancelled"
        self.error = {"type": "Cancelled", "message": "job cancelled"}
        self.future.set_exception(asyncio.CancelledError())

    def arm_timeout(self, loop: asyncio.AbstractEventLoop) -> None:
        """Schedule :meth:`mark_timeout` ``timeout_s`` from now."""
        if self.timeout_s is not None:
            self._timeout_handle = loop.call_later(
                self.timeout_s, self.mark_timeout
            )

    def _cancel_timer(self) -> None:
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None

    def follow(self, leader: "Job") -> None:
        """Chain this job to an identical in-flight leader (single-flight).

        The follower never enters the queue; it mirrors the leader's
        resolution — including failure and timeout — the moment it lands.
        """
        self.cache = "follower"
        self.status = "running"
        self.started_monotonic = time.monotonic()

        def _mirror(done: "asyncio.Future[str]") -> None:
            if self.terminal or self.future.done():
                return
            if done.cancelled():
                self.cancel()
            elif done.exception() is not None:
                self.finished_monotonic = time.monotonic()
                self.status = leader.status if leader.terminal else "failed"
                self.error = dict(leader.error or {})
                self.response_text = leader.response_text
                self.future.set_exception(done.exception())
            else:
                self.finish(True, done.result())

        leader.future.add_done_callback(_mirror)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """The JSON shape of this job in API responses."""
        info: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "cache": self.cache,
            "algorithm": self.spec.get("algorithm"),
            "key": self.key,
        }
        if self.fingerprint is not None:
            info["fingerprint"] = self.fingerprint
        for label, value in (
            ("queue_seconds", self.queue_seconds()),
            ("run_seconds", self.run_seconds()),
            ("total_seconds", self.total_seconds()),
        ):
            if value is not None:
                info[label] = round(value, 6)
        if self.error is not None:
            info["error"] = self.error
        return info


class JobQueue:
    """Bounded FIFO of queued jobs with a single async consumer."""

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._items: "deque[Job]" = deque()
        self._arrival = asyncio.Event()

    def depth(self) -> int:
        """Live (still-queued) jobs waiting for the batcher."""
        return sum(1 for job in self._items if job.status == "queued")

    def put(self, job: Job, retry_after: float = 1.0) -> None:
        """Enqueue, or raise :class:`QueueFull` when at capacity."""
        depth = self.depth()
        if depth >= self.maxsize:
            raise QueueFull(depth, self.maxsize, retry_after)
        self._items.append(job)
        self._arrival.set()

    def requeue(self, job: Job) -> None:
        """Enqueue bypassing the bound (crash-recovery replay only).

        Journal replay happens before the listener admits new work; the
        recovered jobs were all admitted by a previous incarnation, so
        refusing them now would drop acknowledged work.
        """
        self._items.append(job)
        self._arrival.set()

    def get_nowait(self) -> Optional[Job]:
        """Pop the next live job without waiting (``None`` when empty)."""
        while self._items:
            job = self._items.popleft()
            if job.status == "queued":
                return job
        self._arrival.clear()
        return None

    async def get(self) -> Job:
        """Wait for the next live job (dead jobs are skipped silently)."""
        while True:
            job = self.get_nowait()
            if job is not None:
                return job
            self._arrival.clear()
            await self._arrival.wait()
