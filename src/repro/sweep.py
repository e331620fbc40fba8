"""Parallel sweep execution for design-space and table regeneration.

Every harness in this repository has the same shape: a list of independent
work items (time budgets, Table-1 cells, Table-2 rows, ablation grid
points) mapped through a pure synthesis function.  :class:`SweepExecutor`
fans such maps out over a :mod:`concurrent.futures` process pool while
keeping the *contract* of the serial loop:

* **deterministic ordering** — results come back in item order, always
  (``ProcessPoolExecutor.map`` preserves input order; the serial path is
  a plain loop);
* **identical values** — workers run the exact same function on the exact
  same picklable payloads, so a process-pool sweep is byte-for-byte
  interchangeable with a serial one (locked down by the test suite);
* **graceful degradation** — on a single-core box, in restricted sandboxes
  where forking fails, or for payloads that refuse to pickle, the executor
  falls back to the serial loop rather than erroring out — and *says so*:
  every fallback records its reason in the attached
  :class:`~repro.perf.PerfCounters` (``sweep.serial_fallbacks`` plus a
  per-reason ``sweep.fallback.<reason>`` counter) and in
  :attr:`SweepExecutor.last_fallback_reason`, so a degraded deployment is
  visible in ``--perf`` output and the ``repro.serve`` ``/metrics``
  endpoint instead of silently running at 1/N throughput;
* **self-healing** — the process path submits *per-item* futures, so one
  crashed worker no longer forces the whole map back to the serial loop.
  A broken pool is rebuilt and the unfinished items are retried with a
  bounded per-item budget (:data:`ITEM_RETRIES`); an item that keeps killing
  workers is *quarantined* — it alone degrades to an in-process run
  (``sweep.quarantined`` / ``sweep.quarantine.<reason>`` counters,
  :attr:`SweepExecutor.last_quarantine_reason`) while every healthy item
  still runs in the pool.  The :mod:`repro.resilience` fault site
  ``"sweep.submit"`` fires per submission, so seeded chaos tests can
  perturb exactly this machinery.

* **warm workers** — pool processes start through an initializer that
  imports the scheduler stack (:data:`WARM_IMPORTS`) and installs the
  executor's shared ``context`` exactly once per worker.  A fork-start
  pool inherits every module its parent imported, so the initializer's
  import costs it nothing when the parent imported the stack first (a
  serve shard does); a spawn-start pool imports it there.  Worker functions
  memoise heavyweight per-process builds (cell library, timing model)
  through :func:`worker_cached`, keyed by fingerprint.  Items stay
  *compact* — indices and small parameter tuples — instead of re-pickling
  the design and library into every payload.  The warm imports do not
  bring numpy (:mod:`repro.core.kernel` loads it on first use), so a
  worker's first vector-walk item pays that import once.  numpy stays
  out of :data:`WARM_IMPORTS` on purpose: listing it would put it back
  into every serve pool worker, whose paper-size jobs never call it.

Workers must be module-level functions and payloads picklable; the
callers in :mod:`repro.explore` and :mod:`repro.bench` define dedicated
``_*_worker`` functions for exactly this reason.

Callers that need item-level progress (checkpointing, progress bars)
pass ``on_item`` to :meth:`SweepExecutor.map`: it is invoked in the
parent process as each item's result lands.  ``on_item`` must be
idempotent per item — a whole-map serial fallback after a partial pool
round replays every item.

Long-lived callers (the :mod:`repro.serve` micro-batcher) can pass
``keep_pool=True`` to reuse one warm process pool across many ``map``
calls instead of paying pool start-up per batch, and call
:meth:`SweepExecutor.start` to start its workers ahead of the first map;
:meth:`SweepExecutor.close` (or use as a context manager) releases it.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.perf import PerfCounters
from repro.resilience.faults import InjectedFault, fault_point

T = TypeVar("T")
R = TypeVar("R")

#: Recognised backend names.
BACKENDS = ("auto", "process", "serial")

#: The scheduler stack a pool worker needs before its first item.  A
#: fork-start pool inherits what its parent imported, so a parent that
#: imports these before the pool forks (a serve shard, through
#: :data:`repro.serve.jobs.JOB_IMPORTS`) pays for them once for all its
#: workers; the initializer's import is what a spawn-start pool needs,
#: and it keeps the cost out of the first item's clock either way.
WARM_IMPORTS = (
    "repro.core.kernel",
    "repro.core.mfs",
    "repro.core.mfsa",
    "repro.dfg.analysis",
    "repro.io.jsonio",
    "repro.library.ncr",
)

#: Solo pool retries an unfinished item gets before it is quarantined to
#: the in-process loop (see :meth:`SweepExecutor._heal_item`).
ITEM_RETRIES = 2

# ---------------------------------------------------------------------------
# Per-process worker state.  These globals live in *each* pool worker (and
# in the parent, which runs the serial / quarantine paths): the initializer
# fills them once per worker process, `worker_cached` memoises heavyweight
# builds (cell libraries, timing models) across the items a worker serves,
# and `worker_context` hands out the map-wide shared payload that would
# otherwise be pickled into every item.
# ---------------------------------------------------------------------------
_WORKER_INITS = 0
_WORKER_CACHE: Dict[Any, Any] = {}
_WORKER_CACHE_BUILDS = 0
_WORKER_CONTEXT: Optional[Tuple[str, Any]] = None


def _init_worker(context_blob) -> None:
    """Pool initializer: import :data:`WARM_IMPORTS` (a no-op for modules
    a fork-start worker inherited), install the shared context."""
    global _WORKER_INITS, _WORKER_CONTEXT
    _WORKER_INITS += 1
    for module in WARM_IMPORTS:
        try:
            importlib.import_module(module)
        except ImportError:  # pragma: no cover - trimmed installs
            pass
    if context_blob is not None:
        fingerprint, payload = context_blob
        _WORKER_CONTEXT = (fingerprint, pickle.loads(payload))


def worker_init_count() -> int:
    """How many times this process ran the pool initializer.

    ``0`` in the parent / serial path; ``1`` in a healthy warm worker no
    matter how many maps it has served (the warm-pool regression tests
    assert exactly this).
    """
    return _WORKER_INITS


def worker_cache_builds() -> int:
    """How many :func:`worker_cached` misses this process has paid."""
    return _WORKER_CACHE_BUILDS


def worker_cached(key, build: Callable[[], Any]) -> Any:
    """Fetch-or-build a per-worker cached object.

    ``key`` is a stable fingerprint (e.g. ``("library",)`` or
    ``("ops", mul_latency)``); ``build`` runs at most once per key per
    worker process.  Cached objects are shared across every item and
    every ``map`` a worker serves, so they must be treated as immutable.
    """
    global _WORKER_CACHE_BUILDS
    value = _WORKER_CACHE.get(key)
    if value is None:
        _WORKER_CACHE_BUILDS += 1
        value = _WORKER_CACHE[key] = build()
    return value


def worker_context():
    """The shared context installed for the current map (or ``None``).

    Workers of a :class:`SweepExecutor` constructed with ``context=...``
    receive the context once at pool start-up via the initializer; the
    serial, fallback and quarantine paths see the identical object
    installed parent-side.  Items can therefore stay compact — indices
    and small parameter tuples — instead of re-pickling the design,
    timing model and library into every single payload.
    """
    if _WORKER_CONTEXT is None:
        return None
    return _WORKER_CONTEXT[1]


def default_workers() -> int:
    """Worker count used when the caller does not pin one.

    ``os.cpu_count()`` reports the machine's cores even when the process
    is confined to fewer (containers, cgroups, ``taskset``); the CPU
    affinity mask is the number of cores this process may actually run
    on, so prefer it where the platform exposes it.
    """
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(os.cpu_count() or 1, 1)


class SweepExecutor:
    """Order-preserving map over independent sweep items.

    Parameters
    ----------
    backend:
        ``"serial"`` — plain in-process loop; ``"process"`` — always use a
        :class:`ProcessPoolExecutor`; ``"auto"`` — use processes when the
        machine has more than one CPU and there is more than one item,
        else serial.
    workers:
        Process count for the pool (default: ``os.cpu_count()``).
    perf:
        Optional :class:`~repro.perf.PerfCounters`; receives a
        ``sweep.tasks`` count and a ``sweep.map`` timer, and is the merge
        target for worker-side snapshots (see :func:`merge_worker_perf`).
    keep_pool:
        Keep one warm :class:`ProcessPoolExecutor` alive across ``map``
        calls (sized ``workers``) instead of starting a fresh pool per
        call.  For many small batches — the ``repro.serve`` dispatch
        pattern — this removes pool start-up from every batch.  Call
        :meth:`close` (or use the executor as a context manager) when
        done; a broken pool is discarded and lazily rebuilt.
    """

    #: Whole-map fallback reason codes (``sweep.fallback.<reason>``):
    #: degradations where the pool never ran any item.
    FALLBACK_REASONS = (
        "payload-unpicklable",
        "pool-start",
    )

    #: Per-item quarantine reason codes (``sweep.quarantine.<reason>``):
    #: one poison item degraded to the in-process loop, the rest of the
    #: map kept its pool.
    QUARANTINE_REASONS = (
        "worker-crash",
        "result-unpicklable",
        "injected-fault",
    )

    def __init__(
        self,
        backend: str = "auto",
        workers: Optional[int] = None,
        perf: Optional[PerfCounters] = None,
        keep_pool: bool = False,
        context: Any = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.backend = backend
        self.workers = workers or default_workers()
        self.perf = perf
        self.keep_pool = keep_pool
        #: Reason code of the most recent whole-map serial fallback
        #: (``None`` when every map so far ran where it was asked to run).
        self.last_fallback_reason: Optional[str] = None
        #: Reason code of the most recent poison-item quarantine.
        self.last_quarantine_reason: Optional[str] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._context = context
        self._context_blob: Optional[Tuple[str, bytes]] = None
        if context is not None:
            payload = pickle.dumps(context)
            fingerprint = hashlib.sha256(payload).hexdigest()
            self._context_blob = (fingerprint, payload)
            self._install_context()

    def _install_context(self) -> None:
        """Make the shared context visible to in-process item runs.

        The serial, fallback and quarantine paths run items in this
        process, so the parent installs the same context the pool
        initializer gives the workers.
        """
        if self._context_blob is not None:
            global _WORKER_CONTEXT
            _WORKER_CONTEXT = (self._context_blob[0], self._context)

    # ------------------------------------------------------------------
    def _use_processes(self, n_items: int) -> bool:
        if self.backend == "serial":
            return False
        if self.backend == "process":
            return True
        return self.workers > 1 and n_items > 1

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_item: Optional[Callable[[int, R], None]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results in item order.

        The process path requires ``fn`` to be a module-level function and
        the items/results to pickle; when they do not (checked up front
        for the items, so no half-finished pool is left behind), or when
        the pool itself cannot start, the serial loop runs instead.
        Worker crashes mid-map heal at item granularity (see the module
        docstring); only the crashing item leaves the pool.

        ``on_item(index, result)`` is called in the parent as each item
        completes — the checkpoint hook.  It must be idempotent per item.
        """
        items = list(items)
        self._install_context()
        if self.perf is None:
            return self._map(fn, items, on_item)
        with self.perf.timer("sweep.map"):
            return self._map(fn, items, on_item)

    def _map(
        self,
        fn: Callable[[T], R],
        items: List[T],
        on_item: Optional[Callable[[int, R], None]] = None,
    ) -> List[R]:
        if self.perf is not None:
            self.perf.incr("sweep.tasks", len(items))
        if self._use_processes(len(items)):
            try:
                pickle.dumps((fn, items))
            except Exception:
                # Unpicklable payload: run serial below.
                self._note_fallback("payload-unpicklable", pool_failed=False)
            else:
                try:
                    return self._map_pool(fn, items, on_item)
                except (OSError, PermissionError):
                    # Pool could not start (sandbox, no /dev/shm, …).
                    self._note_fallback("pool-start")
        results = []
        for index, item in enumerate(items):
            value = fn(item)
            results.append(value)
            if on_item is not None:
                on_item(index, value)
        return results

    # -- self-healing process path --------------------------------------
    def _map_pool(
        self,
        fn: Callable[[T], R],
        items: List[T],
        on_item: Optional[Callable[[int, R], None]],
    ) -> List[R]:
        """Per-item futures through the pool, healing crashes item-wise.

        Fast path: one submission round over a shared pool, results
        harvested in item order.  When a worker dies every pending future
        fails with ``BrokenExecutor`` and the *culprit is unknown*, so
        the healing path re-runs each unfinished item in its own
        submission against a rebuilt pool — an innocent item simply
        completes (it stays on the pool), while a poison item breaks the
        pool again, exhausts its :data:`ITEM_RETRIES` budget and is
        quarantined to the in-process loop.  Raises ``OSError`` /
        ``PermissionError`` to the caller only when the pool cannot
        (re)start at all.
        """
        results: List[Optional[R]] = [None] * len(items)

        def finish(index: int, value: R) -> None:
            results[index] = value
            if on_item is not None:
                on_item(index, value)

        unfinished: List[Tuple[int, str]] = []
        pool = self._warm_pool()
        pending: List[Tuple[int, object]] = []
        broken = False
        for index, item in enumerate(items):
            if broken:
                unfinished.append((index, "worker-crash"))
                continue
            try:
                fault_point("sweep.submit")
                pending.append((index, pool.submit(fn, item)))
            except InjectedFault:
                self._note_item_retry()
                unfinished.append((index, "injected-fault"))
            except BrokenExecutor:
                unfinished.append((index, "worker-crash"))
                broken = True
        for index, future in pending:
            try:
                value = future.result()
            except BrokenExecutor:
                unfinished.append((index, "worker-crash"))
                broken = True
            except pickle.PicklingError:
                # Only this item's result refused the trip back.
                finish(
                    index,
                    self._quarantine(fn, items[index], "result-unpicklable"),
                )
            else:
                finish(index, value)
        if broken:
            self._note_pool_break()
        for index, reason in sorted(unfinished):
            finish(index, self._heal_item(fn, items[index], reason))
        if not self.keep_pool:
            self.close()
        return results  # type: ignore[return-value]

    def _heal_item(self, fn: Callable[[T], R], item: T, reason: str) -> R:
        """Retry one unfinished item alone on the pool, else quarantine.

        A solo submission attributes failure precisely: if the pool
        breaks now, *this* item is the poison.
        """
        for _attempt in range(ITEM_RETRIES):
            try:
                fault_point("sweep.submit")
                future = self._warm_pool().submit(fn, item)
                return future.result()
            except InjectedFault:
                reason = "injected-fault"
                self._note_item_retry()
            except BrokenExecutor:
                reason = "worker-crash"
                self._note_pool_break()
                self._note_item_retry()
            except pickle.PicklingError:
                reason = "result-unpicklable"
                break
        return self._quarantine(fn, item, reason)

    def _quarantine(self, fn: Callable[[T], R], item: T, reason: str) -> R:
        """Run one poison item in-process; the rest of the map keeps its
        pool.  Exceptions ``fn`` raises here propagate, exactly as on the
        serial backend."""
        self.last_quarantine_reason = reason
        if self.perf is not None:
            self.perf.incr("sweep.quarantined")
            self.perf.incr(f"sweep.quarantine.{reason}")
        return fn(item)

    def _note_item_retry(self) -> None:
        if self.perf is not None:
            self.perf.incr("sweep.item_retries")

    def _note_pool_break(self) -> None:
        """A pool broke mid-map (worker OOM-killed, segfaulted, …)."""
        self._discard_pool()
        if self.perf is not None:
            self.perf.incr("sweep.pool_failures")

    def _note_fallback(self, reason: str, pool_failed: bool = True) -> None:
        """Record why a whole map degraded to the serial loop.

        ``sweep.pool_failures`` keeps its historical meaning (a pool that
        started — or tried to start — and failed); ``sweep.serial_fallbacks``
        counts every whole-map degradation including payloads that never
        reached a pool, with ``sweep.fallback.<reason>`` attributing the
        cause.  Item-level degradations are counted separately as
        quarantines (see :meth:`_quarantine`).
        """
        self.last_fallback_reason = reason
        if pool_failed:
            self._discard_pool()
        if self.perf is not None:
            if pool_failed:
                self.perf.incr("sweep.pool_failures")
            self.perf.incr("sweep.serial_fallbacks")
            self.perf.incr(f"sweep.fallback.{reason}")

    # -- persistent pool ------------------------------------------------
    def start(self) -> None:
        """Start every pool worker now instead of at the first pooled map.

        Returns once the pool has answered one no-op call per worker.
        Runs no item and moves no ``sweep.*`` counter.  A no-op for
        backends that never use the pool (``serial``, or ``auto`` on one
        CPU); a pool that cannot start is left for the first map to retry
        and record.
        """
        # A map of one item per worker is the smallest that fills the pool.
        if not self._use_processes(self.workers):
            return
        try:
            pool = self._warm_pool()
            # One call per worker: a fork pool starts them all at the
            # first submission, a spawn pool one per call while none idles.
            for future in [pool.submit(os.getpid) for _ in range(self.workers)]:
                future.result()
        except (OSError, BrokenExecutor):
            self._discard_pool()

    def _warm_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self._context_blob,),
            )
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            pool, self._pool = self._pool, None
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def close(self) -> None:
        """Shut down the warm pool (no-op without ``keep_pool``)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def sweep_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    backend: str = "auto",
    workers: Optional[int] = None,
    perf: Optional[PerfCounters] = None,
) -> List[R]:
    """One-call convenience wrapper around :class:`SweepExecutor`."""
    return SweepExecutor(backend=backend, workers=workers, perf=perf).map(
        fn, items
    )


def merge_worker_perf(perf: Optional[PerfCounters], snapshots) -> None:
    """Fold worker-side :meth:`PerfCounters.as_dict` snapshots into ``perf``.

    Workers cannot mutate the caller's counter object across process
    boundaries, so parallel workers return ``(result, snapshot)`` pairs
    and the caller merges the snapshots after the map completes.
    """
    if perf is None:
        return
    for snapshot in snapshots:
        if snapshot:
            perf.merge(snapshot)


def merge_worker_traces(trace, tagged_snapshots) -> None:
    """Fold worker-side trace snapshots into one ``TraceRecorder``.

    Mirrors :func:`merge_worker_perf` for the :mod:`repro.trace` layer:
    workers record into their own recorder and ship back
    :meth:`~repro.trace.recorder.TraceRecorder.snapshot` (a picklable
    event list); the caller merges them here, in item order, each stream
    tagged with its ``src`` label so replay can split the combined file
    back into per-item runs.  ``tagged_snapshots`` is an iterable of
    ``(source_label, events | None)`` pairs; ``trace=None`` is a no-op.
    """
    if trace is None:
        return
    for source, events in tagged_snapshots:
        if events:
            trace.merge(events, source)
