"""Lightweight performance counters and phase timers.

The schedulers are the inner loop of every sweep, table regeneration and
exploration run, so their instrumentation must cost almost nothing when
enabled and exactly nothing when absent.  :class:`PerfCounters` is a thin
wrapper over two dicts — integer event counters and float second
accumulators — threaded through :class:`~repro.core.mfs.MFSScheduler` and
:class:`~repro.core.mfsa.MFSAScheduler` as an optional parameter (``None``
means "don't measure"; hot paths guard with a single ``is not None``).

Canonical counter names (grep targets for the BENCH trajectory harness):

==============================  ==========================================
``mfs.frames_computed``         move-frame rebuilds (incl. rescheduling)
``mfs.positions_evaluated``     Liapunov evaluations over move frames
``mfs.local_reschedules``       §3.2 Step-4 FU openings
``mfsa.frames_computed``        per-cell frame builds inside ``gather``
``mfsa.candidates_evaluated``   (cell, x, y) candidates energy-scored
``mfsa.mux_cache_hits/misses``  memoized vs fresh per-run mux costs
``mfsa.operand_cache_hits/..``  memoized vs fresh ``MuxOperand`` builds
``mfsa.reg_cache_hits/misses``  memoized vs fresh f_REG/lifetime evals
``mux.optimiser_runs``          §5.6 optimiser runs of MFSA's f_MUX
                                pricing (a probe that brings only new
                                signals to an instance needs none)
``sweep.tasks``                 items fanned out by a sweep executor
``sweep.pool_failures``         process pools that started (or tried to
                                start) and failed over to serial
``sweep.serial_fallbacks``      every degradation to the serial loop,
                                including payloads that never reached a
                                pool
``sweep.fallback.<reason>``     fallback attribution: one of
                                ``payload-unpicklable``, ``pool-start``
``sweep.quarantined``           poison items run in-process while the
                                rest of the map kept its pool
``sweep.quarantine.<reason>``   quarantine attribution: one of
                                ``worker-crash``, ``result-unpicklable``,
                                ``injected-fault``
``sweep.item_retries``          unfinished items resubmitted alone to
                                the pool
==============================  ==========================================

Canonical timer names: ``mfs.run`` and ``mfsa.run`` (one scheduler run),
``sweep.map`` (one executor map) and ``report.<section>`` (one section
of ``repro report``).

Timers use ``time.perf_counter`` and accumulate, so one counter object can
aggregate a whole sweep (see :meth:`merge`, which parallel backends use to
fold worker-side snapshots back into the caller's object).

When a scheduler is given both a counter object and a
:class:`~repro.trace.recorder.TraceRecorder`, the final counter snapshot
is embedded into the trace as a ``perf.counters`` event, attributing the
cache hits/misses above to that specific run in the exported JSONL (see
``docs/TRACING.md``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional


class PerfCounters:
    """Named integer counters plus named wall-time accumulators."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}

    # -- counters --------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never touched)."""
        return self.counters.get(name, 0)

    # -- timers ----------------------------------------------------------
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the ``with`` body into ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timers[name] = (
                self.timers.get(name, 0.0) + time.perf_counter() - start
            )

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate an externally measured duration."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    # -- derived ---------------------------------------------------------
    def hit_rate(self, prefix: str) -> Optional[float]:
        """Hit rate of a ``<prefix>_hits`` / ``<prefix>_misses`` pair.

        ``None`` when the cache was never consulted.
        """
        hits = self.counters.get(f"{prefix}_hits", 0)
        misses = self.counters.get(f"{prefix}_misses", 0)
        total = hits + misses
        return hits / total if total else None

    # -- aggregation -----------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict snapshot (picklable; crosses process boundaries)."""
        return {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
        }

    def merge(self, snapshot: Mapping[str, Mapping[str, float]]) -> None:
        """Fold an :meth:`as_dict` snapshot (e.g. from a worker) into self."""
        for name, value in snapshot.get("counters", {}).items():
            self.incr(name, int(value))
        for name, value in snapshot.get("timers", {}).items():
            self.add_time(name, float(value))

    def merge_counters(self, other: "PerfCounters") -> None:
        """Fold another :class:`PerfCounters` into self."""
        self.merge(other.as_dict())

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-line summary (the CLI ``--perf`` output)."""
        lines = ["perf counters:"]
        for name in sorted(self.counters):
            lines.append(f"  {name:<32} {self.counters[name]}")
        for prefix in ("mfsa.mux_cache", "mfsa.operand_cache", "mfsa.reg_cache"):
            rate = self.hit_rate(prefix)
            if rate is not None:
                lines.append(f"  {prefix + '_hit_rate':<32} {rate:.1%}")
        if self.timers:
            lines.append("perf timers:")
            for name in sorted(self.timers):
                lines.append(f"  {name:<32} {self.timers[name] * 1e3:.2f} ms")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfCounters(counters={self.counters}, timers={self.timers})"
