"""One-call traced runs: behaviour file → (result, trace, report).

This is the layer behind the ``repro-hls trace`` CLI subcommand and the
``docs/sample_report.md`` drift check.  It runs MFS or MFSA with a
:class:`~repro.trace.recorder.TraceRecorder` and a
:class:`~repro.perf.PerfCounters` attached, round-trips the events
through JSONL (so what the report renders is exactly what a reader of
the file would load), replays the Liapunov descent through
:mod:`repro.check`, and renders the markdown report.

Determinism: a run keeps all its caches to itself, so the counters
embedded in the trace (and hence the rendered report) are identical no
matter what ran earlier in the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.graph import DFG
from repro.library.cells import CellLibrary
from repro.library.ncr import datapath_library
from repro.perf import PerfCounters
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import parse_jsonl, check_descent
from repro.trace.report import render_run_report


@dataclass
class TracedRun:
    """Everything one traced run produces."""

    result: object            # MFSResult | MFSAResult
    trace: TraceRecorder
    perf: PerfCounters
    jsonl: str                # serialised event stream
    report: str               # rendered markdown report
    violations: List          # replayed-descent violations (empty = OK)

    @property
    def ok(self) -> bool:
        """Whether the replayed Liapunov descent passed the audit."""
        return not self.violations


def trace_run(
    dfg: DFG,
    timing: TimingModel,
    scheduler: str = "mfsa",
    cs: Optional[int] = None,
    style: int = 1,
    library: Optional[CellLibrary] = None,
    latency_l: Optional[int] = None,
    pipelined_kinds=(),
) -> TracedRun:
    """Run one traced MFS/MFSA pass and render its report.

    ``cs`` defaults to the critical-path length; ``library`` (MFSA only)
    to the synthetic NCR-like datapath library.
    """
    if scheduler not in ("mfs", "mfsa"):
        raise ValueError(f"scheduler must be 'mfs' or 'mfsa', got {scheduler!r}")
    cs = cs or critical_path_length(dfg, timing)
    trace = TraceRecorder()
    perf = PerfCounters()
    if scheduler == "mfs":
        result = MFSScheduler(
            dfg,
            timing,
            cs=cs,
            mode="time",
            latency_l=latency_l,
            pipelined_kinds=pipelined_kinds,
            trace=trace,
            perf=perf,
        ).run()
    else:
        result = MFSAScheduler(
            dfg,
            timing,
            library if library is not None else datapath_library(),
            cs=cs,
            style=style,
            latency_l=latency_l,
            pipelined_kinds=pipelined_kinds,
            trace=trace,
            perf=perf,
        ).run()

    # Round-trip through JSONL so the report documents exactly what a
    # reader of the trace file would reconstruct.
    jsonl = trace.to_jsonl()
    events = parse_jsonl(jsonl)
    violations = check_descent(events)
    report = render_run_report(events)
    return TracedRun(
        result=result,
        trace=trace,
        perf=perf,
        jsonl=jsonl,
        report=report,
        violations=violations,
    )
