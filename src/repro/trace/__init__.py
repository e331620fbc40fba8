"""repro.trace — structured decision tracing and run reports.

The observability layer of the reproduction: a low-overhead, span-based
event recorder hooked into the MFS/MFSA inner loops (zero-cost when
absent), a versioned JSONL export, a replay loader that reconstructs the
§2.2 Liapunov descent and audits it through :mod:`repro.check`, and a
markdown/SVG run-report renderer.

* :class:`TraceRecorder` — pass as ``trace=`` to
  :class:`~repro.core.mfs.MFSScheduler` /
  :class:`~repro.core.mfsa.MFSAScheduler` (or the ``mfs_schedule`` /
  ``mfsa_synthesize`` wrappers);
* :func:`read_jsonl` / :func:`parse_jsonl` — load a trace file back;
* :func:`check_descent` — replay the recorded trajectory against the
  paper's movement properties;
* :func:`render_run_report` — self-contained markdown report (Gantt,
  energy descent, move-frame occupancy, counters);
* :func:`trace_run` — one-call traced run (the CLI ``repro-hls trace``).

Schema: ``docs/TRACING.md``; paper mapping: ``docs/PAPER_MAP.md``.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "SCHEMA_VERSION": "events",
    "TraceRecorder": "recorder",
    "TracedRun": "driver",
    "check_descent": "replay",
    "descent_curve": "replay",
    "events_to_jsonl": "recorder",
    "node_energy_sequences": "replay",
    "parse_jsonl": "replay",
    "read_jsonl": "replay",
    "render_run_report": "report",
    "split_runs": "replay",
    "to_trajectory": "replay",
    "trace_run": "driver",
    "validate_event": "events",
    "validate_events": "events",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
