"""Low-overhead structured event recorder.

:class:`TraceRecorder` is threaded through
:class:`~repro.core.mfs.MFSScheduler` and
:class:`~repro.core.mfsa.MFSAScheduler` exactly like
:class:`~repro.perf.PerfCounters`: ``None`` means "don't trace" and hot
paths guard every emission with a single ``is not None`` check, so a
disabled trace costs nothing.  When enabled, each emission appends one
small tuple to a flat list — no dict construction, no serialisation —
and the per-candidate energies (the only per-inner-iteration data) are
batched per move frame (:meth:`candidates` /
:meth:`candidates_detailed`), so a scheduler pays one append per frame
rather than one call per candidate.  The JSON objects are materialised
lazily by :meth:`events` / :meth:`to_jsonl`.  The overhead budget (<5 % on the EWF kernel run) is
enforced by ``benchmarks/bench_trace_overhead.py``.

Spans: a run is bracketed by :meth:`run_start` / :meth:`run_end`; one
recorder may hold several runs (a sweep merges per-worker streams via
:meth:`merge`, tagging each event with its ``src`` worker).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.trace.events import (
    CANDIDATE,
    COMMIT,
    COUNTERS,
    FRAME,
    RESCHEDULE,
    RUN_END,
    RUN_START,
    header_object,
)

# Internal storage tags (small ints: cheaper tuples than string tags).
(
    _RUN_START,
    _FRAME,
    _CANDS,
    _CANDS_DETAILED,
    _COMMIT,
    _RESCHED,
    _COUNTERS,
    _RUN_END,
    _EXTERN,
) = range(9)


class TraceRecorder:
    """Append-only recorder of typed scheduling-decision events."""

    __slots__ = ("_raw",)

    def __init__(self) -> None:
        self._raw: List[tuple] = []

    def __len__(self) -> int:
        """Number of recorded events (batched candidates count per item)."""
        total = 0
        for raw in self._raw:
            tag = raw[0]
            if tag == _CANDS:
                total += len(raw[3])
            elif tag == _CANDS_DETAILED:
                total += len(raw[2])
            else:
                total += 1
        return total

    # -- emission (hot paths; keep these to one append each) -------------
    def run_start(self, scheduler: str, design: str, cs: int, **info) -> None:
        """Open a run span (``info`` lands in the event's ``info`` object)."""
        self._raw.append((_RUN_START, scheduler, design, cs, info or None))

    def frame(self, node: str, table: str, frame_set, current: int) -> None:
        """Record one PF/RF/FF/MF construction (§3.2 Step 4).

        ``frame_set`` is the :class:`~repro.core.frames.FrameSet` just
        constructed — the recorder keeps the object and unpacks its
        geometry lazily at materialisation (a traced run walks every
        frame whole before its next placement, and a walked frame does
        not change afterwards).
        """
        self._raw.append((_FRAME, node, table, frame_set, current))

    def candidates(self, node: str, table: str, pairs) -> None:
        """Record a whole move frame of Liapunov evaluations in one append.

        ``pairs`` iterates ``(position, energy)`` with ``.x``/``.y``
        positions (an MFS ``values.items()`` view); the batch expands to
        one ``cand.eval`` event per pair on materialisation, so the
        scheduler pays one tuple append per frame instead of one call
        per candidate.
        """
        self._raw.append((_CANDS, node, table, tuple(pairs)))

    def candidates_detailed(self, node: str, items, c_constant: float) -> None:
        """Batch variant carrying the §4.1 breakdown (MFSA's hot path).

        ``items`` iterates ``(table, x, y, energy, f_alu, f_mux, f_reg)``
        tuples; expansion yields one ``cand.eval`` per item, deriving
        ``f_time = C·y`` from ``c_constant`` so the scheduler's inner
        loop never pays for it.
        """
        self._raw.append((_CANDS_DETAILED, node, tuple(items), c_constant))

    def commit(
        self,
        node: str,
        kind: str,
        table: str,
        x: int,
        y: int,
        energy: float,
        latency: int,
        cell=None,
    ) -> None:
        """Record the argmin placement of one operation.

        ``cell`` is the chosen ALU label (MFSA) — either the string
        itself or any object with a ``label()`` method (a library
        :class:`~repro.library.cells.Cell`), resolved lazily at
        materialisation so the commit path never pays for the
        sorted-symbol rendering.
        """
        self._raw.append((_COMMIT, node, kind, table, x, y, energy, latency, cell))

    def reschedule(self, node: str, table: str, action: str, current: int) -> None:
        """Record a local-rescheduling step (FU opening / table widening)."""
        self._raw.append((_RESCHED, node, table, action, current))

    def counters(self, counters: Dict[str, int]) -> None:
        """Record a :mod:`repro.perf` counter snapshot (cache attribution)."""
        self._raw.append((_COUNTERS, dict(counters)))

    def run_end(self, commits: int, **fields) -> None:
        """Close the run span with its terminal summary."""
        self._raw.append((_RUN_END, commits, fields))

    # -- merging ---------------------------------------------------------
    def merge(self, events: Iterable[Dict[str, Any]], source: str) -> None:
        """Fold a worker's :meth:`snapshot` into this recorder.

        Each merged event is tagged with ``src=source`` so replay can
        split the combined stream back into per-worker runs; sequence
        numbers are reassigned on materialisation.
        """
        for event in events:
            tagged = dict(event)
            tagged.pop("i", None)
            tagged["src"] = source
            self._raw.append((_EXTERN, tagged))

    # -- materialisation -------------------------------------------------
    def _expand(self, raw: tuple):
        """Yield the JSON objects (sans sequence number) of one raw entry.

        Batched candidate entries expand to one ``cand.eval`` per
        candidate; everything else yields exactly one object.
        """
        tag = raw[0]
        if tag == _CANDS:
            node, table = raw[1], raw[2]
            for position, energy in raw[3]:
                yield {
                    "t": CANDIDATE,
                    "node": node,
                    "table": table,
                    "x": position.x,
                    "y": position.y,
                    "e": energy,
                }
            return
        if tag == _CANDS_DETAILED:
            node, c_constant = raw[1], raw[3]
            for table, x, y, energy, f_alu, f_mux, f_reg in raw[2]:
                yield {
                    "t": CANDIDATE,
                    "node": node,
                    "table": table,
                    "x": x,
                    "y": y,
                    "e": energy,
                    "ft": c_constant * y,
                    "fa": f_alu,
                    "fm": f_mux,
                    "fr": f_reg,
                }
            return
        if tag == _FRAME:
            frame_set = raw[3]
            yield {
                "t": FRAME,
                "node": raw[1],
                "table": raw[2],
                "pf_rows": list(frame_set.pf_rows),
                "pf_cols": list(frame_set.pf_cols),
                "rf_cols": (
                    list(frame_set.rf_cols)
                    if frame_set.rf_cols is not None
                    else None
                ),
                "ff_before": frame_set.ff_rows_before,
                "ff_after": frame_set.ff_rows_after,
                "chain_rows": list(frame_set.chain_rows),
                "mf": len(frame_set.mf),
                "current": raw[4],
            }
            return
        if tag == _COMMIT:
            obj = {
                "t": COMMIT,
                "node": raw[1],
                "kind": raw[2],
                "table": raw[3],
                "x": raw[4],
                "y": raw[5],
                "e": raw[6],
                "lat": raw[7],
            }
            if raw[8] is not None:
                cell = raw[8]
                obj["cell"] = cell if isinstance(cell, str) else cell.label()
            yield obj
            return
        if tag == _RESCHED:
            yield {
                "t": RESCHEDULE,
                "node": raw[1],
                "table": raw[2],
                "action": raw[3],
                "current": raw[4],
            }
            return
        if tag == _RUN_START:
            obj = {
                "t": RUN_START,
                "scheduler": raw[1],
                "design": raw[2],
                "cs": raw[3],
            }
            if raw[4]:
                obj["info"] = dict(raw[4])
            yield obj
            return
        if tag == _COUNTERS:
            yield {"t": COUNTERS, "counters": dict(raw[1])}
            return
        if tag == _RUN_END:
            obj = {"t": RUN_END, "commits": raw[1]}
            obj.update(raw[2])
            yield obj
            return
        if tag == _EXTERN:
            yield dict(raw[1])
            return
        raise AssertionError(f"unknown raw tag {tag!r}")  # pragma: no cover

    def _objects(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        index = 0
        for raw in self._raw:
            for obj in self._expand(raw):
                obj["i"] = index
                index += 1
                out.append(obj)
        return out

    def events(self) -> List[Dict[str, Any]]:
        """Materialise the full stream: header line + numbered events."""
        return [header_object()] + self._objects()

    def snapshot(self) -> List[Dict[str, Any]]:
        """Header-less event list (picklable; crosses process boundaries)."""
        return self._objects()

    # -- serialisation ---------------------------------------------------
    def to_jsonl(self) -> str:
        """One compact JSON object per line, header first."""
        return events_to_jsonl(self.events())

    def write_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl` to a file."""
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())


def events_to_jsonl(events: Sequence[Dict[str, Any]]) -> str:
    """Serialise an event stream to JSONL text (deterministic key order)."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )
