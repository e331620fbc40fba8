"""Measurement plumbing shared by the workloads: the host-speed probe,
percentiles, in-memory spans and peak-RSS readings.  Nothing here
imports the program under test."""

from __future__ import annotations

import bisect
import json
import os
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Probe iterations: a few ms of pure-Python integer work on this class
#: of host.
PROBE_ITERATIONS = 25_000

#: Probe time (ms) that defines the reference host speed.  Fixed once;
#: every normalised compile timing reads "ms on a host where the probe
#: takes this long".  Changing it rescales every baseline.
REFERENCE_PROBE_MS = 2.0

#: Seconds each side of an op over which its normalising probe median
#: is taken: long enough to ride out single-probe jitter, short enough to
#: follow host phases, which last 10-30 s.
PROBE_WINDOW_S = 2.5


def probe_ms() -> float:
    """Time one run of the fixed, allocation-light host-speed loop."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return (time.perf_counter() - start) * 1e3


def speed_factors(times: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Per-sample factor ``REFERENCE_PROBE_MS / median nearby probe``.

    ``times`` (ascending) are when each probe ran.  Multiplying the raw
    time measured just after probe ``i`` by factor ``i`` gives its time
    at reference host speed.
    """
    factors = []
    for at in times:
        lo = bisect.bisect_left(times, at - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, at + PROBE_WINDOW_S)
        factors.append(REFERENCE_PROBE_MS / statistics.median(probes[lo:hi]))
    return factors


def median_probe(count: int = 9) -> float:
    """Median of ``count`` back-to-back probes (for one-off timings)."""
    return statistics.median(probe_ms() for _ in range(count))


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """Spans recorded around the benchmark's calls into each layer.

    A span is ``(id, name, parent, op, start, end)`` with ``perf_counter``
    seconds.  They stay in memory as tuples and are written once, at the
    end, by :meth:`write_jsonl`.  A disabled recorder stores nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Tuple[int, str, Optional[int], object, float, float]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: object = None) -> Optional[int]:
        if not self.enabled:
            return None
        span_id = len(self.records)
        self.records.append((span_id, name, parent, op, start, end))
        return span_id

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.records[0][4] if self.records else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, parent, op, start, end in self.records:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent, "op": op,
                    "start_ms": round((start - origin) * 1e3, 6),
                    "end_ms": round((end - origin) * 1e3, 6),
                }) + "\n")

    def self_times(self) -> Dict[str, float]:
        """Total self time (s) per span name: duration minus the part
        covered by direct children."""
        covered: Dict[int, float] = {}
        for _id, _name, parent, _op, start, end in self.records:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for span_id, name, _parent, _op, start, end in self.records:
            own = (end - start) - covered.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def coverage(self, name: str) -> List[float]:
        """For each span called ``name``: share of its duration its
        direct children cover."""
        covered: Dict[int, float] = {}
        for _id, _name, parent, _op, start, end in self.records:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return [
            covered.get(span_id, 0.0) / (end - start)
            for span_id, span_name, _parent, _op, start, end in self.records
            if span_name == name and end > start
        ]


def span_cost_s(samples: int = 20_000) -> float:
    """Measured cost (s) of recording one span, for the overhead figure."""
    spans = Spans(True)
    start = time.perf_counter()
    for index in range(samples):
        now = time.perf_counter()
        spans.add("calibrate", now, now, None, index)
    return (time.perf_counter() - start) / samples


# ----------------------------------------------------------------------
# host contention
# ----------------------------------------------------------------------
def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine since boot.

    Steal is time the hypervisor ran something else while this VM's
    CPUs had work; on hosts that do not account it, it stays 0.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (FileNotFoundError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of CPU time stolen by the host between two readings."""
    return ratio(after[0] - before[0], after[1] - before[1])


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0.0


def group_processes(pgid: int) -> Dict[int, int]:
    """Live (not zombie) processes in process group ``pgid``, as
    ``{pid: parent pid}``."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members[int(entry)] = int(fields[1])
    return members
