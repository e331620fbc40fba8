"""Regeneration harness for the paper's Table 1 (MFS results).

For every example and every time constraint ``T`` the paper swept, run MFS
and report the functional-unit mix in the paper's notation (``**,+,-`` =
two multipliers, one adder, one subtractor).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.dfg.analysis import TimingModel
from repro.dfg.ops import OP_SYMBOLS, standard_operation_set
from repro.core.mfs import MFSResult, MFSScheduler
from repro.perf import PerfCounters
from repro.resilience.checkpoint import resume_map
from repro.sweep import SweepExecutor, worker_cached
from repro.bench.suites import EXAMPLES, ExampleSpec, Table1Case


@dataclass
class Table1Row:
    """One (example, T) cell of the regenerated Table 1."""

    example: str
    number: int
    feature: str
    cs: int
    mul_latency: int
    fu_counts: Dict[str, int]
    makespan: int
    paper_fu: Optional[Mapping[str, int]]

    def fu_notation(self) -> str:
        """Paper-style FU mix, e.g. ``**,+,-``."""
        return format_fu_mix(self.fu_counts)

    def matches_paper(self) -> Optional[bool]:
        """Whether the measured mix equals the paper's (None if unknown)."""
        if self.paper_fu is None:
            return None
        return dict(self.paper_fu) == dict(self.fu_counts)


def format_fu_mix(fu_counts: Mapping[str, int]) -> str:
    """Render FU counts the way Table 1 prints them."""
    order = ["mul", "add", "sub", "div", "lt", "gt", "eq", "and", "or"]
    parts: List[str] = []
    for kind in order:
        count = fu_counts.get(kind, 0)
        if count:
            parts.append(OP_SYMBOLS.get(kind, kind) * count)
    for kind, count in fu_counts.items():
        if kind not in order and count:
            parts.append(OP_SYMBOLS.get(kind, kind) * count)
    return ",".join(parts)


def run_case(
    spec: ExampleSpec,
    case: Table1Case,
    perf: Optional[PerfCounters] = None,
) -> MFSResult:
    """Run MFS for one Table-1 cell, recording each move's frame
    energies so ``repro check`` can audit the run (paper-size frames,
    where recording costs next to nothing)."""
    dfg = spec.build()
    # Per-worker cached: a pool worker running several cells with the
    # same (mul_latency, clock) builds the timing model once.
    timing = worker_cached(
        ("table1.timing", case.mul_latency, case.clock_ns),
        lambda: TimingModel(
            ops=standard_operation_set(mul_latency=case.mul_latency),
            clock_period_ns=case.clock_ns,
        ),
    )
    scheduler = MFSScheduler(
        dfg,
        timing,
        cs=case.cs,
        mode="time",
        latency_l=case.latency_l,
        pipelined_kinds=case.pipelined_kinds,
        record_alternatives=True,
        perf=perf,
    )
    return scheduler.run()


def _row_worker(payload) -> Table1Row:
    """One Table-1 cell (module-level so process pools can pickle it)."""
    key, case_index = payload
    spec = EXAMPLES[key]
    case = spec.table1_cases[case_index]
    result = run_case(spec, case)
    return Table1Row(
        example=key,
        number=spec.number,
        feature=spec.feature,
        cs=case.cs,
        mul_latency=case.mul_latency,
        fu_counts=result.fu_counts,
        makespan=result.schedule.makespan(),
        paper_fu=case.paper_fu,
    )


def table1_rows(
    keys: Optional[Iterable[str]] = None,
    backend: str = "serial",
    workers: Optional[int] = None,
    checkpoint: Optional[str] = None,
) -> List[Table1Row]:
    """Regenerate every Table-1 cell (optionally a subset of examples).

    ``backend``/``workers`` select the sweep executor; cell order and
    values are identical on every backend.  ``checkpoint`` names a
    :class:`~repro.resilience.checkpoint.SweepCheckpoint` file so an
    interrupted regeneration resumes at cell granularity.
    """
    wanted = set(keys) if keys is not None else None
    payloads = [
        (key, case_index)
        for key, spec in EXAMPLES.items()
        if wanted is None or key in wanted
        for case_index in range(len(spec.table1_cases))
    ]
    ckpt = None
    if checkpoint is not None:
        from repro.resilience.checkpoint import SweepCheckpoint

        ckpt = SweepCheckpoint(checkpoint, meta={"kind": "table1"})
    executor = SweepExecutor(backend=backend, workers=workers)
    try:
        return resume_map(
            executor,
            _row_worker,
            payloads,
            ckpt,
            key_fn=lambda payload: f"{payload[0]}:{payload[1]}",
            encode=asdict,
            decode=lambda value: Table1Row(**value),
        )
    finally:
        if ckpt is not None:
            ckpt.close()


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Text rendering in the shape of the paper's Table 1."""
    lines = [
        "Table 1 — MFS results (measured vs paper where parseable)",
        f"{'Ex':<4}{'feature':<14}{'T':>4}  {'FU mix (measured)':<28}"
        f"{'FU mix (paper)':<24}{'match':<6}",
        "-" * 80,
    ]
    for row in rows:
        paper = format_fu_mix(row.paper_fu) if row.paper_fu else "n/a"
        match = row.matches_paper()
        verdict = "-" if match is None else ("yes" if match else "NO")
        lines.append(
            f"#{row.number:<3}{row.feature:<14}{row.cs:>4}  "
            f"{row.fu_notation():<28}{paper:<24}{verdict:<6}"
        )
    return "\n".join(lines)
