"""Regeneration harness for the paper's Table 2 (MFSA results).

For every example, run MFSA in both design styles against the synthetic
NCR-like library and report the Table-2 columns: ALU set, total cost
(µm²), register count, mux count and mux-input count.

The paper's headline observation — design style 2 (no self-loop around
ALUs) costs 2–11 % more than style 1 — is the shape the benchmark suite
checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, List, Optional, Sequence

from repro.dfg.analysis import TimingModel
from repro.dfg.ops import standard_operation_set
from repro.library.cells import CellLibrary
from repro.library.ncr import datapath_library
from repro.core.mfsa import MFSAResult, MFSAScheduler
from repro.perf import PerfCounters
from repro.resilience.checkpoint import resume_map
from repro.sweep import SweepExecutor, worker_cached, worker_context
from repro.bench.suites import EXAMPLES, ExampleSpec


@dataclass
class Table2Row:
    """One (example, style) row of the regenerated Table 2."""

    example: str
    number: int
    cs: int
    style: int
    alu_labels: List[str]
    cost: float
    registers: int
    muxes: int
    mux_inputs: int

    def alu_notation(self) -> str:
        """Paper-style ALU column, e.g. ``2(+-); (&=)``."""
        counts = {}
        for label in self.alu_labels:
            counts[label] = counts.get(label, 0) + 1
        parts = []
        for label, count in sorted(counts.items()):
            parts.append(label if count == 1 else f"{count}{label}")
        return "; ".join(parts)


def run_example(
    spec: ExampleSpec,
    style: int,
    library: Optional[CellLibrary] = None,
    perf: Optional[PerfCounters] = None,
    no_cache: bool = False,
) -> MFSAResult:
    """Run MFSA for one Table-2 row, recording each move's frame
    energies so ``repro check`` can audit the run (paper-size frames,
    where recording costs next to nothing)."""
    dfg = spec.build()
    # Per-worker cached: a pool worker regenerating several rows with the
    # same (mul_latency, clock) builds the timing model once.
    timing = worker_cached(
        ("table2.timing", spec.mfsa_mul_latency, spec.mfsa_clock_ns),
        lambda: TimingModel(
            ops=standard_operation_set(mul_latency=spec.mfsa_mul_latency),
            clock_period_ns=spec.mfsa_clock_ns,
        ),
    )
    scheduler = MFSAScheduler(
        dfg,
        timing,
        library or datapath_library(),
        cs=spec.mfsa_cs,
        style=style,
        perf=perf,
        no_cache=no_cache,
        record_alternatives=True,
    )
    return scheduler.run()


def _row_worker(payload) -> Table2Row:
    """One Table-2 row (module-level so process pools can pickle it).

    The cell library rides in the executor's shared worker context, so
    the per-row payload is just ``(example key, style)``.
    """
    key, style = payload
    spec = EXAMPLES[key]
    result = run_example(spec, style, worker_context())
    datapath = result.datapath
    return Table2Row(
        example=key,
        number=spec.number,
        cs=spec.mfsa_cs,
        style=style,
        alu_labels=result.alu_labels(),
        cost=result.cost.total,
        registers=datapath.register_count(),
        muxes=datapath.mux_count(),
        mux_inputs=datapath.mux_inputs(),
    )


def table2_rows(
    keys: Optional[Iterable[str]] = None,
    library: Optional[CellLibrary] = None,
    backend: str = "serial",
    workers: Optional[int] = None,
    checkpoint: Optional[str] = None,
) -> List[Table2Row]:
    """Regenerate Table 2 (both styles for every example).

    ``backend``/``workers`` select the sweep executor; row order and
    values are identical on every backend.  ``checkpoint`` names a
    :class:`~repro.resilience.checkpoint.SweepCheckpoint` file so an
    interrupted regeneration resumes at row granularity; the library
    cost model is part of the checkpoint fingerprint.
    """
    library = library or datapath_library()
    wanted = set(keys) if keys is not None else None
    payloads = [
        (key, style)
        for key in EXAMPLES
        if wanted is None or key in wanted
        for style in (1, 2)
    ]
    ckpt = None
    if checkpoint is not None:
        from repro.dfg.fingerprint import library_fingerprint
        from repro.resilience.checkpoint import SweepCheckpoint

        ckpt = SweepCheckpoint(
            checkpoint,
            meta={"kind": "table2", "library": library_fingerprint(library)},
        )
    executor = SweepExecutor(
        backend=backend, workers=workers, context=library
    )
    try:
        return resume_map(
            executor,
            _row_worker,
            payloads,
            ckpt,
            key_fn=lambda payload: f"{payload[0]}:style{payload[1]}",
            encode=asdict,
            decode=lambda value: Table2Row(**value),
        )
    finally:
        if ckpt is not None:
            ckpt.close()


def style_overhead(rows: Sequence[Table2Row], number: int) -> float:
    """Style-2 cost overhead over style 1 for one example (fraction)."""
    style1 = next(r for r in rows if r.number == number and r.style == 1)
    style2 = next(r for r in rows if r.number == number and r.style == 2)
    return style2.cost / style1.cost - 1.0


def render_table2(rows: Sequence[Table2Row]) -> str:
    """Text rendering in the shape of the paper's Table 2."""
    lines = [
        "Table 2 — MFSA results (synthetic NCR-like library)",
        f"{'Ex':<4}{'T':>3} {'Style':>6}  {'ALUs':<34}{'Cost':>9}"
        f"{'REG':>5}{'MUX':>5}{'MUXin':>7}",
        "-" * 80,
    ]
    for row in rows:
        lines.append(
            f"#{row.number:<3}{row.cs:>3} {row.style:>6}  "
            f"{row.alu_notation():<34}{row.cost:>9.0f}"
            f"{row.registers:>5}{row.muxes:>5}{row.mux_inputs:>7}"
        )
    by_example = sorted({row.number for row in rows})
    lines.append("-" * 80)
    for number in by_example:
        try:
            overhead = style_overhead(rows, number)
        except StopIteration:
            continue
        lines.append(f"#{number}: style-2 overhead over style-1 = {overhead:+.1%}")
    return "\n".join(lines)
