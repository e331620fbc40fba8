"""Regeneration of the paper's Figures 1 and 2.

Both figures are conceptual diagrams; we regenerate them as deterministic
ASCII renderings driven by *real* algorithm state:

* Figure 1 (``figure1``): the placement table with an operation's
  highest-energy alternative ("present position") and the chosen
  minimum-energy position ("next position"), ΔX/ΔY/ΔV annotated;
* Figure 2 (``figure2``): the PF/RF/FF/MF frame map of an operation that
  — like the paper's operation ``r`` — has two already-placed
  predecessors at the moment it is scheduled.
"""

from __future__ import annotations

from typing import Optional

from repro.dfg.analysis import TimingModel
from repro.dfg.ops import standard_operation_set
from repro.core.mfs import MFSResult, MFSScheduler
from repro.io.frameviz import render_frames
from repro.io.gridviz import render_move
from repro.bench.suites import EXAMPLES


def _run(example: str, cs: Optional[int] = None) -> MFSResult:
    spec = EXAMPLES[example]
    case = spec.table1_cases[0]
    ops = standard_operation_set(mul_latency=case.mul_latency)
    timing = TimingModel(ops=ops, clock_period_ns=case.clock_ns)
    scheduler = MFSScheduler(
        spec.build(),
        timing,
        cs=cs or case.cs,
        mode="time",
        latency_l=case.latency_l,
        pipelined_kinds=case.pipelined_kinds,
        record_frames=True,
        record_alternatives=True,  # Figure 1 draws a move's alternatives
    )
    return scheduler.run()


def figure1(example: str = "ex3", cs: Optional[int] = None) -> str:
    """Regenerate Figure 1 from the richest move of an MFS run."""
    result = _run(example, cs)
    # The most interesting move: the one that weighed the most alternatives.
    event = max(result.trajectory.events, key=lambda e: len(e.alternatives))
    return render_move(event, result.grid)


def figure2(example: str = "ex3", cs: Optional[int] = None) -> str:
    """Regenerate Figure 2: frames of an operation with >= 2 placed
    predecessors (the paper's operation ``r`` with K1, K2)."""
    result = _run(example, cs)
    dfg = result.schedule.dfg
    target = None
    placed_order = [event.node for event in result.trajectory.events]
    for index, name in enumerate(placed_order):
        earlier = set(placed_order[:index])
        placed_preds = [p for p in dfg.predecessors(name) if p in earlier]
        if len(placed_preds) >= 2:
            target = name
            break
    if target is None:  # fall back to any op with placed predecessors
        for index, name in enumerate(placed_order):
            if set(dfg.predecessors(name)) & set(placed_order[:index]):
                target = name
                break
    if target is None:
        target = placed_order[-1]
    frame = result.frames_log[target]
    predecessors = {
        pred: result.placements[pred]
        for pred in dfg.predecessors(target)
        if pred in result.placements
    }
    return render_frames(
        frame,
        result.grid,
        chosen=result.placements[target],
        predecessors=predecessors,
    )


def figure2_svg(example: str = "ex3", cs: Optional[int] = None) -> str:
    """Figure 2 as an SVG vector image (same selection rule as figure2)."""
    from repro.io.svg import frames_to_svg

    result = _run(example, cs)
    dfg = result.schedule.dfg
    placed_order = [event.node for event in result.trajectory.events]
    target = placed_order[-1]
    for index, name in enumerate(placed_order):
        earlier = set(placed_order[:index])
        if len([p for p in dfg.predecessors(name) if p in earlier]) >= 2:
            target = name
            break
    predecessors = {
        pred: result.placements[pred]
        for pred in dfg.predecessors(target)
        if pred in result.placements
    }
    return frames_to_svg(
        result.frames_log[target],
        result.grid,
        chosen=result.placements[target],
        predecessors=predecessors,
    )


def figure_gantt_svg(example: str = "ex3", cs: Optional[int] = None) -> str:
    """Gantt-chart SVG of the example's MFS schedule (companion artifact)."""
    from repro.io.svg import schedule_to_svg

    result = _run(example, cs)
    binding = {
        name: (pos.table, pos.x) for name, pos in result.placements.items()
    }
    return schedule_to_svg(result.schedule, binding=binding)
