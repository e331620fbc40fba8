"""Primary / Redundant / Forbidden / Move frames (§3.2 Step 4, Fig. 2).

For an operation ``O_i`` executable in table ``j``:

* **Primary frame** ``PF`` — the rectangle ``[ASAP_i, ALAP_i] × [1, max_j]``
  (its place in the ASNAP and ALFAP tables);
* **Redundant frame** ``RF`` — columns ``current_j + 1 … max_j``: instances
  that have not been opened yet (``current_j`` starts at ``⌈N_j / cs⌉``);
* **Forbidden frame** ``FF`` — steps that violate data dependences with
  *already placed* operations.  The paper uses predecessors only (safe
  because its priority order is topological); we also honour placed
  successors, a strict generalisation.  With chaining enabled (§5.4) the
  predecessor's finishing step itself is allowed when the accumulated
  combinational delay fits the clock period;
* **Move frame** ``MF = PF − (RF ∪ FF)`` minus occupied cells — the
  positions the operation may move to.

The move frame is built one control step at a time, on demand
(:meth:`FrameSet.steps`), so a scheduler that can prove no later step
holds its argmin stops building there; ``FrameSet.mf`` lists the whole
frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.dfg.analysis import TimingModel
from repro.dfg.graph import DFG
from repro.core.grid import GridPosition, PlacementGrid


@dataclass
class FrameSet:
    """The four frames of one operation at one scheduling iteration.

    ``rows`` are control steps, ``cols`` FU-instance indices; all ranges
    are inclusive.  The move frame's free columns are built per control
    step when first walked (:meth:`steps`) and kept, so a later walk
    replays them; ``mf`` is the explicit list of all placeable positions.
    The grid is read when a step is built: walk a frame before the next
    placement.
    """

    node: str
    table: str
    pf_rows: Tuple[int, int]
    pf_cols: Tuple[int, int]
    rf_cols: Optional[Tuple[int, int]]
    ff_rows_before: int
    ff_rows_after: int
    chain_rows: Tuple[int, ...]
    #: The instance columns a position may take (open, not excluded).
    columns: Tuple[int, ...] = ()
    #: ``free(y)``: the bitmask (bit ``x``) of :attr:`columns` where the
    #: grid admits the operation at step ``y``
    #: (:meth:`~repro.core.grid.PlacementGrid.free_columns`).
    free: Optional[Callable[[int], int]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._built: List[Tuple[int, List[int]]] = []
        self._next_y = self.pf_rows[0]

    def steps(
        self, stop: Optional[Callable[[int], bool]] = None
    ) -> Iterator[Tuple[int, List[int]]]:
        """The move frame's non-empty control steps, ``(y, xs)`` in step
        order with the step's free instance columns ``xs`` ascending.

        ``stop(y)`` is asked before each such step ``y``; once it answers
        true the walk ends, and the steps from ``y`` on stay unbuilt for
        a later walk.
        """
        for y, xs in self._built:
            if stop is not None and stop(y):
                return
            yield y, xs
        latest_pred_end = self.ff_rows_before
        chain_rows, ff_rows_after = self.chain_rows, self.ff_rows_after
        columns, free = self.columns, self.free
        while self._next_y <= self.pf_rows[1]:
            y = self._next_y
            self._next_y = y + 1
            # Inline in_ff: forbidden below (unless chaining re-admits the
            # row) or at/above the placed-successor bound.
            if (y <= latest_pred_end and y not in chain_rows) or y >= ff_rows_after:
                continue
            open_columns = free(y)
            if not open_columns:
                continue
            if stop is not None and stop(y):
                self._next_y = y
                return
            xs = [x for x in columns if open_columns >> x & 1]
            self._built.append((y, xs))
            yield y, xs

    @property
    def mf(self) -> List[GridPosition]:
        """Every move-frame position, in (step, instance) order."""
        table = self.table
        return [GridPosition(table, x, y) for y, xs in self.steps() for x in xs]

    @property
    def empty(self) -> bool:
        """Whether the move frame has no placeable position."""
        return next(self.steps(), None) is None

    def pf_positions(self) -> List[GridPosition]:
        """All primary-frame positions (used by the Figure-2 renderer)."""
        lo_y, hi_y = self.pf_rows
        lo_x, hi_x = self.pf_cols
        return [
            GridPosition(self.table, x, y)
            for y in range(lo_y, hi_y + 1)
            for x in range(lo_x, hi_x + 1)
        ]

    def in_rf(self, position: GridPosition) -> bool:
        """Whether a position lies in the redundant frame."""
        if self.rf_cols is None:
            return False
        return self.rf_cols[0] <= position.x <= self.rf_cols[1]

    def in_ff(self, position: GridPosition) -> bool:
        """Whether a position lies in the forbidden frame."""
        if position.y <= self.ff_rows_before:
            return position.y not in self.chain_rows
        return position.y >= self.ff_rows_after


def _chain_feasible_rows(
    dfg: DFG,
    timing: TimingModel,
    node: str,
    placed_starts: Mapping[str, int],
    chain_offsets: Mapping[str, float],
) -> Tuple[int, ...]:
    """Predecessor finishing steps the node may still chain into (§5.4)."""
    if not timing.chaining:
        return ()
    kind = dfg.node(node).kind
    if timing.latency(kind) != 1:
        return ()
    period = timing.clock_period_ns
    delay = timing.delay_ns(kind)
    rows: List[int] = []
    pred_ends: Dict[int, float] = {}
    for pred in dfg.predecessors(node):
        if pred not in placed_starts:
            continue
        pred_kind = dfg.node(pred).kind
        if timing.latency(pred_kind) != 1:
            continue
        end = placed_starts[pred]
        offset = chain_offsets.get(pred, timing.delay_ns(pred_kind))
        pred_ends[end] = max(pred_ends.get(end, 0.0), offset)
    latest_pred_end = max(
        (
            placed_starts[p] + timing.latency(dfg.node(p).kind) - 1
            for p in dfg.predecessors(node)
            if p in placed_starts
        ),
        default=0,
    )
    for end, offset in pred_ends.items():
        if end != latest_pred_end:
            # An earlier step would still violate the later predecessor.
            continue
        others_fit = all(
            placed_starts[p] + timing.latency(dfg.node(p).kind) - 1 < end
            or (
                timing.latency(dfg.node(p).kind) == 1
                and placed_starts[p] == end
            )
            for p in dfg.predecessors(node)
            if p in placed_starts
        )
        if others_fit and offset + delay <= period + 1e-9:
            rows.append(end)
    return tuple(rows)


def frame_bounds(
    dfg: DFG,
    timing: TimingModel,
    node: str,
    cs: int,
    placed_starts: Mapping[str, int],
    chain_offsets: Optional[Mapping[str, float]] = None,
) -> Tuple[int, int, int, Tuple[int, ...]]:
    """Table-independent frame bounds of one operation.

    Returns ``(latency, latest_pred_end, ff_rows_after, chain_rows)`` —
    the forbidden-frame geometry every table of the operation shares.
    :func:`compute_frames` and the vector kernel's
    :func:`~repro.core.kernel.move_frame_mask` intersect these with one
    table's occupancy; the engine computes them once per operation.
    """
    chain_offsets = chain_offsets or {}
    kind = dfg.node(node).kind
    latency = timing.latency(kind)

    # Forbidden rows below: every step <= the latest placed-predecessor
    # finishing step is forbidden (chaining re-admits specific rows).
    latest_pred_end = 0
    for pred in dfg.predecessors(node):
        if pred in placed_starts:
            pred_latency = timing.latency(dfg.node(pred).kind)
            latest_pred_end = max(
                latest_pred_end, placed_starts[pred] + pred_latency - 1
            )
    # Forbidden rows above: the node must finish before any placed successor
    # starts (the paper's order makes this vacuous; kept for generality).
    earliest_succ_start = cs + 1
    for succ in dfg.successors(node):
        if succ in placed_starts:
            earliest_succ_start = min(earliest_succ_start, placed_starts[succ])
    ff_rows_after = earliest_succ_start - latency + 1

    chain_rows = _chain_feasible_rows(
        dfg, timing, node, placed_starts, chain_offsets
    )
    return latency, latest_pred_end, ff_rows_after, chain_rows


def compute_frames(
    dfg: DFG,
    timing: TimingModel,
    grid: PlacementGrid,
    node: str,
    table: str,
    asap: Mapping[str, int],
    alap: Mapping[str, int],
    current: int,
    placed_starts: Mapping[str, int],
    chain_offsets: Optional[Mapping[str, float]] = None,
    excluded_instances: Tuple[int, ...] = (),
    bounds: Optional[Tuple[int, int, int, Tuple[int, ...]]] = None,
) -> FrameSet:
    """Build PF/RF/FF and the resulting move frame for one operation.

    The move frame's positions are built when the frame is walked
    (:meth:`FrameSet.steps`, or ``mf`` for all of them).

    Parameters
    ----------
    current:
        ``current_j`` — number of opened instances of ``table``; columns
        beyond it form the redundant frame.
    placed_starts:
        Start steps of already placed operations.
    chain_offsets:
        Within-step accumulated combinational delay of placed single-cycle
        operations (chaining only).
    excluded_instances:
        Instance columns the operation may not use (MFSA design style 2:
        no self-loop around an ALU — §4.2).
    bounds:
        The node's :func:`frame_bounds`, when the caller already holds
        them for the current placements (computed here otherwise).
    """
    if bounds is None:
        bounds = frame_bounds(
            dfg, timing, node, grid.cs, placed_starts, chain_offsets
        )
    latency, latest_pred_end, ff_rows_after, chain_rows = bounds
    max_cols = grid.columns(table)
    banned = set(excluded_instances)
    columns = tuple(
        x for x in range(1, min(current, max_cols) + 1) if x not in banned
    )
    wanted = sum(1 << x for x in columns)
    free_columns = grid.free_columns
    return FrameSet(
        node=node,
        table=table,
        pf_rows=(asap[node], alap[node]),
        pf_cols=(1, max_cols),
        rf_cols=(current + 1, max_cols) if current < max_cols else None,
        ff_rows_before=latest_pred_end,
        ff_rows_after=ff_rows_after,
        chain_rows=chain_rows,
        columns=columns,
        free=lambda y: free_columns(node, table, y, latency, wanted),
    )
