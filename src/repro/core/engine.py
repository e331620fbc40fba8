"""The move-frame engine MFS (§3) and MFSA (§4) share.

Both schedulers run one placement loop: each operation, in priority
order, goes to the minimum-``V`` position of its move frame
``MF = PF − (RF ∪ FF)``, and a column opens when that frame is empty.
:class:`MoveFrameEngine` holds the loop's scaffolding — option checks,
``run()`` with its timer, the walk decision, the run's placement state
advanced by one :meth:`~MoveFrameEngine._commit`, frame building on
either walk, and the finish.  The schedulers keep what differs: their
tables, the Liapunov function, how a frame is priced to its argmin,
and when a column opens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trace.recorder import TraceRecorder

from repro.errors import ScheduleError
from repro.dfg.analysis import TimingModel
from repro.dfg.graph import DFG
from repro.schedule.types import Schedule
from repro.core import kernel as _kernel
from repro.core.frames import compute_frames, frame_bounds
from repro.core.grid import GridPosition, PlacementGrid
from repro.core.stability import Trajectory
from repro.perf import PerfCounters


class MoveFrameEngine:
    """Placement-loop scaffolding of :class:`~repro.core.mfs.MFSScheduler`
    and :class:`~repro.core.mfsa.MFSAScheduler`; :meth:`_begin` resets
    the per-run state (``grid``, ``view``, ``placed_starts``, …)."""

    #: ``"mfs"`` or ``"mfsa"``: names the run timer, counters and trace.
    algorithm = ""

    def __init__(
        self,
        dfg: DFG,
        timing: TimingModel,
        cs: Optional[int],
        latency_l: Optional[int],
        pipelined_kinds: Iterable[str],
        record_alternatives: bool,
        kernel: str,
        verify: bool,
        perf: Optional[PerfCounters],
        trace: Optional["TraceRecorder"],
    ) -> None:
        _kernel.resolve_kernel(kernel)  # rejects an unknown kernel name
        self.dfg = dfg
        self.timing = timing
        self.cs = cs
        self.latency_l = latency_l
        self.pipelined_kinds = frozenset(str(k) for k in pipelined_kinds)
        # The verify=True audit reads the recorded lists.
        self.record_alternatives = record_alternatives or verify
        self.kernel = kernel
        self.verify = verify
        self.perf = perf
        self.trace = trace
        self._frames_counter = f"{self.algorithm}.frames_computed"
        dfg.validate(timing.ops)
        self._check_pipelining()

    def _check_pipelining(self) -> None:
        """§5.5.2: under latency ``L`` a kind slower than ``L`` needs a
        structurally pipelined unit."""
        if self.latency_l is None:
            return
        if self.latency_l < 1:
            raise ScheduleError(f"latency L must be >= 1, got {self.latency_l}")
        for kind in self.dfg.kinds_used():
            latency = self.timing.latency(kind)
            if latency > self.latency_l and kind not in self.pipelined_kinds:
                raise ScheduleError(
                    f"kind {kind!r} (latency {latency}) cannot run under "
                    f"functional pipelining with L={self.latency_l} on a "
                    f"non-pipelined FU"
                )

    def run(self):
        """Execute the scheduler and return its full result."""
        if self.perf is None:
            return self._run()
        with self.perf.timer(f"{self.algorithm}.run"):
            return self._run()

    # -- per-run placement state -----------------------------------------
    def _vector_walk(self, pipelined_tables: Iterable[str], **features) -> bool:
        """Whether this run may take the numpy mask walk (the rules are in
        :mod:`repro.core.kernel`); :meth:`_frame` picks it per operation."""
        return _kernel.resolve_kernel(
            self.kernel, len(self.dfg)
        ) == "vector" and _kernel.vector_supported(
            trace=self.trace is not None,
            latency_l=self.latency_l,
            pipelined_tables=tuple(pipelined_tables),
            **features,
        )

    def _begin(
        self,
        columns: Mapping[str, int],
        pipelined_tables: Iterable[str],
        asap: Mapping[str, int],
        alap: Mapping[str, int],
        vector: bool,
    ) -> PlacementGrid:
        """Fresh placement state for one run; returns its grid, one table
        per ``columns`` entry."""
        grid = PlacementGrid(
            self.dfg,
            self.cs,
            columns=columns,
            latency_l=self.latency_l,
            pipelined_tables=pipelined_tables,
        )
        self.grid, self.asap, self.alap = grid, asap, alap
        self.view = _kernel.VectorGrid(grid) if vector else None
        self.has_exclusions = vector and any(node.branch for node in self.dfg)
        self.placed_starts: Dict[str, int] = {}
        self.placed_ends: Dict[str, int] = {}
        self.chain_offsets: Dict[str, float] = {}
        self.trajectory = Trajectory()
        self._bounds: Dict[str, tuple] = {}
        return grid

    def _frame(
        self,
        name: str,
        table: str,
        current: int,
        excluded=(),
        width: Optional[int] = None,
    ):
        """The move frame of ``name`` in ``table`` with ``current``
        columns open and the instance columns ``excluded`` banned, or
        ``None`` when it has no position.

        The walk is the vector one when the run allows it and either
        ``kernel="vector"`` forces it or the frame rectangle —
        primary-frame rows clipped to the grid × ``width`` open columns
        (default ``current``) — holds at least ``VECTOR_MIN_CELLS``
        cells; a caller passes one ``width`` for all frames of an
        operation to keep them on one walk.  Scalar walk: a
        :class:`~repro.core.frames.FrameSet`, recorded to the trace.
        Vector walk: ``(mask, lo_y)`` from
        :func:`repro.core.kernel.move_frame_mask`.
        """
        if self.perf is not None:
            self.perf.incr(self._frames_counter)
        # Frame bounds depend on placements only: computed once per
        # operation, dropped at every commit.
        bounds = self._bounds.get(name)
        if bounds is None:
            bounds = self._bounds[name] = frame_bounds(
                self.dfg,
                self.timing,
                name,
                self.grid.cs,
                self.placed_starts,
                self.chain_offsets,
            )
        if self.view is not None:
            lo_y = max(self.asap[name], 1)
            hi_y = min(self.alap[name], self.grid.cs - bounds[0] + 1)
            cells = (hi_y - lo_y + 1) * (current if width is None else width)
            if self.kernel == "vector" or cells >= _kernel.VECTOR_MIN_CELLS:
                return _kernel.move_frame_mask(
                    self.view,
                    self.grid,
                    name,
                    table,
                    bounds,
                    lo_y,
                    hi_y,
                    current,
                    banned=excluded,
                    has_exclusions=self.has_exclusions,
                )
        frame = compute_frames(
            self.dfg,
            self.timing,
            self.grid,
            name,
            table=table,
            asap=self.asap,
            alap=self.alap,
            current=current,
            placed_starts=self.placed_starts,
            chain_offsets=self.chain_offsets,
            excluded_instances=excluded,
            bounds=bounds,
        )
        if self.trace is not None:
            self.trace.frame(name, table, frame, current)
        return frame if frame.mf else None

    def _commit(
        self,
        name: str,
        position: GridPosition,
        latency: int,
        energy: float,
        alternatives,
    ) -> None:
        """Place ``name`` at ``position`` and record the move."""
        self.grid.place(name, position, latency)
        if self.view is not None:
            self.view.place(position, latency)
        self._bounds.clear()
        self.placed_starts[name] = position.y
        self.placed_ends[name] = position.y + latency - 1
        dfg, timing = self.dfg, self.timing
        if timing.chaining and latency == 1:
            # §5.4: the combinational delay accumulated within the step.
            incoming = 0.0
            for pred in dfg.predecessors(name):
                if timing.latency(dfg.node(pred).kind) != 1:
                    continue
                if self.placed_starts.get(pred) == position.y:
                    incoming = max(incoming, self.chain_offsets.get(pred, 0.0))
            self.chain_offsets[name] = incoming + timing.delay_ns(
                dfg.node(name).kind
            )
        self.trajectory.record(
            node=name, position=position, energy=energy, alternatives=alternatives
        )

    # -- finish ----------------------------------------------------------
    def _schedule(
        self, resource_bounds: Optional[Mapping[str, int]] = None
    ) -> Schedule:
        """The run's validated schedule; ``Trajectory.verify`` runs
        too, and checks each move's argmin where alternatives were
        recorded."""
        schedule = Schedule(
            dfg=self.dfg,
            timing=self.timing,
            cs=self.cs,
            starts=dict(self.placed_starts),
            latency_l=self.latency_l,
            pipelined_kinds=self.pipelined_kinds,
        )
        schedule.validate(resource_bounds=resource_bounds)
        self.trajectory.verify()
        return schedule

    def _end_trace(self, **summary) -> None:
        """Close the trace: the perf snapshot (if any), then the run end."""
        if self.trace is None:
            return
        if self.perf is not None:
            self.trace.counters(dict(self.perf.counters))
        self.trace.run_end(commits=len(self.trajectory), **summary)
