"""Move Frame Scheduling — MFS (§3).

The algorithm, exactly as the paper lays it out:

1. ASAP and ALAP schedules within the given number of control steps fix
   each operation's time frame;
2. ``max_j`` per FU type comes from the user's resource constraints or,
   failing that, from the ASAP/ALAP concurrency; mobilities determine the
   priority order;
3. the ASNAP/ALFAP tables bound a 2-D frame per operation;
4. each operation, in priority order, is placed at the minimum-Liapunov
   position of its move frame ``MF = PF − (RF ∪ FF)``; if the frame is
   empty the opened-FU count ``current_j`` grows by one and the frames are
   rebuilt ("local rescheduling").

Supported synthesis aspects (§5): mutual exclusion, multi-cycle operations,
chaining, structural pipelining (pipelined FUs) and functional pipelining
(latency-``L`` folding).  Loop folding and the two-instance functional
pipelining procedure are DFG transforms (:mod:`repro.dfg.transforms`,
:mod:`repro.dfg.pipeline`) that feed this scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trace.recorder import TraceRecorder

from repro.errors import InfeasibleScheduleError, ScheduleError
from repro.dfg.analysis import (
    TimingModel,
    alap_schedule,
    asap_schedule,
    critical_path_length,
    type_concurrency,
)
from repro.dfg.graph import DFG
from repro.schedule.types import Schedule
from repro.core import kernel as _kernel
from repro.core.engine import MoveFrameEngine
from repro.core.frames import FrameSet
from repro.core.grid import GridPosition, PlacementGrid
from repro.core.liapunov import (
    ResourceConstrainedLiapunov,
    StaticLiapunov,
    TimeConstrainedLiapunov,
)
from repro.core.priorities import priority_order
from repro.core.stability import Trajectory
from repro.perf import PerfCounters


@dataclass
class MFSResult:
    """Everything a run produces.

    ``placements`` carries the FU binding implied by the grid (instance
    index ``x``), which downstream allocation reuses; ``fu_counts`` is the
    Table-1 metric (units actually needed per kind).
    """

    schedule: Schedule
    placements: Dict[str, GridPosition]
    trajectory: Trajectory
    grid: PlacementGrid
    fu_counts: Dict[str, int]
    frames_log: Dict[str, FrameSet] = field(default_factory=dict)

    @property
    def starts(self) -> Dict[str, int]:
        """Node → start step (shorthand)."""
        return self.schedule.starts


class MFSScheduler(MoveFrameEngine):
    """Configurable MFS runner.

    Parameters
    ----------
    dfg, timing:
        The graph and its latency/delay model.
    cs:
        Time constraint (required in ``"time"`` mode; in ``"resource"``
        mode it is the optional step *upper bound* for the tables).
    mode:
        ``"time"`` (fixed ``cs``, minimise/balance FUs — Liapunov
        ``x + n·y``) or ``"resource"`` (fixed FU bounds — Liapunov
        ``cs·x + y``).
    resource_bounds:
        kind → ``max_j``.  Optional in time mode (ASAP/ALAP concurrency is
        the default upper bound, per the paper, and grows by one column
        whenever local rescheduling exhausts it — the paper's "presummed
        big number"); required in resource mode, and never relaxed.
    latency_l:
        Functional-pipelining initiation interval (§5.5.2).
    pipelined_kinds:
        Kinds executed on structurally pipelined FUs (§5.5.1).
    record_frames:
        Keep the last :class:`FrameSet` per node (Figure-2 regeneration).
        Off by default — only the figure harness reads it.
    record_alternatives:
        Keep the full (position, energy) list of every move frame in the
        trajectory.  Off by default: the list is an audit artifact, not
        part of the algorithm, and on tall frames building it costs
        more than the placement (``docs/PERFORMANCE.md``).
        ``verify=True`` records it.  Its readers are the §2.2 argmin
        audit of :mod:`repro.check` (``check_liapunov_descent``, which
        has nothing to compare without it), ``Trajectory.verify``'s
        argmin check and the Figure-1 harness; the entry points that
        audit or draw a run (``repro check``, the scenario matrix, serve
        ``verify=1``, ``figure1``) turn it on.
    liapunov:
        Optional energy-function override.  The default is the mode's
        paper function (``x + n·y`` / ``cs·x + y``); a supplied instance
        is validated against the §3.1 dominance bounds before any
        placement, so an undersized ``n`` or ``cs`` raises instead of
        silently breaking step ordering.
    kernel:
        Move-frame walk: ``"scalar"`` (per-position python),
        ``"vector"`` (numpy bitmask frames), or ``"auto"`` (vector for
        the large frames of a large DFG, per operation).  Both walks
        produce byte-identical results — see :mod:`repro.core.kernel`
        for the dispatch rules, the features that pin a run to the
        scalar walk (tracing, frame recording, pipelining, custom
        Liapunov subclasses), and the measured regimes each walk wins.
    verify:
        Audit the finished run with :mod:`repro.check` (schedule
        legality, grid-occupancy consistency, Liapunov descent) and raise
        :class:`~repro.errors.VerificationError` on any violation.
    perf:
        Optional :class:`~repro.perf.PerfCounters` receiving frame/
        position counters and the ``mfs.run`` timer.
    trace:
        Optional :class:`~repro.trace.recorder.TraceRecorder` receiving
        typed decision events — frame constructions, per-candidate
        Liapunov evaluations, commits, local-rescheduling steps, and the
        run summary (plus the ``perf`` counter snapshot when both are
        given).  ``None`` (the default) records nothing and costs
        nothing.
    """

    algorithm = "mfs"

    def __init__(
        self,
        dfg: DFG,
        timing: TimingModel,
        cs: Optional[int] = None,
        mode: str = "time",
        resource_bounds: Optional[Mapping[str, int]] = None,
        latency_l: Optional[int] = None,
        pipelined_kinds: Iterable[str] = (),
        record_frames: bool = False,
        record_alternatives: bool = False,
        liapunov: Optional[StaticLiapunov] = None,
        kernel: str = "auto",
        verify: bool = False,
        perf: Optional[PerfCounters] = None,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        if mode not in ("time", "resource"):
            raise ValueError(f"mode must be 'time' or 'resource', got {mode!r}")
        super().__init__(
            dfg, timing, cs, latency_l, pipelined_kinds,
            record_alternatives, kernel, verify, perf, trace,
        )
        self.mode = mode
        self.record_frames = record_frames
        self.user_liapunov = liapunov
        self.user_bounds = dict(resource_bounds) if resource_bounds else None

        if mode == "time":
            if cs is None:
                raise ScheduleError("time-constrained MFS needs cs")
        else:
            if not self.user_bounds:
                raise ScheduleError("resource-constrained MFS needs resource_bounds")
            if cs is None:
                self.cs = self._serial_upper_bound()

    # ------------------------------------------------------------------
    def _serial_upper_bound(self) -> int:
        """A step budget that always suffices: run everything serially."""
        total = sum(
            self.timing.latency(node.kind) for node in self.dfg
        )
        return max(total, critical_path_length(self.dfg, self.timing), 1)

    def _auto_bounds(
        self, asap: Mapping[str, int], alap: Mapping[str, int]
    ) -> Dict[str, int]:
        """§3.2 Step 2: max FU counts seen in the ASAP and ALAP schedules."""
        asap_usage = type_concurrency(
            self.dfg, asap, self.timing, self.latency_l, self.pipelined_kinds
        )
        alap_usage = type_concurrency(
            self.dfg, alap, self.timing, self.latency_l, self.pipelined_kinds
        )
        bounds: Dict[str, int] = {}
        for kind in self.dfg.kinds_used():
            bounds[kind] = max(asap_usage.get(kind, 1), alap_usage.get(kind, 1))
        return bounds

    def _initial_current(self, kind: str, max_j: int) -> int:
        """§3.2 Step 4: ``current_j = ⌈N_j / cs⌉`` (at least 1, at most max)."""
        count = self.dfg.count_by_kind().get(kind, 0)
        return min(max(1, math.ceil(count / self.cs)), max_j)

    # ------------------------------------------------------------------
    def _run(self) -> MFSResult:
        dfg, timing = self.dfg, self.timing
        trace = self.trace
        if trace is not None:
            trace.run_start("mfs", dfg.name, self.cs, mode=self.mode)
        if len(dfg) == 0:
            if trace is not None:
                trace.run_end(commits=0, fu_counts={})
            empty = Schedule(dfg=dfg, timing=timing, cs=max(self.cs or 1, 1), starts={})
            return MFSResult(
                schedule=empty,
                placements={},
                trajectory=Trajectory(),
                grid=PlacementGrid(dfg, max(self.cs or 1, 1), {}),
                fu_counts={},
            )

        asap = asap_schedule(dfg, timing)
        alap = alap_schedule(dfg, timing, self.cs)  # raises if infeasible

        if self.user_bounds is not None:
            max_j = dict(self.user_bounds)
            for kind in dfg.kinds_used():
                if kind not in max_j:
                    raise ScheduleError(f"no resource bound given for kind {kind!r}")
        else:
            max_j = self._auto_bounds(asap, alap)

        liapunov = self._make_liapunov(max_j)
        order = priority_order(dfg, timing, asap, alap)

        current: Dict[str, int] = {
            kind: self._initial_current(kind, max_j[kind])
            for kind in dfg.kinds_used()
        }
        frames_log: Dict[str, FrameSet] = {}

        # Only the two paper functions have the closed form the vector
        # walk prices; a user-supplied Liapunov subclass stays scalar.
        vector = self._vector_walk(
            self.pipelined_kinds, record_frames=self.record_frames
        ) and type(liapunov) in (
            TimeConstrainedLiapunov,
            ResourceConstrainedLiapunov,
        )
        grid = self._begin(dict(max_j), self.pipelined_kinds, asap, alap, vector)

        perf = self.perf
        for name in order:
            kind = dfg.node(name).kind
            latency = timing.latency(kind)
            while True:
                frame = self._frame(name, kind, current[kind])
                if frame is not None:
                    break
                # §3.2 Step 4: local rescheduling — open one more FU; with
                # automatic bounds, widen an exhausted table by one.
                if perf is not None:
                    perf.incr("mfs.local_reschedules")
                if current[kind] < grid.columns(kind):
                    current[kind] += 1
                    step = "open-fu"
                elif self.user_bounds is None:
                    grid.widen(kind, grid.columns(kind) + 1)
                    current[kind] = grid.columns(kind)
                    liapunov = self._make_liapunov(
                        {k: grid.columns(k) for k in grid.tables()}
                    )
                    step = "widen-table"
                else:
                    raise InfeasibleScheduleError(
                        f"no position for {name!r} ({kind}) within "
                        f"{grid.columns(kind)} units and {self.cs} steps"
                    )
                if trace is not None:
                    trace.reschedule(name, kind, step, current[kind])
            if type(frame) is tuple:  # the vector walk's (mask, lo_y)
                mask, lo_y = frame
                if perf is not None:
                    perf.incr("mfs.positions_evaluated", int(mask.sum()))
                chosen, energy, alternatives = _kernel.static_argmin(
                    mask, lo_y, kind, liapunov, self.record_alternatives
                )
            else:
                if self.record_frames:
                    frames_log[name] = frame
                # Single pass: every move-frame position is scored once,
                # feeding both the trajectory record and the argmin.
                values = {
                    position: liapunov.value(position) for position in frame.mf
                }
                if perf is not None:
                    perf.incr("mfs.positions_evaluated", len(values))
                chosen = liapunov.best(frame.mf, values=values)
                energy = values[chosen]
                alternatives = (
                    tuple(values.items()) if self.record_alternatives else ()
                )
                if trace is not None:
                    trace.candidates(name, kind, values.items())
                    trace.commit(
                        name, kind, kind, chosen.x, chosen.y, energy, latency
                    )
            self._commit(name, chosen, latency, energy, alternatives)

        resource_bounds = self.user_bounds if self.mode == "resource" else None
        schedule = self._schedule(resource_bounds)
        fu_counts = schedule.fu_usage()
        self._end_trace(fu_counts=dict(fu_counts))
        result = MFSResult(
            schedule=schedule,
            placements=grid.placements(),
            trajectory=self.trajectory,
            grid=grid,
            fu_counts=fu_counts,
            frames_log=frames_log,
        )
        if self.verify:
            from repro.check.runner import check_mfs_result

            check_mfs_result(
                result, resource_bounds=resource_bounds
            ).raise_if_failed()
        return result

    # ------------------------------------------------------------------
    def _make_liapunov(self, max_j: Mapping[str, int]) -> StaticLiapunov:
        widest = max(max_j.values()) if max_j else 1
        if self.user_liapunov is not None:
            liapunov = self.user_liapunov
        elif self.mode == "time":
            liapunov = TimeConstrainedLiapunov(n=max(widest, 1))
        else:
            liapunov = ResourceConstrainedLiapunov(cs=self.cs)
        # §3.1 dominance: an undersized bound would not crash — it would
        # quietly misorder the argmin — so enforce it here, where the grid
        # geometry the function must dominate is known.
        try:
            if isinstance(liapunov, TimeConstrainedLiapunov):
                liapunov.require_dominance(widest)
            elif isinstance(liapunov, ResourceConstrainedLiapunov):
                liapunov.require_dominance(self.cs)
        except ValueError as error:
            raise ScheduleError(str(error)) from None
        return liapunov


def mfs_schedule(
    dfg: DFG,
    timing: TimingModel,
    cs: Optional[int] = None,
    **kwargs,
) -> MFSResult:
    """One-call convenience wrapper around :class:`MFSScheduler`."""
    return MFSScheduler(dfg, timing, cs=cs, **kwargs).run()
