"""Move Frame Scheduling-Allocation — MFSA (§4).

MFSA keeps MFS's tables, frames and movement mechanism but

* one table exists per *ALU cell* of the user's library (an addition may
  go to ``(+)``, ``(+-)``, ``(+>)``, … — §4.1), and
* the Liapunov function is *dynamic*:

      ``V = Σ (f_TIME + f_ALU + f_MUX + f_REG)``

  where ``f_ALU`` is the cost of opening a new ALU instance (zero when
  reusing one), ``f_MUX`` the incremental multiplexer cost under best
  input-signal sharing (§5.6), and ``f_REG`` the incremental register cost
  from the candidate's input-signal life spans (§5.8).  ``f_TIME = C·y``
  dominates so control steps are never wasted.

Two design styles (§4.2): style 1 is unrestricted; style 2 forbids
self-loops around ALUs (an operation may not share an instance with its
DFG predecessors or successors — the SYNTEST self-testable style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trace.recorder import TraceRecorder

from repro.errors import InfeasibleScheduleError, ScheduleError
from repro.dfg.analysis import TimingModel, alap_schedule, asap_schedule
from repro.dfg.graph import DFG
from repro.library.cells import ALUCell, CellLibrary
from repro.schedule.types import Schedule
from repro.allocation.datapath import CostBreakdown, Datapath
from repro.allocation.lifetimes import Lifetime
from repro.allocation.mux import (
    MuxOperand,
    _canonical_form,
    cached_mux_sizes_for_key,
    optimize_mux_inputs,
)
from repro.allocation.registers import IncrementalRegisterEstimator
from repro.core import kernel as _kernel
from repro.core.engine import MoveFrameEngine
from repro.core.grid import GridPosition, PlacementGrid
from repro.core.liapunov import LiapunovWeights, MFSALiapunov
from repro.core.priorities import priority_order
from repro.core.stability import Trajectory
from repro.perf import PerfCounters


@dataclass
class MFSAResult:
    """Schedule + RTL structure + audit trail of one MFSA run."""

    schedule: Schedule
    datapath: Datapath
    placements: Dict[str, GridPosition]
    trajectory: Trajectory
    grid: PlacementGrid
    style: int

    @property
    def cost(self) -> CostBreakdown:
        """Area roll-up (Table-2 ``Cost``)."""
        return self.datapath.cost_breakdown()

    def alu_labels(self) -> List[str]:
        """Paper-style ALU list (Table-2 ``ALU's`` column)."""
        return self.datapath.alu_labels()


class _AllocationState:
    """Mutable hardware picture MFSA's dynamic Liapunov function reads.

    With ``cache=True`` (the default) two exact memo tables remove the
    redundant work of candidate evaluation:

    * ``_operand_cache`` — :class:`MuxOperand` construction per node.  A
      node's operand signals never change during a run, yet the naive path
      rebuilds the operand of every *member* of an instance for every
      candidate position probed against that instance.
    * ``_mux_with_cache`` — mux costs keyed by the instance's committed
      member tuple plus the candidate.  The optimised mux cost is a pure
      function of exactly those operand lists (the mux cost table is
      library-wide), so the key is valid forever: a commit grows the
      member tuple, which simply routes later probes of that instance to
      a new key — no invalidation walk.  Misses fall through to the
      process-wide renaming-canonical optimiser memo in
      :mod:`repro.allocation.mux`, where isomorphic operand lists across
      instances, schedulers and runs share one ``optimize_mux_inputs``
      call.

    Both caches are exact (same inputs → same deterministic optimiser
    call), so cached and uncached runs produce byte-identical schedules —
    the property ``tests/core/test_mfsa_equivalence.py`` locks down.
    """

    def __init__(
        self,
        dfg: DFG,
        timing: TimingModel,
        library: CellLibrary,
        cache: bool = True,
        perf: Optional[PerfCounters] = None,
    ) -> None:
        self.dfg = dfg
        self.timing = timing
        self.library = library
        self.ops_on: Dict[Tuple[str, int], List[str]] = {}
        self.opened_columns: Dict[str, int] = {}
        self._mux_cost: Dict[Tuple[str, int], float] = {}
        self.registers = IncrementalRegisterEstimator()
        self.alu_area_spent = 0.0
        self.cache = cache
        self.perf = perf
        self._operand_cache: Dict[str, MuxOperand] = {}
        self._mux_with_cache: Dict[Tuple[str, int, int, str], float] = {}
        # Canonical form (key, ids, names) of each instance's committed
        # member list, so a candidate probe extends it by one operand in
        # O(1) instead of re-canonicalising the whole list.  Entries are
        # dropped on commit and lazily rebuilt.
        self._canon_prefix: Dict[Tuple[str, int], tuple] = {}

    # -- ALU ------------------------------------------------------------
    def instance_open(self, cell: ALUCell, x: int) -> bool:
        return (cell.name, x) in self.ops_on

    def f_alu(self, cell: ALUCell, x: int) -> float:
        """§4.1: a new ALU costs its area; an existing one is free."""
        return 0.0 if self.instance_open(cell, x) else cell.area

    # -- MUX ------------------------------------------------------------
    def _mux_operand(self, name: str) -> MuxOperand:
        if self.cache:
            cached = self._operand_cache.get(name)
            if cached is not None:
                if self.perf is not None:
                    self.perf.incr("mfsa.operand_cache_hits")
                return cached
        node = self.dfg.node(name)
        spec = self.timing.ops.spec(node.kind)
        signals = node.operand_names()
        operand = MuxOperand(
            op=name,
            left=signals[0],
            right=signals[1] if len(signals) > 1 else None,
            commutative=spec.commutative,
        )
        if self.cache:
            if self.perf is not None:
                self.perf.incr("mfsa.operand_cache_misses")
            self._operand_cache[name] = operand
        return operand

    def mux_cost_with(self, cell: ALUCell, x: int, name: str) -> float:
        members = self.ops_on.get((cell.name, x), [])
        costs = self.library.mux_costs
        if not self.cache:
            operands = [self._mux_operand(member) for member in members]
            operands.append(self._mux_operand(name))
            assignment = optimize_mux_inputs(operands)
            return costs.cost(len(assignment.l1)) + costs.cost(
                len(assignment.l2)
            )
        # Member lists only ever grow, so (instance, member count,
        # candidate) identifies the operand list — an O(1) key where
        # hashing the member tuple itself would walk the whole list.
        memo_key = (cell.name, x, len(members), name)
        cached = self._mux_with_cache.get(memo_key)
        if cached is not None:
            if self.perf is not None:
                self.perf.incr("mfsa.mux_cache_hits")
            return cached
        if self.perf is not None:
            self.perf.incr("mfsa.mux_cache_misses")
        # Second level: the process-wide renaming-canonical memo in
        # repro.allocation.mux — isomorphic operand lists (across
        # instances, runs and schedulers) share one optimiser call.  The
        # canonical key is built by extending the instance's committed
        # canonical prefix with the candidate operand in O(1), instead of
        # re-canonicalising the whole member list on every probe.
        prefix = self._canon_prefix.get((cell.name, x))
        if prefix is None:
            canon_key, canon_names = _canonical_form(
                [self._mux_operand(member) for member in members]
            )
            canon_ids = {s: i for i, s in enumerate(canon_names)}
            prefix = (canon_key, canon_ids, canon_names)
            self._canon_prefix[(cell.name, x)] = prefix
        canon_key, canon_ids, canon_names = prefix
        operand = self._mux_operand(name)
        base = len(canon_names)
        left = canon_ids.get(operand.left)
        extra_names = []
        if left is None:
            left = base
            extra_names.append(operand.left)
        if operand.right is None:
            right = None
        elif operand.right == operand.left:
            right = left
        else:
            right = canon_ids.get(operand.right)
            if right is None:
                right = base + len(extra_names)
                extra_names.append(operand.right)
        full_key = canon_key + ((left, right, operand.commutative),)
        n1, n2 = cached_mux_sizes_for_key(full_key, perf=self.perf)
        cost = costs.cost(n1) + costs.cost(n2)
        self._mux_with_cache[memo_key] = cost
        return cost

    def f_mux(self, cell: ALUCell, x: int, name: str) -> float:
        """§4.1: multiplexer cost delta under best signal sharing."""
        before = self._mux_cost.get((cell.name, x), 0.0)
        return self.mux_cost_with(cell, x, name) - before

    # -- REG ------------------------------------------------------------
    def input_lifetimes(
        self,
        name: str,
        y: int,
        placed_ends: Mapping[str, int],
        pipelined_kinds: frozenset = frozenset(),
    ) -> List[Lifetime]:
        """Life spans the candidate step ``y`` gives the node's inputs.

        A non-pipelined multi-cycle consumer holds its operands until its
        end step (see :mod:`repro.allocation.lifetimes`).
        """
        node = self.dfg.node(name)
        latency = self.timing.latency(node.kind)
        death = y
        if latency > 1 and node.kind not in pipelined_kinds:
            death = y + latency - 1
        lifetimes: List[Lifetime] = []
        seen = set()
        for port in node.operands:
            if not port.is_node or port.name in seen:
                continue
            seen.add(port.name)
            birth = placed_ends[port.name]
            lifetimes.append(
                Lifetime(value=port.signal_name(), birth=birth, death=death)
            )
        return lifetimes

    def f_reg(self, lifetimes: List[Lifetime]) -> float:
        """§4.1/§5.8: new registers required, via activity selection."""
        return self.registers.cost_of(lifetimes) * self.library.register_area

    def f_reg_rows(
        self,
        name: str,
        lo_y: int,
        hi_y: int,
        placed_ends: Mapping[str, int],
        pipelined_kinds: frozenset,
    ):
        """:meth:`f_reg` at every start step ``lo_y … hi_y`` as one numpy
        row vector (the vector walk's batched f_REG): the input signals
        :meth:`input_lifetimes` would list, minus those already stored,
        each dying ``delta`` steps after the start."""
        node = self.dfg.node(name)
        latency = self.timing.latency(node.kind)
        delta = latency - 1 if latency > 1 and node.kind not in pipelined_kinds else 0
        births = []
        seen = set()
        for port in node.operands:
            if not port.is_node or port.name in seen:
                continue
            seen.add(port.name)
            if not self.registers.is_known(port.signal_name()):
                births.append(placed_ends[port.name])
        counts = _kernel.batched_reg_costs(
            self.registers, births, delta, lo_y, hi_y
        )
        return counts * self.library.register_area

    # -- commit ----------------------------------------------------------
    def commit(
        self, name: str, cell: ALUCell, x: int, lifetimes: List[Lifetime]
    ) -> None:
        key = (cell.name, x)
        if key not in self.ops_on:
            self.alu_area_spent += cell.area
        self._mux_cost[key] = self.mux_cost_with(cell, x, name)
        # Appending to the member list retires the old memo key of this
        # instance automatically — no explicit invalidation needed.  The
        # canonical prefix is extended in place by the committed operand
        # (first-occurrence indexing, exactly like _canonical_form).
        self.ops_on.setdefault(key, []).append(name)
        entry = self._canon_prefix.get(key)
        if entry is not None:
            canon_key, canon_ids, canon_names = entry
            if canon_key is None:  # pragma: no cover - duplicate op ids
                self._canon_prefix.pop(key, None)
            else:
                operand = self._mux_operand(name)
                left = canon_ids.get(operand.left)
                if left is None:
                    left = len(canon_names)
                    canon_ids[operand.left] = left
                    canon_names.append(operand.left)
                if operand.right is None:
                    right = None
                else:
                    right = canon_ids.get(operand.right)
                    if right is None:
                        right = len(canon_names)
                        canon_ids[operand.right] = right
                        canon_names.append(operand.right)
                self._canon_prefix[key] = (
                    canon_key + ((left, right, operand.commutative),),
                    canon_ids,
                    canon_names,
                )
        self.opened_columns[cell.name] = max(
            self.opened_columns.get(cell.name, 0), x
        )
        self.registers.commit(lifetimes)

    def excluded_instances(self, cell: ALUCell, name: str) -> Tuple[int, ...]:
        """Style-2 exclusions: instances hosting a predecessor/successor."""
        related = set(self.dfg.predecessors(name)) | set(self.dfg.successors(name))
        banned = []
        for (cell_name, x), members in self.ops_on.items():
            if cell_name == cell.name and related & set(members):
                banned.append(x)
        return tuple(banned)


class MFSAScheduler(MoveFrameEngine):
    """Configurable MFSA runner (time-constrained, per the paper's Table 2).

    Parameters mirror :class:`~repro.core.mfs.MFSScheduler`; additionally:

    library:
        The :class:`CellLibrary` of available (multifunction) ALUs,
        registers and mux costs.  Each cell gets one table with a column
        per compatible operation (the "presummed big number").
    style:
        1 = unrestricted RTL, 2 = no self-loop around ALUs (§4.2).
    weights:
        The §4.1 weighted-Liapunov emphasis (default: all ones).
    no_cache:
        Disable the incremental-evaluation layer (operand, mux, f_REG and
        shared-frame caches) and re-derive every Liapunov term from
        scratch for every candidate position — the slow reference path
        the equivalence tests compare against.  Always the scalar walk.
    kernel:
        Move-frame walk: ``"scalar"`` (per-position python),
        ``"vector"`` (numpy bitmask frames and one broadcasted §4.1
        energy matrix per cell), or ``"auto"`` (vector for the large
        frames of a large DFG, per operation).  Both walks are
        byte-identical — :mod:`repro.core.kernel` documents the dispatch
        rules, the features (tracing, pipelining, ``no_cache``) that pin
        a run to the scalar walk, and the measured regimes each walk wins.
    record_alternatives:
        Keep the full (position, energy) candidate list per move in the
        trajectory.  Off by default, and ``verify=True`` records it; its
        readers and the entry points that turn it on are those of
        :class:`~repro.core.mfs.MFSScheduler`.  While it is off and the
        library's mux costs are monotone, the vector pricer skips
        columns whose zero-mux energy cannot beat the running best (see
        ``prune_mux`` in the run loop).
    verify:
        Audit the finished run with :mod:`repro.check` (schedule
        legality, grid-occupancy consistency, Liapunov descent, datapath
        and netlist consistency) and raise
        :class:`~repro.errors.VerificationError` on any violation.
    perf:
        Optional :class:`~repro.perf.PerfCounters` receiving candidate/
        cache counters and the ``mfsa.run`` timer.
    trace:
        Optional :class:`~repro.trace.recorder.TraceRecorder` receiving
        typed decision events — frame constructions, per-candidate
        energies with the §4.1 ``f_TIME``/``f_ALU``/``f_MUX``/``f_REG``
        breakdown, commits (with the chosen ALU cell), fresh-instance
        rescheduling steps, and the run summary including the Table-2
        cost roll-up (plus the ``perf`` counter snapshot when both are
        given).  ``None`` (the default) records nothing and costs
        nothing.
    """

    algorithm = "mfsa"

    def __init__(
        self,
        dfg: DFG,
        timing: TimingModel,
        library: CellLibrary,
        cs: int,
        style: int = 1,
        weights: LiapunovWeights = LiapunovWeights(),
        latency_l: Optional[int] = None,
        pipelined_kinds: Iterable[str] = (),
        no_cache: bool = False,
        record_alternatives: bool = False,
        open_policy: str = "reuse-first",
        area_budget: Optional[float] = None,
        kernel: str = "auto",
        verify: bool = False,
        perf: Optional[PerfCounters] = None,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        if style not in (1, 2):
            raise ValueError(f"style must be 1 or 2, got {style}")
        if open_policy not in ("reuse-first", "eager"):
            raise ValueError(
                f"open_policy must be 'reuse-first' or 'eager', got {open_policy!r}"
            )
        if area_budget is not None and area_budget <= 0:
            raise ValueError(f"area_budget must be positive, got {area_budget}")
        super().__init__(
            dfg, timing, cs, latency_l, pipelined_kinds,
            record_alternatives, kernel, verify, perf, trace,
        )
        self.library = library
        self.style = style
        self.weights = weights
        self.no_cache = no_cache
        # "reuse-first" is the paper's redundant-frame rule (open a new ALU
        # instance only when no opened one can host the operation);
        # "eager" always offers a fresh instance, letting f_TIME dominance
        # buy hardware for earlier steps — kept as an ablation knob.
        self.open_policy = open_policy
        # Optional ALU-area cap (cost-constrained synthesis in the spirit
        # of the paper's ref. [9]): opening an instance that would push
        # the summed ALU area past the budget is forbidden; if no
        # placement remains the run fails rather than overspend.  Note the
        # reuse-first policy already opens the fewest instances the greedy
        # can: the cap certifies a ceiling (and catches regressions), it
        # does not buy area reductions below the policy's natural
        # appetite — a budget under that appetite raises
        # :class:`InfeasibleScheduleError`.
        self.area_budget = area_budget
        library.check_covers(dfg.kinds_used())

    # ------------------------------------------------------------------
    def _run(self) -> MFSAResult:
        dfg, timing = self.dfg, self.timing
        trace = self.trace
        if len(dfg) == 0:
            raise ScheduleError("MFSA needs a non-empty DFG")
        if trace is not None:
            trace.run_start("mfsa", dfg.name, self.cs, style=self.style)

        asap = asap_schedule(dfg, timing)
        alap = alap_schedule(dfg, timing, self.cs)
        order = priority_order(dfg, timing, asap, alap)

        candidates_by_kind: Dict[str, Tuple[ALUCell, ...]] = {
            kind: self.library.cells_for(kind) for kind in dfg.kinds_used()
        }
        cell_rank = {cell.name: i for i, cell in enumerate(self.library.cells())}

        counts = dfg.count_by_kind()
        columns: Dict[str, int] = {}
        pipelined_tables = []
        for cell in self.library.cells():
            compatible = sum(counts.get(kind, 0) for kind in cell.kinds)
            if compatible == 0:
                continue
            columns[cell.name] = compatible
            if cell.kinds and cell.kinds <= self.pipelined_kinds:
                pipelined_tables.append(cell.name)

        liapunov = MFSALiapunov(self.library, self.weights)
        no_cache = self.no_cache
        state = _AllocationState(
            dfg, timing, self.library, cache=not no_cache, perf=self.perf
        )
        vector = self._vector_walk(pipelined_tables, no_cache=no_cache)
        grid = self._begin(columns, pipelined_tables, asap, alap, vector)
        placed_ends = self.placed_ends

        # Area-budget bookkeeping: cheapest capable cell per kind and how
        # many operations of each kind are still unplaced.  Opening an
        # instance must leave enough headroom to cover every kind that
        # would otherwise end up with no capable instance at all.
        budget = self.area_budget
        cheapest_cell_area = {
            kind: min(cell.area for cell in candidates_by_kind[kind])
            for kind in candidates_by_kind
        }
        remaining_by_kind = dict(counts)

        def reserve_after(cell: ALUCell, for_kind: str) -> float:
            """Headroom needed for kinds not yet covered by any instance.

            A lower bound: the dearest single uncovered kind's cheapest
            cell (one multifunction cell may cover several kinds at once,
            so summing would over-reserve and reject feasible budgets).
            """
            reserve = 0.0
            for kind, left in remaining_by_kind.items():
                pending = left - (1 if kind == for_kind else 0)
                if pending <= 0:
                    continue
                if cell.can_execute(kind):
                    continue
                if any(
                    self.library.cell(cell_name).can_execute(kind)
                    for (cell_name, _x) in state.ops_on
                ):
                    continue
                reserve = max(reserve, cheapest_cell_area[kind])
            return reserve

        # Lazy f_MUX: with a monotone mux-cost table the zero-mux energy
        # lower-bounds a column, so columns that cannot beat the running
        # best skip the §5.6 optimiser entirely.  The argmin (and hence
        # every result) is unchanged; only the mux/operand cache counters
        # reflect the skipped work.  A recorded run prices every
        # candidate, so pruning runs only with alternatives off.
        prune_mux = (
            vector
            and not self.record_alternatives
            and _kernel.mux_costs_monotone(
                self.library.mux_costs, 2 * len(dfg) + 2
            )
        )

        perf = self.perf
        record_alternatives = self.record_alternatives
        for name in order:
            kind = dfg.node(name).kind
            latency = timing.latency(kind)
            frames: Dict[str, object] = {}  # per cell; None: no position
            reg_cache: Dict[int, Tuple[float, List[Lifetime]]] = {}
            f_reg_rows = priced_rows = None
            alternatives: List[Tuple[GridPosition, float]] = []
            # Traced candidates accumulate in a plain local list (cheap)
            # and land in the recorder as one batch at commit time.
            traced_cands: Optional[list] = [] if trace is not None else None
            # All of the op's frames take one walk, picked by its widest
            # frame: each pricer keeps its own per-op f_REG cache, whose
            # counters must add up as on the scalar walk.
            width = None
            if self.view is not None:
                width = max(
                    min(
                        state.opened_columns.get(cell.name, 0) + 1,
                        grid.columns(cell.name),
                    )
                    for cell in candidates_by_kind[kind]
                )

            def price_vector(cell, sub, lo_y, overspend, best_key):
                """The vector pricer: ``(key, position)`` of the cell's
                best candidate in its frame mask ``sub``, or ``None``.

                The §4.1 terms are gathered once per active row (f_REG)
                and column (f_ALU, f_MUX) — the same calls, with the same
                cache counters, as the scalar walk's caches make — and
                priced in one broadcast.
                """
                nonlocal f_reg_rows, priced_rows
                import numpy as np

                if overspend:
                    # Opening would overspend: only already-open columns
                    # stay eligible (the scalar walk's per-position filter).
                    sub = sub & np.array(
                        [state.instance_open(cell, j + 1) for j in range(sub.shape[1])]
                    )[None, :]
                if not sub.any():
                    return None
                n_candidates = int(sub.sum())
                row_idx = np.nonzero(sub.any(axis=1))[0]
                col_idx = np.nonzero(sub.any(axis=0))[0]
                if f_reg_rows is None:
                    f_reg_rows = state.f_reg_rows(
                        name, lo_y, lo_y + sub.shape[0] - 1, placed_ends,
                        self.pipelined_kinds,
                    )
                    priced_rows = np.zeros(sub.shape[0], dtype=bool)
                misses = int(np.count_nonzero(~priced_rows[row_idx]))
                priced_rows[row_idx] = True
                if perf is not None:
                    perf.incr("mfsa.candidates_evaluated", n_candidates)
                    perf.incr("mfsa.reg_cache_misses", misses)
                    perf.incr("mfsa.reg_cache_hits", n_candidates - misses)
                width = sub.shape[1]
                f_alu_vec = np.zeros(width)
                for j in col_idx:
                    f_alu_vec[j] = state.f_alu(cell, int(j) + 1)
                ys = np.arange(lo_y, lo_y + sub.shape[0], dtype=np.int64)
                if prune_mux and best_key is not None:
                    # Zero-mux energies lower-bound each column; a column
                    # whose bound already exceeds the running best cannot
                    # host the argmin and skips the §5.6 mux optimiser.
                    bound = liapunov.value_grid(
                        ys, f_alu_vec, np.zeros(width), f_reg_rows
                    )
                    col_lb = np.where(sub, bound, np.inf).min(axis=0)
                    keep = col_lb[col_idx] <= best_key[0]
                    if not keep.any():
                        return None
                    if not keep.all():
                        col_idx = col_idx[keep]
                        col_ok = np.zeros(width, dtype=bool)
                        col_ok[col_idx] = True
                        sub = sub & col_ok[None, :]
                f_mux_vec = np.zeros(width)
                for j in col_idx:
                    f_mux_vec[j] = state.f_mux(cell, int(j) + 1, name)
                energy = liapunov.value_grid(ys, f_alu_vec, f_mux_vec, f_reg_rows)
                if record_alternatives:
                    alternatives.extend(
                        zip(
                            _kernel.mask_positions(sub, cell.name, lo_y),
                            energy[sub].tolist(),
                        )
                    )
                position, best = _kernel.argmin_position(
                    sub, energy, cell.name, lo_y
                )
                key = (float(best), position.y, cell_rank[cell.name], position.x)
                return key, position

            def gather(fresh_instance: bool):
                """Collect candidate placements.

                ``fresh_instance=False`` is the paper's redundant-frame rule:
                only already opened ALU instances are eligible.  When that
                move frame is empty, MFSA "locally reschedules" by letting
                one fresh instance per cell kind join the frame
                (``fresh_instance=True``) and the f_ALU term arbitrates
                which cell to open.

                A frame's move positions are per-(x, y) feasibility checks
                with no coupling between positions, so the reuse pass's
                frame is the fresh pass's filtered to ``x <= opened``: one
                frame per cell serves both passes.  ``no_cache`` rebuilds
                it per pass, as the reference.
                """
                best_key = None
                best_choice = None
                traced_append = (
                    traced_cands.append if traced_cands is not None else None
                )
                for cell in candidates_by_kind[kind]:
                    opened = state.opened_columns.get(cell.name, 0)
                    if not fresh_instance and opened == 0:
                        continue
                    if cell.name in frames:
                        frame = frames[cell.name]
                    else:
                        frame = self._frame(
                            name,
                            cell.name,
                            opened
                            if no_cache and not fresh_instance
                            else min(opened + 1, grid.columns(cell.name)),
                            state.excluded_instances(cell, name)
                            if self.style == 2
                            else (),
                            width,
                        )
                        if not no_cache:
                            frames[cell.name] = frame
                    if frame is None:
                        continue
                    overspend = (
                        budget is not None
                        and state.alu_area_spent
                        + cell.area
                        + reserve_after(cell, kind)
                        > budget
                    )
                    if type(frame) is tuple:  # the vector walk's (mask, lo_y)
                        mask, lo_y = frame
                        priced = price_vector(
                            cell,
                            mask if fresh_instance else mask[:, :opened],
                            lo_y,
                            overspend,
                            best_key,
                        )
                        if priced is not None and (
                            best_key is None or priced[0] < best_key
                        ):
                            best_key, position = priced
                            best_choice = (cell, position, best_key[0], None)
                        continue
                    # The scalar pricer.  f_ALU and f_MUX depend on the
                    # instance column only, f_REG on the step only: each is
                    # derived once per column / step (per position without
                    # the cache).
                    hw_cache: Dict[int, Tuple[float, float]] = {}
                    rank = cell_rank[cell.name]
                    for position in frame.mf:
                        if not fresh_instance and position.x > opened:
                            continue
                        if overspend and not state.instance_open(cell, position.x):
                            continue
                        if no_cache or position.y not in reg_cache:
                            if perf is not None:
                                perf.incr("mfsa.reg_cache_misses")
                            lifetimes = state.input_lifetimes(
                                name,
                                position.y,
                                placed_ends,
                                self.pipelined_kinds,
                            )
                            reg_cache[position.y] = (
                                state.f_reg(lifetimes),
                                lifetimes,
                            )
                        elif perf is not None:
                            perf.incr("mfsa.reg_cache_hits")
                        f_reg, lifetimes = reg_cache[position.y]
                        hw = None if no_cache else hw_cache.get(position.x)
                        if hw is None:
                            hw = (
                                state.f_alu(cell, position.x),
                                state.f_mux(cell, position.x, name),
                            )
                            if not no_cache:
                                hw_cache[position.x] = hw
                        f_alu, f_mux = hw
                        energy = liapunov.value(position.y, f_alu, f_mux, f_reg)
                        if perf is not None:
                            perf.incr("mfsa.candidates_evaluated")
                        if traced_append is not None:
                            traced_append((
                                cell.name, position.x, position.y,
                                energy, f_alu, f_mux, f_reg,
                            ))
                        if record_alternatives:
                            alternatives.append((position, energy))
                        key = (energy, position.y, rank, position.x)
                        if best_key is None or key < best_key:
                            best_key = key
                            best_choice = (cell, position, energy, lifetimes)
                return best_choice

            if self.open_policy == "eager":
                best_choice = gather(fresh_instance=True)
            else:
                best_choice = gather(fresh_instance=False)
                if best_choice is None:
                    # §4: no opened instance can host the op — let a fresh
                    # instance per cell join the frame (f_ALU arbitrates).
                    if trace is not None:
                        trace.reschedule(name, kind, "fresh-instance", 0)
                    best_choice = gather(fresh_instance=True)
            if best_choice is None:
                raise InfeasibleScheduleError(
                    f"MFSA found no position for {name!r} ({kind}) in "
                    f"{self.cs} steps (style {self.style})"
                )
            cell, position, energy, lifetimes = best_choice
            if lifetimes is None:  # the vector pricer skips per-step lifetimes
                lifetimes = state.input_lifetimes(
                    name, position.y, placed_ends, self.pipelined_kinds
                )
            if trace is not None:
                trace.candidates_detailed(name, traced_cands, liapunov.c_constant)
                trace.commit(
                    name,
                    kind,
                    position.table,
                    position.x,
                    position.y,
                    energy,
                    latency,
                    cell=cell,  # label() resolved at materialisation
                )
            remaining_by_kind[kind] -= 1
            self._commit(name, position, latency, energy, tuple(alternatives))
            state.commit(name, cell, position.x, lifetimes)

        schedule = self._schedule()
        binding = {
            name: (pos.table, pos.x) for name, pos in grid.placements().items()
        }
        datapath = Datapath(
            schedule, self.library, binding, count_input_registers=True
        )
        if self.style == 2 and datapath.has_self_loop():
            raise ScheduleError(
                "style-2 MFSA produced a self-loop around an ALU (internal error)"
            )
        result = MFSAResult(
            schedule=schedule,
            datapath=datapath,
            placements=grid.placements(),
            trajectory=self.trajectory,
            grid=grid,
            style=self.style,
        )
        if trace is not None:
            cost = result.cost
            self._end_trace(
                cost={
                    "alu": cost.alu,
                    "registers": cost.registers,
                    "mux": cost.mux,
                    "total": cost.total,
                },
                alus=result.alu_labels(),
            )
        if self.verify:
            from repro.check.runner import check_mfsa_result

            check_mfsa_result(result).raise_if_failed()
        return result


def mfsa_synthesize(
    dfg: DFG,
    timing: TimingModel,
    library: CellLibrary,
    cs: int,
    **kwargs,
) -> MFSAResult:
    """One-call convenience wrapper around :class:`MFSAScheduler`."""
    return MFSAScheduler(dfg, timing, library, cs, **kwargs).run()
