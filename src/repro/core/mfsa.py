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
    _optimize_canonical,
    optimize_mux_inputs,
)
from repro.allocation.registers import IncrementalRegisterEstimator
from repro.core.engine import MoveFrameEngine
from repro.core.frames import FrameSet
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
    #: The §4.1 weights the run priced with (the time-dominance audit
    #: reads them).
    weights: LiapunovWeights = LiapunovWeights()

    @property
    def cost(self) -> CostBreakdown:
        """Area roll-up (Table-2 ``Cost``)."""
        return self.datapath.cost_breakdown()

    def alu_labels(self) -> List[str]:
        """Paper-style ALU list (Table-2 ``ALU's`` column)."""
        return self.datapath.alu_labels()


class _InstanceMux:
    """The committed §5.6 picture of one ALU instance's member list: its
    signals' first-occurrence ids, its canonical key, ``(|L1|, |L2|)``
    and whether the optimiser's sweeps stopped on their cap."""

    __slots__ = ("ids", "key", "n1", "n2", "capped")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.key: List[tuple] = []
        self.n1 = 0
        self.n2 = 0
        self.capped = False

    def triple(self, operand: MuxOperand) -> tuple:
        """``operand``'s ``(left, right, commutative)`` triple as the next
        entry of :attr:`key` (new signals take the next free ids)."""
        ids = self.ids
        left = ids.get(operand.left)
        fresh = len(ids)
        if left is None:
            left = fresh
            fresh += 1
        right = operand.right
        if right is not None:
            right = left if right == operand.left else ids.get(right, fresh)
        return (left, right, operand.commutative)

    def append(self, operand: MuxOperand, n1: int, n2: int, capped: bool) -> None:
        """Commit ``operand`` with the sizes and cap flag it was priced at."""
        triple = self.triple(operand)
        self.ids.setdefault(operand.left, triple[0])
        if operand.right is not None:
            self.ids.setdefault(operand.right, triple[1])
        self.key.append(triple)
        self.n1, self.n2, self.capped = n1, n2, capped


class _AllocationState:
    """Mutable hardware picture MFSA's dynamic Liapunov function reads.

    With ``cache=True`` (the default) f_MUX is priced incrementally:

    * ``_operand_cache`` — :class:`MuxOperand` construction per node.  A
      node's operand signals never change during a run, yet the naive path
      rebuilds the operand of every *member* of an instance for every
      candidate position probed against that instance.
    * ``_mux`` — one :class:`_InstanceMux` per probed instance, extended
      by each commit.  A probe whose operand signals are all new to the
      instance costs ``cost(|L1| + 1) + cost(|L2| + 1)`` (one port less
      for a unary operand) without optimising: the §5.6 optimiser's
      answer for such an operand is known
      (:func:`~repro.allocation.mux._optimize_canonical`).  A probe
      that shares a signal, or a commutative one on a capped instance,
      runs the optimiser once on the instance's key plus its own triple
      (``mux.optimiser_runs``).
    * ``_mux_with_cache`` — the priced ``(cost, |L1|, |L2|, capped)``
      keyed by (instance, member count, candidate).  Member lists only
      grow, so the key is valid forever; commit reads the chosen
      candidate's entry to extend the instance.

    The cached path is exact (the same sizes the optimiser returns), so
    cached and uncached runs produce byte-identical schedules — the
    property ``tests/core/test_mfsa_equivalence.py`` locks down.
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
        self._mux: Dict[Tuple[str, int], _InstanceMux] = {}
        self._mux_with_cache: Dict[
            Tuple[str, int, int, str], Tuple[float, int, int, bool]
        ] = {}

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
        if not self.cache:
            members = self.ops_on.get((cell.name, x), [])
            operands = [self._mux_operand(member) for member in members]
            operands.append(self._mux_operand(name))
            assignment = optimize_mux_inputs(operands)
            costs = self.library.mux_costs
            return costs.cost(len(assignment.l1)) + costs.cost(
                len(assignment.l2)
            )
        return self._mux_priced(cell, x, name)[0]

    def _mux_priced(
        self, cell: ALUCell, x: int, name: str
    ) -> Tuple[float, int, int, bool]:
        """``(cost, |L1|, |L2|, capped)`` of instance ``x``'s member list
        plus ``name``, through ``_mux_with_cache``."""
        instance = self._mux.get((cell.name, x))
        if instance is None:
            instance = self._mux[(cell.name, x)] = _InstanceMux()
        memo_key = (cell.name, x, len(instance.key), name)
        priced = self._mux_with_cache.get(memo_key)
        perf = self.perf
        if priced is not None:
            if perf is not None:
                perf.incr("mfsa.mux_cache_hits")
            return priced
        if perf is not None:
            perf.incr("mfsa.mux_cache_misses")
        operand = self._mux_operand(name)
        ids = instance.ids
        n1, n2, capped = instance.n1, instance.n2, instance.capped
        left, right = operand.left, operand.right
        if (
            left not in ids
            and (right is None or right not in ids)
            and not (capped and operand.commutative and right is not None)
        ):
            # Only new signals: one more input per port the op feeds.
            n1 += 1
            if right is not None:
                n2 += 1
        else:
            if perf is not None:
                perf.incr("mux.optimiser_runs")
            l1, l2, _pattern, capped = _optimize_canonical(
                instance.key + [instance.triple(operand)]
            )
            n1, n2 = len(l1), len(l2)
        costs = self.library.mux_costs
        priced = (costs.cost(n1) + costs.cost(n2), n1, n2, capped)
        self._mux_with_cache[memo_key] = priced
        return priced

    def f_mux(self, cell: ALUCell, x: int, name: str) -> float:
        """§4.1: multiplexer cost delta under best signal sharing."""
        before = self._mux_cost.get((cell.name, x), 0.0)
        return self.mux_cost_with(cell, x, name) - before

    def f_mux_floor(self, cell: ALUCell, x: int) -> float:
        """A lower bound on :meth:`f_mux` at instance ``x`` for any
        operation, known without optimising: the new mux cost is >= 0
        (``MuxCostTable`` refuses negative costs), so f_MUX is at least
        minus the current one."""
        return -self._mux_cost.get((cell.name, x), 0.0)

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

    # -- commit ----------------------------------------------------------
    def commit(
        self, name: str, cell: ALUCell, x: int, lifetimes: List[Lifetime]
    ) -> None:
        key = (cell.name, x)
        if key not in self.ops_on:
            self.alu_area_spent += cell.area
        if self.cache:
            # The chosen candidate was priced, so this reads its entry.
            cost, n1, n2, capped = self._mux_priced(cell, x, name)
            self._mux[key].append(self._mux_operand(name), n1, n2, capped)
        else:
            cost = self.mux_cost_with(cell, x, name)
        self._mux_cost[key] = cost
        self.ops_on.setdefault(key, []).append(name)
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


class _StepBound:
    """MFSA's stop rule: when a cell's move frame holds no step that can win.

    A position ``(x, y)`` of the cell costs at least
    ``liapunov.value(y, f_ALU(x), f_MUX(x), 0.0)``, because f_REG >= 0.
    f_ALU and f_MUX depend on the column only: they are exact once the
    pricer has priced column ``x`` (``priced``), and before that f_MUX is
    at least :meth:`_AllocationState.f_mux_floor`.  Every term enters
    ``value`` by IEEE addition or by non-negative scaling, both monotone,
    so the bound holds for the rounded energies and rises with ``y``; it
    assumes nothing of ``C``.

    A column is dead at step ``y`` once ``(bound, y, rank)`` exceeds the
    best ``(energy, y, rank, x)`` key so far (``best``, kept current by
    the pricer).  No position of the column at ``y`` or later can then
    win, and the column stays dead: the best key only falls, the bound
    only rises.  :meth:`stops` tells the walk to stop before ``y`` once
    every candidate column is dead.  It keeps its place at the first
    column not yet found dead, so the walk pays O(1) amortised per step
    it asks about (:meth:`~repro.core.frames.FrameSet.steps` asks only
    at steps that hold a free column).
    """

    def __init__(
        self, liapunov, state, cell, rank, top, banned, open_only, priced, best
    ):
        self.value = liapunov.value
        self.state = state
        self.cell = cell
        self.rank = rank
        #: Candidate columns ``1 … top``, minus ``banned`` and, when
        #: opening would overspend, the unopened ones.
        self.top = top
        self.banned = banned
        self.open_only = open_only
        #: ``x → (f_ALU, f_MUX)`` of the columns priced so far.
        self.priced = priced
        self.best = best
        self.live = 1

    def stops(self, y: int) -> bool:
        """Whether no position at step ``y`` or later beats ``best``."""
        best = self.best
        if best is None:
            return False
        state, cell, priced = self.state, self.cell, self.priced
        while self.live <= self.top:
            x = self.live
            if x not in self.banned and not (
                self.open_only and not state.instance_open(cell, x)
            ):
                hw = priced.get(x)
                if hw is None:
                    hw = (state.f_alu(cell, x), state.f_mux_floor(cell, x))
                if (self.value(y, hw[0], hw[1], 0.0), y, self.rank) <= best:
                    return False
            self.live += 1
        return True


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
        the equivalence tests compare against.
    record_alternatives:
        Keep the full (position, energy) candidate list per move in the
        trajectory.  Off by default, and ``verify=True`` records it; its
        readers and the entry points that turn it on are those of
        :class:`~repro.core.mfs.MFSScheduler`.
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
            record_alternatives, "scalar", verify, perf, trace,
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
        grid = self._begin(columns, pipelined_tables, asap, alap, vector=False)
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

        perf = self.perf
        record_alternatives = self.record_alternatives
        # A run that records no candidate stops each frame's walk at the
        # first step that cannot win (_StepBound); recorded alternatives,
        # traces and the no_cache reference price whole frames.
        bounded = not (record_alternatives or no_cache) and trace is None
        for name in order:
            kind = dfg.node(name).kind
            latency = timing.latency(kind)
            frames: Dict[str, FrameSet] = {}  # per cell
            reg_cache: Dict[int, Tuple[float, List[Lifetime]]] = {}
            alternatives: List[Tuple[GridPosition, float]] = []
            # Traced candidates accumulate in a plain local list (cheap)
            # and land in the recorder as one batch at commit time.
            traced_cands: Optional[list] = [] if trace is not None else None

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
                it per pass, as the reference.  A bounded run
                (:class:`_StepBound`) stops a frame's walk only once a
                best key exists, so a frame it left part-built never
                reaches the fresh pass.
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
                    top_col = min(opened + 1, grid.columns(cell.name))
                    banned = (
                        state.excluded_instances(cell, name)
                        if self.style == 2
                        else ()
                    )
                    if cell.name in frames:
                        frame = frames[cell.name]
                    else:
                        frame = self._frame(
                            name,
                            cell.name,
                            opened if no_cache and not fresh_instance else top_col,
                            banned,
                        )
                        if not no_cache:
                            frames[cell.name] = frame
                    overspend = (
                        budget is not None
                        and state.alu_area_spent
                        + cell.area
                        + reserve_after(cell, kind)
                        > budget
                    )
                    # f_ALU and f_MUX depend on the instance column only,
                    # f_REG on the step only: each is derived once per
                    # column / step (per position without the cache).
                    hw_cache: Dict[int, Tuple[float, float]] = {}
                    rank = cell_rank[cell.name]
                    bound = None
                    if bounded:
                        bound = _StepBound(
                            liapunov,
                            state,
                            cell,
                            rank,
                            top_col if fresh_instance else opened,
                            banned,
                            overspend,
                            hw_cache,
                            best_key,
                        )
                    stop = None if bound is None else bound.stops
                    for y, xs in frame.steps(stop):
                        for x in xs:
                            if not fresh_instance and x > opened:
                                continue
                            if overspend and not state.instance_open(cell, x):
                                continue
                            if no_cache or y not in reg_cache:
                                if perf is not None:
                                    perf.incr("mfsa.reg_cache_misses")
                                lifetimes = state.input_lifetimes(
                                    name, y, placed_ends, self.pipelined_kinds
                                )
                                reg_cache[y] = (state.f_reg(lifetimes), lifetimes)
                            elif perf is not None:
                                perf.incr("mfsa.reg_cache_hits")
                            f_reg, lifetimes = reg_cache[y]
                            hw = None if no_cache else hw_cache.get(x)
                            if hw is None:
                                hw = (state.f_alu(cell, x), state.f_mux(cell, x, name))
                                if not no_cache:
                                    hw_cache[x] = hw
                            f_alu, f_mux = hw
                            energy = liapunov.value(y, f_alu, f_mux, f_reg)
                            if perf is not None:
                                perf.incr("mfsa.candidates_evaluated")
                            if traced_append is not None:
                                traced_append((
                                    cell.name, x, y, energy, f_alu, f_mux, f_reg,
                                ))
                            if record_alternatives:
                                alternatives.append(
                                    (GridPosition(cell.name, x, y), energy)
                                )
                            key = (energy, y, rank, x)
                            if best_key is None or key < best_key:
                                best_key = key
                                best_choice = (cell, x, y, energy, lifetimes)
                        if bound is not None:
                            bound.best = best_key
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
            cell, x, y, energy, lifetimes = best_choice
            position = GridPosition(cell.name, x, y)
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
            weights=self.weights,
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
