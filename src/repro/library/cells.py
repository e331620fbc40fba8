"""Cell-library data model.

A :class:`CellLibrary` tells MFSA

* which (possibly multifunction) **ALU cells** exist and what they cost,
* what one **register** costs,
* what an ``r``-input **multiplexer** costs — a *nonlinear* function of
  ``r`` (§4.1: "the cost of a multiplexer with r data inputs … is not a
  linear function of r"),

plus the derived bounds (``f_max`` terms) the paper's ``C`` constant needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import LibraryError
from repro.dfg.ops import OP_SYMBOLS


@dataclass(frozen=True)
class ALUCell:
    """One (multi)functional ALU cell.

    Attributes
    ----------
    name:
        Unique cell name, e.g. ``"alu_add_sub"``.
    kinds:
        Operation kinds the cell can execute.
    area:
        Cell area in µm².
    """

    name: str
    kinds: frozenset
    area: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", frozenset(str(k) for k in self.kinds))
        if self.area <= 0:
            raise LibraryError(f"cell {self.name!r} must have positive area")
        if not self.kinds:
            raise LibraryError(f"cell {self.name!r} implements no operation")

    def can_execute(self, kind: str) -> bool:
        """Whether this cell can perform operations of ``kind``."""
        return str(kind) in self.kinds

    def label(self) -> str:
        """Paper-style label, e.g. ``(+-)`` for an adder/subtractor."""
        symbols = sorted(OP_SYMBOLS.get(k, k) for k in self.kinds)
        return "(" + "".join(symbols) + ")"


class MuxCostTable:
    """Nonlinear multiplexer cost: µm² of an ``r``-input, 1-output mux.

    A 0- or 1-input "mux" is a plain wire and costs nothing.  Costs for
    larger ``r`` come from an explicit table with a fitted extension beyond
    the table (tree-of-2:1-muxes growth: roughly ``(r-1)`` 2:1 stages).
    """

    def __init__(
        self,
        table: Optional[Mapping[int, float]] = None,
        unit_cost: float = 420.0,
    ) -> None:
        self._table: Dict[int, float] = dict(table or {})
        self._unit = unit_cost
        for r, cost in self._table.items():
            if r < 2 or cost <= 0:
                raise LibraryError(f"invalid mux table entry {r}: {cost}")
        # MFSA's bounded move-frame walk needs every mux cost >= 0.
        if unit_cost < 0:
            raise LibraryError(f"invalid mux unit cost {unit_cost}")

    def cost(self, inputs: int) -> float:
        """Cost of a mux with ``inputs`` data inputs."""
        if inputs <= 1:
            return 0.0
        if inputs in self._table:
            return self._table[inputs]
        # A tree of (inputs-1) two-to-one muxes.
        return self._unit * (inputs - 1)

    def max_increment(self, up_to: int = 32) -> float:
        """``max_r (Cost(MUX_{r+1}) − Cost(MUX_r))`` — used for f_MUX_max."""
        return max(self.cost(r + 1) - self.cost(r) for r in range(1, up_to))


class CellLibrary:
    """The full cost model MFSA optimises against."""

    def __init__(
        self,
        name: str,
        alus: Iterable[ALUCell],
        register_area: float,
        mux_costs: Optional[MuxCostTable] = None,
    ) -> None:
        self.name = name
        self._alus: Dict[str, ALUCell] = {}
        for cell in alus:
            if cell.name in self._alus:
                raise LibraryError(f"duplicate cell name {cell.name!r}")
            self._alus[cell.name] = cell
        if register_area <= 0:
            raise LibraryError("register area must be positive")
        self.register_area = float(register_area)
        self.mux_costs = mux_costs or MuxCostTable()

    # ------------------------------------------------------------------
    def cells(self) -> Tuple[ALUCell, ...]:
        """All ALU cells, in registration order."""
        return tuple(self._alus.values())

    def cell(self, name: str) -> ALUCell:
        """The cell called ``name``."""
        try:
            return self._alus[name]
        except KeyError:
            raise LibraryError(f"no cell named {name!r}") from None

    def cells_for(self, kind: str) -> Tuple[ALUCell, ...]:
        """Cells able to execute ``kind`` (raises if none)."""
        matches = tuple(c for c in self._alus.values() if c.can_execute(kind))
        if not matches:
            raise LibraryError(
                f"library {self.name!r} has no cell for kind {kind!r}"
            )
        return matches

    def check_covers(self, kinds: Sequence[str]) -> None:
        """Raise unless every kind in ``kinds`` has at least one cell."""
        for kind in kinds:
            self.cells_for(kind)

    def restricted(self, cell_names: Sequence[str]) -> "CellLibrary":
        """Sub-library with only the named cells (the paper's "restricted
        to some specific types" user option)."""
        return CellLibrary(
            name=f"{self.name}[restricted]",
            alus=[self.cell(n) for n in cell_names],
            register_area=self.register_area,
            mux_costs=self.mux_costs,
        )

    # ------------------------------------------------------------------
    # f_max bounds used by the paper's C constant (§4.1)
    # ------------------------------------------------------------------
    def f_alu_max(self) -> float:
        """``max Cost(ALU_j)`` over the library."""
        return max(cell.area for cell in self._alus.values())

    def f_mux_max(self) -> float:
        """``2 · max (Cost(MUX_{r+1}) − Cost(MUX_r))``."""
        return 2.0 * self.mux_costs.max_increment()

    def f_reg_max(self) -> float:
        """``2 · Cost(REG)``."""
        return 2.0 * self.register_area

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellLibrary({self.name!r}, {len(self._alus)} cells)"
