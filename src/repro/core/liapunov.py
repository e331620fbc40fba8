"""Liapunov (energy) functions guiding MFS and MFSA (§2.4, §3.1, §4.1).

The *static* functions used by MFS assign a fixed value to every grid
position:

* time-constrained:      ``V(x, y) = x + n·y``  with ``n = max_j max_j``
  (so the last FU of step ``t`` is cheaper than the first FU of ``t+1``);
* resource-constrained:  ``V(x, y) = cs·x + y`` (an existing FU at ``t+1``
  beats a new FU at ``t``).

The *dynamic* MFSA function values a candidate position by

    ``f_TIME + f_ALU + f_MUX + f_REG``

where ``f_TIME = C·y`` and ``C`` is derived from the library bounds so that
an earlier control step always wins when one is available (§4.1); the other
terms are incremental hardware costs supplied by the allocation state.  A
weighted variant supports user emphasis (``w_TIME·f_TIME + …``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.grid import GridPosition
from repro.library.cells import CellLibrary


class StaticLiapunov:
    """Base class for the static MFS energy functions.

    Subclasses implement :meth:`value`.  ``tie_key`` produces the full
    comparison key used when several positions share the minimum energy —
    the paper breaks such ties arbitrarily; we break them deterministically
    by (value, step, instance).
    """

    def value(self, position: GridPosition) -> float:
        """Energy of one grid position."""
        raise NotImplementedError

    def tie_key(self, position: GridPosition):
        """Deterministic total order on positions."""
        return (self.value(position), position.y, position.x)

    def best(self, positions, values=None) -> Optional[GridPosition]:
        """Minimum-energy position of an iterable (None when empty).

        ``values`` may carry precomputed energies (a mapping position →
        energy); the caller typically already evaluated every move-frame
        position for the trajectory record, and passing them here avoids
        re-running :meth:`value` once per position inside the argmin
        (``tie_key`` would otherwise recompute each one).
        """
        positions = list(positions)
        if not positions:
            return None
        if values is None:
            return min(positions, key=self.tie_key)
        return min(
            positions, key=lambda p: (values[p], p.y, p.x)
        )


@dataclass
class TimeConstrainedLiapunov(StaticLiapunov):
    """``V = x + n·y`` — never waste a control step (§3.1).

    ``n`` must be at least the widest table (``max_j``) so that position
    ``(max_j, t)`` has lower energy than ``(1, t+1)``.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def require_dominance(self, max_j: int) -> None:
        """Enforce the §3.1 dominance bound ``n >= max_j``.

        With ``n < max_j`` position ``(max_j, t)`` costs more than
        ``(1, t+1)`` and the argmin silently prefers wasting a control
        step over opening the last FU — the step-ordering guarantee is
        gone.  Call sites must check against the widest table they will
        actually offer positions in.
        """
        if self.n < max_j:
            raise ValueError(
                f"time-constrained Liapunov n={self.n} does not dominate "
                f"{max_j} FU columns (need n >= max_j): step ordering "
                f"would silently break"
            )

    def value(self, position: GridPosition) -> float:
        return position.x + self.n * position.y

    def value_xy(self, x, y):
        """:meth:`value` on raw coordinates; broadcasts over numpy arrays."""
        return x + self.n * y


@dataclass
class ResourceConstrainedLiapunov(StaticLiapunov):
    """``V = cs·x + y`` — reuse an existing FU instead of adding one (§3.1).

    ``cs`` must be an upper bound on the number of control steps so that
    position ``(x, cs)`` still beats ``(x+1, 1)``.
    """

    cs: int

    def __post_init__(self) -> None:
        if self.cs < 1:
            raise ValueError(f"cs must be >= 1, got {self.cs}")

    def require_dominance(self, schedule_steps: int) -> None:
        """Enforce the §3.1 dominance bound ``cs >= schedule length``.

        With ``cs`` smaller than the number of control steps offered,
        ``(x, cs+1)`` costs more than ``(x+1, 1)`` and the argmin opens a
        new FU instead of reusing an existing one in a late step —
        instance ordering silently breaks.
        """
        if self.cs < schedule_steps:
            raise ValueError(
                f"resource-constrained Liapunov cs={self.cs} does not "
                f"dominate a {schedule_steps}-step table (need cs >= "
                f"schedule length): FU-reuse ordering would silently break"
            )

    def value(self, position: GridPosition) -> float:
        return self.cs * position.x + position.y

    def value_xy(self, x, y):
        """:meth:`value` on raw coordinates; broadcasts over numpy arrays."""
        return self.cs * x + y


#: The least weight :class:`MFSALiapunov` divides by or scales ``C`` with.
WEIGHT_FLOOR = 1e-9


@dataclass(frozen=True)
class LiapunovWeights:
    """User emphasis weights of the four MFSA cost factors (§4.1).

    All ones gives "an overall optimizer without emphasising any particular
    factor" — the paper's default.
    """

    time: float = 1.0
    alu: float = 1.0
    mux: float = 1.0
    reg: float = 1.0

    def __post_init__(self) -> None:
        for label, weight in (
            ("time", self.time),
            ("alu", self.alu),
            ("mux", self.mux),
            ("reg", self.reg),
        ):
            if weight < 0:
                raise ValueError(f"weight {label} must be >= 0, got {weight}")

    @property
    def time_dominant(self) -> bool:
        """Whether :class:`MFSALiapunov` gives ``w.time · C`` the full
        nominal hardware spread plus one.  Below :data:`WEIGHT_FLOOR`,
        ``C`` stops growing and the time term shrinks with the weight:
        the user has weighted time (nearly) out, so an earlier step has
        no claim over a cheaper later one."""
        return self.time >= WEIGHT_FLOOR


class MFSALiapunov:
    """The dynamic MFSA energy function (§4.1).

    The paper asks for a constant ``C`` with

        ``C > [f_ALU_max + f_MUX_max + f_REG_max] − [f_ALU_min + f_MUX_min
        + f_REG_min]``

    so that ``f_TIME = C·y`` dominates: control step ``t`` is selected
    before ``t+1`` whenever hardware allows.  ``C`` here is the sum of
    the library's maximum increments plus one, which takes every minimum
    as zero.  f_ALU and f_REG are never negative, but f_MUX is: the
    shipped mux table is not monotone (12 inputs cost 6 200 µm², 13 cost
    5 040), so adding an operand can shrink a mux, and measured f_MUX
    prices reach −2 320 µm².  The hardware terms can then span more
    than ``C``, and dominance is not guaranteed.  It is audited instead
    (``liapunov.time-dominance`` in :mod:`repro.check.liapunov`, a note
    that fails no audit, and only for time-dominant weights), and the
    schedulers' bounded move-frame walks do not rely on it.
    """

    def __init__(
        self,
        library: CellLibrary,
        weights: LiapunovWeights = LiapunovWeights(),
    ) -> None:
        self.library = library
        self.weights = weights
        spread = library.f_alu_max() + library.f_mux_max() + library.f_reg_max()
        # Scale by the largest hardware weight so weighting cannot break
        # the time-dominance inequality.
        hardware_weight = max(weights.alu, weights.mux, weights.reg, WEIGHT_FLOOR)
        self.c_constant = (spread * hardware_weight + 1.0) / max(
            weights.time, WEIGHT_FLOOR
        )

    def f_time(self, y: int) -> float:
        """``C · y`` — the step-ordering term."""
        return self.c_constant * y

    def value(self, y: int, f_alu: float, f_mux: float, f_reg: float) -> float:
        """Total (weighted) energy of a candidate placement."""
        w = self.weights
        return (
            w.time * self.f_time(y)
            + w.alu * f_alu
            + w.mux * f_mux
            + w.reg * f_reg
        )

    def hardware_value(self, f_alu: float, f_mux: float, f_reg: float) -> float:
        """The hardware-only part of :meth:`value` (for reporting)."""
        w = self.weights
        return w.alu * f_alu + w.mux * f_mux + w.reg * f_reg
