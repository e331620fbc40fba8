"""Trajectory recording and Liapunov-stability verification.

The paper's guarantee (§2.2) is that every move decreases the Liapunov
function monotonically, so the "system" (the evolving design) converges to
its equilibrium.  The schedulers record every placement decision as a
:class:`TrajectoryEvent`; :meth:`Trajectory.verify` re-checks, after the
fact, that

* every chosen position had the minimum energy within the move frame the
  algorithm saw (the movement mechanism of §2.4), on the events whose
  alternatives were recorded, and
* per operation, successive re-placements (local rescheduling) never
  increased the energy — property (2) of the theorem, ``V(X(k+1)) −
  V(X(k)) < 0`` along the trajectory.

The schedulers commit each operation once per run, so on their own
trajectories the second check finds a single energy per operation and
compares nothing; a run that recorded no alternatives carries no
audit.  Replayed and hand-built trajectories can carry more events per
operation.

The verifier backs both the test suite and the Figure-1 regeneration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import StabilityError
from repro.core.grid import GridPosition


@dataclass(frozen=True)
class TrajectoryEvent:
    """One placement decision.

    ``alternatives`` holds the energies of every move-frame position the
    algorithm evaluated, including the chosen one.  It is empty unless
    the run recorded them (the schedulers' ``record_alternatives``, on
    under ``verify=True``).
    """

    iteration: int
    node: str
    position: GridPosition
    energy: float
    alternatives: Tuple[Tuple[GridPosition, float], ...] = ()
    note: str = ""


@dataclass
class Trajectory:
    """Ordered record of all placement decisions of one run."""

    events: List[TrajectoryEvent] = field(default_factory=list)

    def record(
        self,
        node: str,
        position: GridPosition,
        energy: float,
        alternatives: Tuple[Tuple[GridPosition, float], ...] = (),
        note: str = "",
    ) -> None:
        """Append one decision."""
        self.events.append(
            TrajectoryEvent(
                iteration=len(self.events),
                node=node,
                position=position,
                energy=energy,
                alternatives=alternatives,
                note=note,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def events_for(self, node: str) -> List[TrajectoryEvent]:
        """All decisions concerning ``node`` (re-placements included)."""
        return [event for event in self.events if event.node == node]

    def final_positions(self) -> Dict[str, GridPosition]:
        """Last recorded position of every node."""
        positions: Dict[str, GridPosition] = {}
        for event in self.events:
            positions[event.node] = event.position
        return positions

    # ------------------------------------------------------------------
    def verify(self, tolerance: float = 1e-9) -> None:
        """Check the Liapunov movement properties; raise on violation."""
        for event in self.events:
            if event.alternatives:
                best = min(energy for _pos, energy in event.alternatives)
                if event.energy > best + tolerance:
                    raise StabilityError(
                        f"iteration {event.iteration}: node {event.node!r} "
                        f"took energy {event.energy}, but {best} was available"
                    )
        per_node: Dict[str, float] = {}
        for event in self.events:
            previous = per_node.get(event.node)
            if previous is not None and event.energy > previous + tolerance:
                raise StabilityError(
                    f"node {event.node!r} moved from energy {previous} to "
                    f"{event.energy}: Liapunov value increased"
                )
            per_node[event.node] = event.energy

    def total_energy(self) -> float:
        """Sum of final per-node energies — the V(X) of the end state."""
        finals: Dict[str, float] = {}
        for event in self.events:
            finals[event.node] = event.energy
        return sum(finals.values())
