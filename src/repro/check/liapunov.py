"""Liapunov-descent replay checks (§2.2, §2.4).

The paper's stability theorem rests on two movement properties: each
operation is placed at the *minimum-energy* position of the move frame
the algorithm saw, and re-placements never increase an operation's
energy.  :class:`~repro.core.stability.Trajectory` raises on the first
breach; this checker replays the recorded trajectory and reports every
breach, plus bookkeeping defects the raising verifier does not look at
(a chosen position missing from its own alternatives list, or recorded
with an energy that disagrees with the alternatives entry).

:func:`check_time_dominance` audits MFSA's §4.1 premise that
``f_TIME = C·y`` dominates — "control step t is selected before t+1
whenever hardware allows" — which no choice of ``C`` guarantees once the
mux cost table is not monotone.  A breach is therefore no defect of the
run: :func:`~repro.check.runner.check_mfsa_result` files it as a note,
which fails no audit.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.liapunov import LiapunovWeights
from repro.core.stability import Trajectory
from repro.check.report import Violation


def check_liapunov_descent(
    trajectory: Trajectory, tolerance: float = 1e-9
) -> List[Violation]:
    """Audit a recorded trajectory for the §2.2 movement properties."""
    violations: List[Violation] = []
    for event in trajectory:
        if not event.alternatives:
            continue
        energies = dict(event.alternatives)
        best = min(energies.values())
        if event.energy > best + tolerance:
            violations.append(
                Violation(
                    "liapunov.not-argmin",
                    event.node,
                    f"iteration {event.iteration}: took energy "
                    f"{event.energy}, but {best} was available in the "
                    f"move frame",
                )
            )
        recorded = energies.get(event.position)
        if recorded is None:
            violations.append(
                Violation(
                    "liapunov.position-not-in-frame",
                    event.node,
                    f"iteration {event.iteration}: chosen position "
                    f"{event.position} is not among the recorded "
                    f"move-frame alternatives",
                )
            )
        elif abs(recorded - event.energy) > tolerance:
            violations.append(
                Violation(
                    "liapunov.energy-mismatch",
                    event.node,
                    f"iteration {event.iteration}: recorded energy "
                    f"{event.energy} disagrees with the frame entry "
                    f"{recorded}",
                )
            )

    per_node: Dict[str, float] = {}
    for event in trajectory:
        previous = per_node.get(event.node)
        if previous is not None and event.energy > previous + tolerance:
            violations.append(
                Violation(
                    "liapunov.ascent",
                    event.node,
                    f"moved from energy {previous} to {event.energy}: "
                    f"Liapunov value increased along the trajectory",
                )
            )
        per_node[event.node] = event.energy
    return violations


def check_time_dominance(
    trajectory: Trajectory, weights: LiapunovWeights = LiapunovWeights()
) -> List[Violation]:
    """Audit that each recorded commit sits at its earliest candidate step.

    Only moves with recorded alternatives are audited; a move that took a
    later step than one its move frame offered is a breach.  Nothing is
    audited when the run's ``weights`` are not
    :attr:`~repro.core.liapunov.LiapunovWeights.time_dominant`: a cheaper
    later step is then the correct argmin.
    """
    violations: List[Violation] = []
    if not weights.time_dominant:
        return violations
    for event in trajectory:
        if not event.alternatives:
            continue
        earliest = min(position.y for position, _energy in event.alternatives)
        if event.position.y > earliest:
            violations.append(
                Violation(
                    "liapunov.time-dominance",
                    event.node,
                    f"iteration {event.iteration}: committed at step "
                    f"{event.position.y}, but the move frame offered step "
                    f"{earliest}",
                )
            )
    return violations
