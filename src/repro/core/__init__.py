"""The paper's contribution: Move Frame Scheduling (MFS) and Mixed
Scheduling-Allocation (MFSA).

* :mod:`repro.core.grid` — the 2-D/3-D placement tables (one per FU/ALU
  kind) with occupancy rules for multi-cycle operations, structurally
  pipelined FUs, functional-pipelining folding and mutual exclusion;
* :mod:`repro.core.frames` — the primary/redundant/forbidden/move frames;
* :mod:`repro.core.liapunov` — the static (MFS) and dynamic (MFSA)
  Liapunov functions;
* :mod:`repro.core.priorities` — mobility-based priority ordering with the
  paper's multi-cycle inversion and tie-break rules;
* :mod:`repro.core.stability` — trajectory recording and verification of
  the Liapunov monotone-decrease property;
* :mod:`repro.core.engine` — the move-frame placement loop both share,
  on the scalar walk or, for MFS, a numpy (:mod:`repro.core.kernel`)
  walk;
* :mod:`repro.core.mfs` — the MFS scheduling algorithm;
* :mod:`repro.core.mfsa` — the MFSA mixed scheduling-allocation algorithm.
"""

from repro.core.grid import GridPosition, PlacementGrid
from repro.core.frames import FrameSet, compute_frames
from repro.core.liapunov import (
    MFSALiapunov,
    ResourceConstrainedLiapunov,
    StaticLiapunov,
    TimeConstrainedLiapunov,
    LiapunovWeights,
)
from repro.core.priorities import priority_order
from repro.core.stability import Trajectory, TrajectoryEvent
from repro.core.mfs import MFSResult, MFSScheduler, mfs_schedule
from repro.core.mfsa import MFSAResult, MFSAScheduler, mfsa_synthesize

__all__ = [
    "GridPosition",
    "PlacementGrid",
    "FrameSet",
    "compute_frames",
    "StaticLiapunov",
    "TimeConstrainedLiapunov",
    "ResourceConstrainedLiapunov",
    "MFSALiapunov",
    "LiapunovWeights",
    "priority_order",
    "Trajectory",
    "TrajectoryEvent",
    "MFSScheduler",
    "MFSResult",
    "mfs_schedule",
    "MFSAScheduler",
    "MFSAResult",
    "mfsa_synthesize",
]
