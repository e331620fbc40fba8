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

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "GridPosition": "grid",
    "PlacementGrid": "grid",
    "FrameSet": "frames",
    "compute_frames": "frames",
    "StaticLiapunov": "liapunov",
    "TimeConstrainedLiapunov": "liapunov",
    "ResourceConstrainedLiapunov": "liapunov",
    "MFSALiapunov": "liapunov",
    "LiapunovWeights": "liapunov",
    "priority_order": "priorities",
    "Trajectory": "stability",
    "TrajectoryEvent": "stability",
    "MFSScheduler": "mfs",
    "MFSResult": "mfs",
    "mfs_schedule": "mfs",
    "MFSAScheduler": "mfsa",
    "MFSAResult": "mfsa",
    "mfsa_synthesize": "mfsa",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
