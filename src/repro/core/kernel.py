"""MFS's two move-frame walks: scalar reference vs numpy-vectorised.

MFS and MFSA share one engine (:mod:`repro.core.engine`) that prices
every candidate grid position of every operation.  MFSA has one walk,
the scalar one: :meth:`repro.core.frames.FrameSet.steps` builds a frame
one control step at a time from the grid's per-step column bitmasks,
and MFSA prices it one position at a time, stopping at the first step
that cannot win (:class:`repro.core.mfsa._StepBound`).  MFS has two.
Two steps differ by walk — building a move frame and pricing it to an
argmin.  The *scalar* walk is MFSA's frame builder with the static
Liapunov function; the *vector* walk uses numpy bitmask arithmetic over
whole frames:

* the placement grid is mirrored into one boolean occupancy matrix per
  table (``[y, x]``, row-major, 1-based like the grid);
* the forbidden/chain row filters and the column filters become boolean
  index vectors;
* a latency-``k`` operation's availability is the sliding ``any`` of the
  occupancy window, an O(k) sequence of vectorised ORs;
* the static energies of all admissible positions are one broadcasted
  integer expression, exact like the scalar values;
* the argmin is a row-major flat ``argmin``, which reproduces the scalar
  tie order (energy, then step ``y``, then instance ``x``) because the
  matrix is laid out ``[y, x]``.

Both walks produce **byte-identical results** — schedules, placements,
trajectories; :mod:`repro.check.kernels` and the hypothesis suite in
``tests/property/test_property_kernel.py`` enforce it.  numpy is a
required dependency, so both walks always exist, and each wins a regime:
per position, python beats the numpy walk's per-frame setup on small
frames, and the numpy walk wins once a frame holds many positions
(``docs/PERFORMANCE.md``).

numpy is imported on first use, by the functions below, not with this
module: a process loads it when its first MFS frame takes the vector
walk, and pays the one-time import (about 150 ms) there.  A process
that never takes that walk never loads it — the CLI and both serve
roles at start-up, the serve pool workers, every MFSA run, paper-size
runs (below ``VECTOR_MIN_OPS``), traced runs, and table/report sweeps
of the paper's examples — which saves each of them 7–12 MB of peak RSS.

MFS's dispatch policy (``MFSScheduler(kernel=...)``):

* ``"scalar"`` — every frame takes the reference walk;
* ``"vector"`` — every frame takes the numpy walk;
* ``"auto"`` (the default) — two gates.  A *run* may take the numpy walk
  once its DFG is big enough to pay for the occupancy mirror
  (:func:`resolve_kernel`: ``n_ops >= VECTOR_MIN_OPS``); paper-sized
  examples stay scalar end to end.  Within such a run each *operation*
  takes the numpy walk when its frame rectangle — primary-frame rows
  clipped to the grid × open columns — holds at least
  ``VECTOR_MIN_CELLS`` cells (``MoveFrameEngine._frame``).  Other frames
  are built and priced by the scalar walk.

Time-mode MFS with the paper's ``x + n·y`` stops each frame after the
first step with a free cell on both walks (exact under
``require_dominance``), so ``auto``, ``scalar`` and ``vector`` runs with
equal options count alike.  A run that records what a frame holds
prices whole frames: recorded alternatives (``verify=True`` among
them), trace recorders, ``record_frames`` and resource mode.

Independently of the requested kernel, MFS falls back to the scalar
walk for the features the vector walk does not model: attached trace
recorders (the per-candidate event stream *is* the scalar walk),
``record_frames`` (the Figure-2 harness wants ``FrameSet`` logs),
functional pipelining / structurally pipelined tables (folded
occupancy), and user-supplied Liapunov subclasses (only the two paper
functions have a closed form the kernel trusts).
:func:`vector_supported` centralises that decision so the scheduler and
its callers agree on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - numpy loads on first use (typing only)
    import numpy as np

from repro.core.grid import GridPosition, PlacementGrid

#: Recognised kernel names.
KERNELS = ("auto", "scalar", "vector")

#: ``auto`` lets a run take the vector walk from this DFG size.  Below it
#: the numpy occupancy mirror and per-frame setup do not pay: dropping
#: the gate slowed 330 ``compile_paper``-size jobs (12–47 ops) by 4 %,
#: p50 2.71 → 2.83 ms (2-vCPU VM, best of 3 per job).
VECTOR_MIN_OPS = 48

#: Within a vector-eligible ``auto`` run, an operation takes the vector
#: walk only when its frame rectangle (PF rows clipped to the grid × open
#: columns) has at least this many cells.  Re-fitted with move-frame
#: alternatives off, the default, on 45 ``compile_large`` jobs of seed 906
#: (2-vCPU VM, best of 3 per job, decode + schedule + encode, two
#: interleaved passes): 32 cells 1906/1954 ms, 48 → 1882/1918, 64 →
#: 1848/1984, 96 → 1906/2083, 128 → 2048/2127; every frame vector
#: 2395/2571 ms, every frame scalar 2131/2299 ms.
VECTOR_MIN_CELLS = 64


def resolve_kernel(name: str = "auto", n_ops: Optional[int] = None) -> str:
    """Resolve an MFS kernel request to ``"scalar"`` or ``"vector"``.

    ``n_ops`` feeds the ``auto`` size gate; ``None`` means "assume big"
    (callers that resolve once per sweep rather than per design).  Under
    ``auto``, ``"vector"`` means the run *may* take the vector walk: each
    operation then picks its walk by frame size (``VECTOR_MIN_CELLS``).
    MFSA runs never take it.
    """
    if name not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {name!r}")
    if name == "auto":
        return "scalar" if n_ops is not None and n_ops < VECTOR_MIN_OPS else "vector"
    return name


def vector_supported(
    *,
    trace: bool = False,
    record_frames: bool = False,
    latency_l: Optional[int] = None,
    pipelined_tables: Sequence[str] = (),
    no_cache: bool = False,
) -> bool:
    """Whether a run's feature set is covered by the vector inner loop.

    Unsupported combinations silently use the scalar reference loop —
    results are identical either way, only the walk differs.
    """
    if trace or record_frames or no_cache:
        return False
    return latency_l is None and not pipelined_tables


# ----------------------------------------------------------------------
# numpy occupancy mirror
# ----------------------------------------------------------------------
class VectorGrid:
    """Boolean occupancy mirror of a :class:`PlacementGrid`.

    One ``bool[cs + 2, columns + 1]`` matrix per table, indexed ``[y, x]``
    with the grid's 1-based coordinates (row 0 / column 0 stay unused so
    no index arithmetic differs from the scalar path).  The scheduler
    notifies the mirror on every :meth:`place`; tables are (re)built from
    the grid's authoritative occupancy when first touched or after a
    :meth:`PlacementGrid.widen`.

    The mirror records "at least one occupant".  Mutual exclusion (§5.1)
    makes some occupied cells still placeable for an operation on a
    branch; for such an operation the mask builder re-checks exactly
    those cells through :meth:`PlacementGrid.is_free`, so exclusion
    semantics stay centralised in the grid.
    """

    def __init__(self, grid: PlacementGrid) -> None:
        self._grid = grid
        self._occ: Dict[str, "np.ndarray"] = {}

    def table(self, table: str) -> "np.ndarray":
        """The occupancy matrix of ``table`` (rebuilt after widening)."""
        occ = self._occ.get(table)
        columns = self._grid.columns(table)
        if occ is None or occ.shape[1] < columns + 1:
            import numpy as np

            occ = np.zeros((self._grid.cs + 2, columns + 1), dtype=bool)
            for x, y in self._grid.occupancy_cells(table):
                occ[y, x] = True
            self._occ[table] = occ
        return occ

    def place(self, position: GridPosition, latency: int) -> None:
        """Mirror one placement (non-folded occupancy only).  A table no
        frame has touched yet is skipped: :meth:`table` seeds it from the
        grid, so a run whose frames all take the scalar walk never
        builds a matrix."""
        if position.table in self._occ:
            occ = self.table(position.table)
            occ[position.y : position.y + latency, position.x] = True


# ----------------------------------------------------------------------
# move-frame masks
# ----------------------------------------------------------------------
def move_frame_mask(
    view: VectorGrid,
    grid: PlacementGrid,
    node: str,
    table: str,
    bounds: Tuple[int, int, int, Tuple[int, ...]],
    lo_y: int,
    hi_y: int,
    top_col: int,
    banned: Tuple[int, ...] = (),
    has_exclusions: bool = False,
) -> Optional[Tuple["np.ndarray", int]]:
    """Admissible-position mask of one (node, table) move frame.

    ``bounds`` is :func:`repro.core.frames.frame_bounds` of the node;
    ``lo_y … hi_y`` are its primary-frame rows clipped to the grid.
    Returns ``(mask, lo_y)`` where ``mask[i, j]`` covers step
    ``lo_y + i`` and instance column ``j + 1`` — or ``None`` when no
    position is admissible.  Mirrors, bit for bit, the filter chain of
    :func:`repro.core.frames.compute_frames`: primary rows, forbidden
    rows (chain re-admission included), the column budget, style-2
    exclusions, and grid occupancy over the full latency span.
    """
    latency, latest_pred_end, ff_rows_after, chain_rows = bounds
    if hi_y < lo_y or top_col < 1:
        return None

    import numpy as np

    ys = np.arange(lo_y, hi_y + 1)
    row_ok = ys > latest_pred_end
    if chain_rows:
        row_ok |= np.isin(ys, np.array(chain_rows))
    row_ok &= ys < ff_rows_after

    occ = view.table(table)
    window = occ[lo_y : hi_y + latency, 1 : top_col + 1]
    n_rows = len(ys)
    blocked = window[0:n_rows].copy()
    for offset in range(1, latency):
        blocked |= window[offset : offset + n_rows]

    mask = row_ok[:, None] & ~blocked
    banned_cols = [x - 1 for x in banned if 1 <= x <= top_col]
    if banned_cols:
        mask[:, banned_cols] = False

    if has_exclusions:
        # Occupied cells may still admit a mutually exclusive node —
        # re-check exactly those through the grid's full predicate.
        recheck = row_ok[:, None] & blocked
        if banned_cols:
            recheck[:, banned_cols] = False
        for i, j in zip(*np.nonzero(recheck)):
            if grid.is_free(node, table, int(j) + 1, int(ys[i]), latency):
                mask[i, j] = True

    return (mask, lo_y) if mask.any() else None


def first_free(
    mask: "np.ndarray", lo_y: int, table: str
) -> Tuple[GridPosition, int]:
    """The mask's first admissible position in ``(y, x)`` order, and how
    many admissible positions its step holds."""
    i = int(mask.any(axis=1).argmax())
    row = mask[i]
    return GridPosition(table, int(row.argmax()) + 1, lo_y + i), int(row.sum())


def static_argmin(
    mask: "np.ndarray",
    lo_y: int,
    table: str,
    liapunov,
    want_alternatives: bool,
) -> Tuple[GridPosition, int, Tuple]:
    """MFS placement pick: static Liapunov argmin over one frame mask.

    Evaluates ``liapunov.value_xy`` on the whole frame in one broadcast —
    both paper functions are integer-valued on integer coordinates, so
    the int64 matrix carries the exact scalar energies — and returns
    ``(position, energy, alternatives)``.  The row-major flat ``argmin``
    returns the first minimal entry in ``[y, x]`` order, the scalar
    walk's tie order under the key ``(energy, y, x)``; if requested, the
    alternatives are the same (position, energy) sequence the scalar
    walk records.
    """
    import numpy as np

    ys = np.arange(lo_y, lo_y + mask.shape[0], dtype=np.int64)
    xs = np.arange(1, mask.shape[1] + 1, dtype=np.int64)
    energy = liapunov.value_xy(xs[None, :], ys[:, None])
    i, j = divmod(int(np.argmin(np.where(mask, energy, np.inf))), mask.shape[1])
    alternatives: Tuple = ()
    if want_alternatives:
        rows, cols = np.nonzero(mask)
        alternatives = tuple(
            (GridPosition(table, int(x) + 1, lo_y + int(y)), value)
            for y, x, value in zip(rows, cols, energy[mask].tolist())
        )
    return GridPosition(table, j + 1, lo_y + i), int(energy[i, j]), alternatives
