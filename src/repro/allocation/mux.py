"""Multiplexer input-list optimisation (§5.6).

Each ALU has two input multiplexers, ``MUX¹`` and ``MUX²``, feeding its
left and right operand ports.  Given the operations bound to one ALU, the
task is to build two signal lists ``L1``/``L2`` with ``|L1| + |L2|``
minimum: non-commutative operations fix their operand sides; each
commutative operation may be flipped.

The paper uses a constructive pass (non-commutative first, then the two
orientations of each commutative operation); we add a cheap fixpoint
improvement sweep on top, which never hurts and frequently saves an input.
Interconnect sharing (§5.7) falls out of the signal-name keying: operands
carrying the same signal occupy a single mux input / wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class MuxOperand:
    """Operand pair of one operation bound to an ALU."""

    op: str
    left: str
    right: Optional[str]
    commutative: bool


@dataclass
class MuxAssignment:
    """Optimised mux configuration of one ALU.

    ``swapped`` records which commutative operations feed their textual
    left operand into port 2 (needed by RTL generation and simulation).
    """

    l1: Tuple[str, ...]
    l2: Tuple[str, ...]
    swapped: Dict[str, bool]

    @property
    def total_inputs(self) -> int:
        """``|L1| + |L2|`` — the optimised size."""
        return len(self.l1) + len(self.l2)

    def port_of(self, op: str, textual_left: bool) -> int:
        """Physical port (1 or 2) an operand reaches after swapping."""
        flipped = self.swapped.get(op, False)
        if textual_left:
            return 2 if flipped else 1
        return 1 if flipped else 2


def _build_lists(
    fixed_l1: Set[str],
    fixed_l2: Set[str],
    commutatives: Sequence[MuxOperand],
    swapped: Dict[str, bool],
) -> Tuple[Set[str], Set[str]]:
    """L1/L2 contents for the given orientations."""
    l1, l2 = set(fixed_l1), set(fixed_l2)
    for item in commutatives:
        if swapped[item.op]:
            l1.add(item.right)
            l2.add(item.left)
        else:
            l1.add(item.left)
            l2.add(item.right)
    return l1, l2


def optimize_mux_inputs(operands: Sequence[MuxOperand]) -> MuxAssignment:
    """Build minimal L1/L2 lists for one ALU's operations.

    Deterministic: operations are processed in the order given, and ties
    prefer the unswapped orientation.
    """
    fixed_l1: Set[str] = set()
    fixed_l2: Set[str] = set()
    swapped: Dict[str, bool] = {}
    commutatives: List[MuxOperand] = []

    for item in operands:
        if item.commutative and item.right is not None:
            commutatives.append(item)
        else:
            fixed_l1.add(item.left)
            if item.right is not None:
                fixed_l2.add(item.right)
            swapped[item.op] = False

    # Constructive pass (§5.6): try both orientations greedily.
    l1, l2 = set(fixed_l1), set(fixed_l2)
    for item in commutatives:
        straight = (item.left not in l1) + (item.right not in l2)
        flipped = (item.right not in l1) + (item.left not in l2)
        swapped[item.op] = flipped < straight
        if swapped[item.op]:
            l1.add(item.right)
            l2.add(item.left)
        else:
            l1.add(item.left)
            l2.add(item.right)

    # Fixpoint improvement: re-orient while the total size shrinks.  Flip
    # trials keep reference counts of each side's signals instead of
    # rebuilding both sets from scratch — O(1) per trial, same decisions
    # (a signal is "in the list" iff its count is positive), hence the
    # same assignment.  Duplicate op ids share one ``swapped`` flag, which
    # the counting trial cannot express — such (malformed but accepted)
    # inputs keep the rebuild loop.
    unique_ops = len({item.op for item in commutatives}) == len(commutatives)
    if unique_ops:
        counts1: Dict[str, int] = {}
        counts2: Dict[str, int] = {}
        for signal in fixed_l1:
            counts1[signal] = counts1.get(signal, 0) + 1
        for signal in fixed_l2:
            counts2[signal] = counts2.get(signal, 0) + 1
        for item in commutatives:
            into1, into2 = (
                (item.right, item.left)
                if swapped[item.op]
                else (item.left, item.right)
            )
            counts1[into1] = counts1.get(into1, 0) + 1
            counts2[into2] = counts2.get(into2, 0) + 1

        get1, get2 = counts1.get, counts2.get
        for _sweep in range(len(commutatives) + 1):
            changed = False
            for item in commutatives:
                current = swapped[item.op]
                if current:
                    into1, into2 = item.right, item.left
                else:
                    into1, into2 = item.left, item.right
                # Flip trial as a size delta: drop into1/into2 from their
                # sides, add them to the opposite ones.
                delta = 0
                count = counts1[into1] - 1
                counts1[into1] = count
                if count == 0:
                    delta -= 1
                count = get1(into2, 0) + 1
                counts1[into2] = count
                if count == 1:
                    delta += 1
                count = counts2[into2] - 1
                counts2[into2] = count
                if count == 0:
                    delta -= 1
                count = get2(into1, 0) + 1
                counts2[into1] = count
                if count == 1:
                    delta += 1
                if delta < 0:
                    swapped[item.op] = not current
                    changed = True
                else:
                    counts1[into2] -= 1
                    counts1[into1] += 1
                    counts2[into1] -= 1
                    counts2[into2] += 1
            if not changed:
                break
    else:  # pragma: no cover - duplicate op ids
        for _sweep in range(len(commutatives) + 1):
            changed = False
            for item in commutatives:
                current = swapped[item.op]
                sizes = {}
                for orientation in (False, True):
                    swapped[item.op] = orientation
                    trial_l1, trial_l2 = _build_lists(
                        fixed_l1, fixed_l2, commutatives, swapped
                    )
                    sizes[orientation] = len(trial_l1) + len(trial_l2)
                best = (
                    current
                    if sizes[current] <= sizes[not current]
                    else not current
                )
                swapped[item.op] = best
                changed = changed or best != current
            if not changed:
                break

    l1, l2 = _build_lists(fixed_l1, fixed_l2, commutatives, swapped)
    return MuxAssignment(l1=tuple(sorted(l1)), l2=tuple(sorted(l2)), swapped=swapped)


# ---------------------------------------------------------------------------
# Process-wide memo over renaming-canonical operand lists.
#
# :func:`optimize_mux_inputs` is a pure function that touches signal names
# only through equality (set membership), so a bijective renaming of the
# signals yields an isomorphic run: identical orientations per operand and
# identical list *contents* up to the renaming.  Canonicalising names to
# first-occurrence indices therefore lets every isomorphic operand list —
# across ALU instances, schedulers and runs in this process — share one
# optimiser invocation.  The memo stores the canonical assignment (index
# sets plus the per-operand swap pattern) and reconstructs the real-name
# :class:`MuxAssignment` on a hit; results are byte-identical to a direct
# call.  Op ids must be distinct for the swap pattern to be positional —
# callers with duplicate ids fall through to the direct path.
# ---------------------------------------------------------------------------

_CANON_CACHE: Dict[tuple, Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]] = {}
_CANON_CACHE_MAX = 1 << 16


def clear_mux_memo() -> None:
    """Drop the process-wide optimiser memo (tests / memory pressure)."""
    _CANON_CACHE.clear()


def _canonical_form(
    operands: Sequence[MuxOperand],
) -> Tuple[Optional[tuple], List[str]]:
    """Canonical key plus the index → signal-name decoder, or ``(None, [])``."""
    ids: Dict[str, int] = {}
    names: List[str] = []
    seen_ops: Set[str] = set()
    key = []
    for item in operands:
        if item.op in seen_ops:
            return None, []
        seen_ops.add(item.op)
        left = ids.get(item.left)
        if left is None:
            left = ids[item.left] = len(names)
            names.append(item.left)
        if item.right is None:
            right = None
        else:
            right = ids.get(item.right)
            if right is None:
                right = ids[item.right] = len(names)
                names.append(item.right)
        key.append((left, right, item.commutative))
    return tuple(key), names


def _optimize_canonical(
    key: tuple,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]:
    """:func:`optimize_mux_inputs` run directly on a canonical key.

    The key's ``(left, right, commutative)`` triples are a bijective
    renaming of the real operand signals, and the optimiser touches
    signals only through equality — so running it on the integer ids
    reproduces the exact orientations and list *contents* (as ids) of
    the real-name run, without ever materialising operand objects.
    Returns the memo-entry triple ``(sorted L1 ids, sorted L2 ids,
    per-operand swap pattern)``.  Keys come from :func:`_canonical_form`
    (or an incremental equivalent), which already rejects duplicate op
    ids, so the swap pattern is positional.
    """
    fixed1: List[int] = []
    fixed2: List[int] = []
    pairs: List[Tuple[int, int]] = []
    commutative_at: List[int] = []
    n = 0
    for position, (left, right, commutative) in enumerate(key):
        if left >= n:
            n = left + 1
        if right is not None and right >= n:
            n = right + 1
        if commutative and right is not None:
            commutative_at.append(position)
            pairs.append((left, right))
        else:
            fixed1.append(left)
            if right is not None:
                fixed2.append(right)

    # Constructive pass on membership bitmaps.
    in1 = bytearray(n)
    in2 = bytearray(n)
    for i in fixed1:
        in1[i] = 1
    for i in fixed2:
        in2[i] = 1
    flips: List[bool] = []
    for left, right in pairs:
        straight = (not in1[left]) + (not in2[right])
        flipped = (not in1[right]) + (not in2[left])
        flip = flipped < straight
        flips.append(flip)
        if flip:
            in1[right] = 1
            in2[left] = 1
        else:
            in1[left] = 1
            in2[right] = 1

    # Fixpoint sweeps on flat reference-count arrays (same trials and
    # tie-breaks as the dict-based loop in :func:`optimize_mux_inputs`).
    counts1 = [0] * n
    counts2 = [0] * n
    for i in set(fixed1):
        counts1[i] += 1
    for i in set(fixed2):
        counts2[i] += 1
    for (left, right), flip in zip(pairs, flips):
        if flip:
            counts1[right] += 1
            counts2[left] += 1
        else:
            counts1[left] += 1
            counts2[right] += 1
    for _sweep in range(len(pairs) + 1):
        changed = False
        for index, (left, right) in enumerate(pairs):
            if flips[index]:
                into1, into2 = right, left
            else:
                into1, into2 = left, right
            delta = 0
            count = counts1[into1] - 1
            counts1[into1] = count
            if count == 0:
                delta -= 1
            count = counts1[into2] + 1
            counts1[into2] = count
            if count == 1:
                delta += 1
            count = counts2[into2] - 1
            counts2[into2] = count
            if count == 0:
                delta -= 1
            count = counts2[into1] + 1
            counts2[into1] = count
            if count == 1:
                delta += 1
            if delta < 0:
                flips[index] = not flips[index]
                changed = True
            else:
                counts1[into2] -= 1
                counts1[into1] += 1
                counts2[into1] -= 1
                counts2[into2] += 1
        if not changed:
            break

    l1 = set(fixed1)
    l2 = set(fixed2)
    for (left, right), flip in zip(pairs, flips):
        if flip:
            l1.add(right)
            l2.add(left)
        else:
            l1.add(left)
            l2.add(right)
    pattern = [False] * len(key)
    for position, flip in zip(commutative_at, flips):
        pattern[position] = flip
    return tuple(sorted(l1)), tuple(sorted(l2)), tuple(pattern)


def cached_mux_sizes_for_key(key, perf=None):
    """Memo probe with a caller-built canonical key.

    For callers that maintain the canonical form *incrementally* (the
    MFSA allocation state extends one committed prefix per ALU instance
    by the candidate operand in O(1)) instead of re-deriving it with
    :func:`_canonical_form` on every probe.  The key MUST equal
    ``_canonical_form(operands)[0]`` — first-occurrence indices in
    operand order — so entries interoperate with the other cached
    entry points.  Misses run the optimiser on the key's integer
    triples directly; real operand names are never needed.
    """
    hit = _CANON_CACHE.get(key)
    if hit is not None:
        if perf is not None:
            perf.incr("mux.canon_hits")
        return len(hit[0]), len(hit[1])
    if perf is not None:
        perf.incr("mux.canon_misses")
    entry = _optimize_canonical(key)
    if len(_CANON_CACHE) < _CANON_CACHE_MAX:
        _CANON_CACHE[key] = entry
    return len(entry[0]), len(entry[1])


def cached_optimize_mux_inputs(
    operands: Sequence[MuxOperand], perf=None
) -> MuxAssignment:
    """Memoized :func:`optimize_mux_inputs` (identical results).

    ``perf`` (an optional :class:`repro.perf.PerfCounters`) receives
    ``mux.canon_hits`` / ``mux.canon_misses``.
    """
    key, names = _canonical_form(operands)
    if key is None:
        return optimize_mux_inputs(operands)
    hit = _CANON_CACHE.get(key)
    if hit is not None:
        if perf is not None:
            perf.incr("mux.canon_hits")
        canon_l1, canon_l2, pattern = hit
        return MuxAssignment(
            l1=tuple(sorted(names[i] for i in canon_l1)),
            l2=tuple(sorted(names[i] for i in canon_l2)),
            swapped={
                item.op: flag for item, flag in zip(operands, pattern)
            },
        )
    if perf is not None:
        perf.incr("mux.canon_misses")
    assignment = optimize_mux_inputs(operands)
    if len(_CANON_CACHE) < _CANON_CACHE_MAX:
        ids = {name: i for i, name in enumerate(names)}
        _CANON_CACHE[key] = (
            tuple(sorted(ids[s] for s in assignment.l1)),
            tuple(sorted(ids[s] for s in assignment.l2)),
            tuple(assignment.swapped.get(item.op, False) for item in operands),
        )
    return assignment
