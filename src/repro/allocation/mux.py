"""Multiplexer input-list optimisation (§5.6).

Each ALU has two input multiplexers, ``MUX¹`` and ``MUX²``, feeding its
left and right operand ports.  Given the operations bound to one ALU, the
task is to build two signal lists ``L1``/``L2`` with ``|L1| + |L2|``
minimum: non-commutative operations fix their operand sides; each
commutative operation may be flipped.

The paper uses a constructive pass (non-commutative first, then the two
orientations of each commutative operation); we add a cheap fixpoint
improvement sweep on top, which never hurts and frequently saves an input.
Interconnect sharing (§5.7) falls out of the signal keying: operands
carrying the same signal occupy a single mux input / wire.

The optimiser touches signals only through equality, so it runs on the
operand list renamed to first-occurrence integer ids (the *canonical
form*); every isomorphic operand list — across ALU instances,
schedulers and runs — is one optimisation problem, which a process-wide
memo answers once.
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


def _canonical_form(operands: Sequence[MuxOperand]) -> Tuple[tuple, List[str]]:
    """Canonical key plus the index → signal-name decoder.

    The key holds one ``(left, right, commutative)`` triple per operand,
    with each signal replaced by the index of its first occurrence.  Op
    ids are positional in the key, so a repeated one raises
    :class:`ValueError` (a DFG's node names are unique, so no scheduler
    or datapath list repeats one).
    """
    ids: Dict[str, int] = {}
    names: List[str] = []
    seen_ops: Set[str] = set()
    key = []
    for item in operands:
        if item.op in seen_ops:
            raise ValueError(
                f"operation {item.op!r} appears twice in one mux list"
            )
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
    """The §5.6 optimiser on a canonical key.

    Non-commutative and unary operands fix their sides.  A constructive
    pass orients each commutative operand in order, flipping it only
    when that adds fewer new signals (ties stay unswapped); fixpoint
    sweeps then flip any commutative operand whose flip shrinks
    ``|L1| + |L2|``, until a sweep changes nothing (at most one sweep
    more than there are commutative operands).  Returns the memo
    entry ``(sorted L1 ids, sorted L2 ids, per-operand swap pattern)``.
    Keys come from :func:`_canonical_form` (or an incremental
    equivalent), whose op ids are distinct, so the pattern is positional.
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

    # Fixpoint sweeps.  Flip trials keep reference counts of each side's
    # signals instead of rebuilding both lists: a signal is in a list iff
    # its count is positive, so each trial is an O(1) size delta.
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
            # Flip trial: drop into1/into2 from their sides, add them to
            # the opposite ones.
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


def _decode(
    operands: Sequence[MuxOperand], names: List[str], entry: tuple
) -> MuxAssignment:
    """The real-name :class:`MuxAssignment` of a canonical memo entry."""
    canon_l1, canon_l2, pattern = entry
    return MuxAssignment(
        l1=tuple(sorted(names[i] for i in canon_l1)),
        l2=tuple(sorted(names[i] for i in canon_l2)),
        swapped={item.op: flag for item, flag in zip(operands, pattern)},
    )


def optimize_mux_inputs(operands: Sequence[MuxOperand]) -> MuxAssignment:
    """Build minimal L1/L2 lists for one ALU's operations (no memo).

    Deterministic: operations are processed in the order given, and ties
    prefer the unswapped orientation.  Op ids must be distinct.
    """
    key, names = _canonical_form(operands)
    return _decode(operands, names, _optimize_canonical(key))


# ---------------------------------------------------------------------------
# Process-wide memo over canonical keys.  A key is the optimiser's whole
# input, so an entry is exact for every operand list with that key.
# ---------------------------------------------------------------------------

_CANON_CACHE: Dict[tuple, Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]] = {}
_CANON_CACHE_MAX = 1 << 16


def clear_mux_memo() -> None:
    """Drop the process-wide optimiser memo (tests / memory pressure)."""
    _CANON_CACHE.clear()


def _memo_entry(key: tuple, perf=None) -> tuple:
    """:func:`_optimize_canonical` through the memo, counting
    ``mux.canon_hits`` / ``mux.canon_misses`` into ``perf``."""
    entry = _CANON_CACHE.get(key)
    if entry is not None:
        if perf is not None:
            perf.incr("mux.canon_hits")
        return entry
    if perf is not None:
        perf.incr("mux.canon_misses")
    entry = _optimize_canonical(key)
    if len(_CANON_CACHE) < _CANON_CACHE_MAX:
        _CANON_CACHE[key] = entry
    return entry


def cached_mux_sizes_for_key(key, perf=None):
    """``(|L1|, |L2|)`` for a caller-built canonical key, memoized.

    For callers that maintain the canonical form *incrementally* (the
    MFSA allocation state extends one committed prefix per ALU instance
    by the candidate operand in O(1)) instead of re-deriving it with
    :func:`_canonical_form` on every probe.  The key MUST equal
    ``_canonical_form(operands)[0]`` — first-occurrence indices in
    operand order — so entries interoperate with
    :func:`cached_optimize_mux_inputs`.
    """
    l1, l2, _pattern = _memo_entry(key, perf)
    return len(l1), len(l2)


def cached_optimize_mux_inputs(
    operands: Sequence[MuxOperand], perf=None
) -> MuxAssignment:
    """Memoized :func:`optimize_mux_inputs` (identical results).

    ``perf`` (an optional :class:`repro.perf.PerfCounters`) receives
    ``mux.canon_hits`` / ``mux.canon_misses``.
    """
    key, names = _canonical_form(operands)
    return _decode(operands, names, _memo_entry(key, perf))
