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
form*).  It also reports whether its sweeps stopped on their cap, which
is what MFSA's allocation state needs to price an operation that brings
only new signals to an ALU without running it (see
:func:`_optimize_canonical`).
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
    key: Sequence[tuple],
) -> Tuple[Set[int], Set[int], Tuple[bool, ...], bool]:
    """The §5.6 optimiser on a canonical key.

    Non-commutative and unary operands fix their sides.  A constructive
    pass orients each commutative operand in order, flipping it only
    when that adds fewer new signals (ties stay unswapped); fixpoint
    sweeps then flip any commutative operand whose flip shrinks
    ``|L1| + |L2|``, until a sweep changes nothing or the cap of one
    sweep more than there are commutative operands is reached.  Returns
    ``(L1 ids, L2 ids, per-operand swap pattern, capped)``, where
    ``capped`` says the sweeps stopped on the cap.  Keys come from
    :func:`_canonical_form` (or an incremental equivalent), whose op ids
    are distinct, so the pattern is positional.

    Appending an operand whose signals occur in no earlier operand adds
    one input per port it feeds and changes nothing else, unless it is
    commutative and the key was capped.  Its ids enter no earlier
    trial, so the constructive pass repeats the key's choices and keeps
    the new operand unswapped (both sides add two inputs); its flip
    trial scores 0, so every sweep flips what the key's flipped and
    stops where it stopped.  Only the cap moves: a commutative operand
    raises it by one.
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
    capped = True
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
            capped = False
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
    return l1, l2, tuple(pattern), capped


def optimize_mux_inputs(operands: Sequence[MuxOperand]) -> MuxAssignment:
    """Build minimal L1/L2 lists for one ALU's operations.

    Deterministic: operations are processed in the order given, and ties
    prefer the unswapped orientation.  Op ids must be distinct.
    """
    key, names = _canonical_form(operands)
    l1, l2, pattern, _capped = _optimize_canonical(key)
    return MuxAssignment(
        l1=tuple(sorted(names[i] for i in l1)),
        l2=tuple(sorted(names[i] for i in l2)),
        swapped={item.op: flag for item, flag in zip(operands, pattern)},
    )
