"""Register allocation via the left-edge / activity-selection rule (§5.8).

The paper uses "an expanded version of the activity selection algorithm …
the signal with the smallest death time is selected and if it is compatible
(no time conflict) with other signals in the register it will be assigned
to that register".  That greedy is exactly the classic left-edge algorithm
(paper ref. [19], REAL) and yields the minimum register count, equal to the
maximum number of simultaneously live values.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.allocation.lifetimes import Lifetime


@dataclass
class RegisterAllocation:
    """Result of register allocation.

    ``assignment`` maps each registered value to a register index
    ``0 … count-1``; values that never need storage are absent.
    """

    count: int
    assignment: Dict[str, int] = field(default_factory=dict)
    tracks: List[List[Lifetime]] = field(default_factory=list)

    def register_of(self, value: str) -> int:
        """Register index holding ``value`` (KeyError if unregistered)."""
        return self.assignment[value]

    def values_in(self, register: int) -> Tuple[str, ...]:
        """Values time-multiplexed onto one register."""
        return tuple(life.value for life in self.tracks[register])


def left_edge_allocate(lifetimes: Iterable[Lifetime]) -> RegisterAllocation:
    """Left-edge register allocation.

    Lifetimes are sorted by their left edge (birth) and first-fit packed;
    for interval conflicts this greedy is optimal, i.e. it always meets
    the peak-liveness lower bound.  (The paper's per-register activity
    selection picks signals by smallest death time; both greedies realise
    the same optimal count on intervals.)  Lifetimes that never need a
    register (death == birth) are skipped; ties break by death then name
    so the result is deterministic.
    """
    pending = sorted(
        (life for life in lifetimes if life.needs_register),
        key=lambda life: (life.birth, life.death, life.value),
    )
    tracks: List[List[Lifetime]] = []
    assignment: Dict[str, int] = {}
    # Births arrive in ascending order, so a track's members are disjoint
    # and birth-sorted and only its last member (the one with the maximum
    # death) can still conflict with a new lifetime: first-fit is one
    # integer comparison per track instead of a full member scan.
    last_death: List[int] = []
    for life in pending:
        for index, death in enumerate(last_death):
            if death <= life.birth:
                tracks[index].append(life)
                last_death[index] = life.death
                assignment[life.value] = index
                break
        else:
            tracks.append([life])
            last_death.append(life.death)
            assignment[life.value] = len(tracks) - 1
    return RegisterAllocation(
        count=len(tracks), assignment=assignment, tracks=tracks
    )


def max_simultaneously_live(lifetimes: Iterable[Lifetime]) -> int:
    """Lower bound on register count: peak number of overlapping lifetimes.

    The left-edge allocation always meets this bound (used as a test
    invariant).
    """
    events: List[Tuple[int, int]] = []
    for life in lifetimes:
        if life.needs_register:
            events.append((life.birth, 1))
            events.append((life.death, -1))
    events.sort()
    live = peak = 0
    for _time, delta in events:
        live += delta
        peak = max(peak, live)
    return peak


class IncrementalRegisterEstimator:
    """Greedy incremental register-need estimate used by f_REG (§4.1).

    During MFSA, every placement decision asks "how many *new* registers
    would this choice add, given the signals stored so far?".  The
    estimator keeps the same greedy tracks as the final left-edge pass,
    each as a sorted interval index, and answers in
    O(tracks · log signals-per-track) per lifetime.
    """

    def __init__(self) -> None:
        self._known: Dict[str, Lifetime] = {}
        # Per-track interval index: (births, deaths), both sorted by birth
        # (disjointness makes that order also death order).  Backs the
        # O(log) availability probes of cost_of and commit.
        self._index: List[Tuple[List[int], List[int]]] = []

    @property
    def count(self) -> int:
        """Registers allocated so far."""
        return len(self._index)

    def cost_of(self, lifetimes: Iterable[Lifetime]) -> int:
        """New registers the given lifetimes would require (no commit).

        A committed track admits a lifetime iff the first member dying
        after its birth is born at or after its death: members of one
        track are pairwise disjoint, so that member carries the smallest
        birth that could conflict.  Tentative placements of the same
        batch are tracked per-track and scanned for overlaps instead of
        deep-copying every track up front; the first-fit order (existing
        tracks, then tentative new ones) matches the copying formulation
        exactly.
        """
        added = 0
        extras: Dict[int, List[Lifetime]] = {}
        new_tracks: List[List[Lifetime]] = []
        for life in lifetimes:
            if not life.needs_register or life.value in self._known:
                continue
            birth, death = life.birth, life.death
            overlaps = life.overlaps
            for index, (births, deaths) in enumerate(self._index):
                pos = bisect_right(deaths, birth)
                if pos < len(births) and births[pos] < death:
                    continue
                tentative = extras.get(index)
                if tentative is not None and any(
                    overlaps(other) for other in tentative
                ):
                    continue
                if tentative is None:
                    extras[index] = [life]
                else:
                    tentative.append(life)
                break
            else:
                for track in new_tracks:
                    if not any(overlaps(other) for other in track):
                        track.append(life)
                        break
                else:
                    new_tracks.append([life])
                    added += 1
        return added

    def commit(self, lifetimes: Iterable[Lifetime]) -> None:
        """Permanently record the lifetimes.

        First-fit through the sorted interval index, by the same test as
        :meth:`cost_of`.
        """
        for life in lifetimes:
            if not life.needs_register or life.value in self._known:
                continue
            self._known[life.value] = life
            birth, death = life.birth, life.death
            for births, deaths in self._index:
                pos = bisect_right(deaths, birth)
                if pos == len(births) or death <= births[pos]:
                    births.insert(pos, birth)
                    deaths.insert(pos, death)
                    break
            else:
                self._index.append(([birth], [death]))
