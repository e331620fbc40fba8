"""Operation priority ordering (§3.2 Step 2, §5.3).

The paper's rule set:

1. operations are visited following the ALAP table "starting from the
   first control step" — primary key: ALAP start step;
2. within a step, lower mobility means higher priority;
3. **multi-cycle inversion** (§5.3): between two multi-cycle operations
   whose mobilities differ by less than their latency, the rule reverses —
   the *more* mobile one goes first (it "has always a better chance to use
   the empty positions");
4. tie-break (§5.3): the operation with earlier placed predecessors (in
   control steps) gets higher priority;
5. remaining ties break deterministically by DFG insertion order (the
   paper breaks them "arbitrarily").
"""

from __future__ import annotations

import heapq
from functools import cmp_to_key
from typing import List, Mapping

from repro.dfg.analysis import TimingModel
from repro.dfg.graph import DFG


def _latest_predecessor_end(
    dfg: DFG, timing: TimingModel, asap: Mapping[str, int], name: str
) -> int:
    """Earliest possible finishing step of the node's latest predecessor.

    Used for the §5.3 tie-break ("the operation with earlier predecessors
    … will get higher priority"); ASAP times stand in for placements since
    priorities are fixed before placement starts.
    """
    best = 0
    for pred in dfg.predecessors(name):
        latency = timing.latency(dfg.node(pred).kind)
        best = max(best, asap[pred] + latency - 1)
    return best


def priority_order(
    dfg: DFG,
    timing: TimingModel,
    asap: Mapping[str, int],
    alap: Mapping[str, int],
) -> List[str]:
    """Scheduling order of all operations under the paper's priority rules.

    The returned order is topological: ``ALAP[pred] + latency(pred) <=
    ALAP[succ]`` guarantees predecessors appear first, which is why the
    paper's forbidden frame only needs to look at predecessors.
    """
    mobility = {name: alap[name] - asap[name] for name in asap}
    insertion = {name: i for i, name in enumerate(dfg.node_names())}
    pred_end = {
        name: _latest_predecessor_end(dfg, timing, asap, name) for name in asap
    }
    latency = {name: timing.latency(dfg.node(name).kind) for name in asap}

    def compare(p: str, q: str) -> int:
        if alap[p] != alap[q]:
            return -1 if alap[p] < alap[q] else 1
        lat_p, lat_q = latency[p], latency[q]
        mob_p, mob_q = mobility[p], mobility[q]
        if lat_p > 1 and lat_q > 1 and mob_p != mob_q:
            # §5.3 inversion: for close mobilities, the more mobile
            # multi-cycle operation goes first.
            if abs(mob_p - mob_q) < max(lat_p, lat_q):
                return -1 if mob_p > mob_q else 1
        if mob_p != mob_q:
            return -1 if mob_p < mob_q else 1
        if pred_end[p] != pred_end[q]:
            return -1 if pred_end[p] < pred_end[q] else 1
        return -1 if insertion[p] < insertion[q] else 1

    ranked = sorted(dfg.node_names(), key=cmp_to_key(compare))
    rank = {name: i for i, name in enumerate(ranked)}

    # With chaining a dependent pair may share an ALAP step, so the raw
    # priority order is not guaranteed topological.  A Kahn pass that always
    # releases the best-ranked ready node restores the guarantee while
    # deviating from the paper's order only when a dependence forces it.
    # Ranks are unique, so a heap of (rank, name) pops that node.
    in_degree = {name: len(dfg.predecessors(name)) for name in dfg.node_names()}
    ready = [(rank[name], name) for name, deg in in_degree.items() if deg == 0]
    heapq.heapify(ready)
    order: List[str] = []
    while ready:
        _rank, name = heapq.heappop(ready)
        order.append(name)
        for succ in dfg.successors(name):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                heapq.heappush(ready, (rank[succ], succ))
    return order
