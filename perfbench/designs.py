"""Seeded benchmark inputs, built without the program under test.

Every design is a plain ``repro-dfg`` JSON object (the format of
``repro.io.jsonio``) produced here from ``(stream, seed, index)`` alone,
so a later change to ``repro.scenarios``, ``repro.bench`` or
``repro.dfg.generators`` cannot change what the benchmark measures.  The
paper's six examples come from ``paper_snapshot.json``, a one-time
snapshot of ``repro.bench.suites`` (see ``make_snapshot.py``).

A *job* is one unit of benchmark work: the endpoint algorithm plus the
exact JSON body a ``/v1/schedule`` or ``/v1/synth`` request carries::

    {"algorithm": "mfsa", "label": "...", "body": {"dfg": {...}, "cs": 9,
     "style": 2, "mul_latency": 2, "clock_ns": 20.0}}
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

SNAPSHOT = Path(__file__).with_name("paper_snapshot.json")

#: Kinds the NCR-like datapath library implements (MFSA needs a cell for
#: every kind it meets), with generation weights.
KINDS: Tuple[Tuple[str, int], ...] = (
    ("add", 5),
    ("sub", 3),
    ("mul", 4),
    ("lt", 1),
    ("gt", 1),
    ("eq", 1),
    ("and", 1),
    ("or", 1),
)

#: Combinational delays (ns) of ``repro.dfg.ops.standard_operation_set``,
#: needed to place ``cs`` relative to the chained critical path.
DELAY_NS = {
    "add": 10.0, "sub": 10.0, "mul": 40.0, "eq": 6.0,
    "lt": 8.0, "gt": 8.0, "and": 2.0, "or": 2.0,
}

#: Values that may grow wider than this stop feeding multiplications, so
#: simulating a deep design never multiplies huge integers.
MAX_BITS = 128

#: (algorithm, style) choices; MFS ignores the style.
ALGORITHMS = (("mfs", 1), ("mfsa", 1), ("mfsa", 2))


def _rng(*parts) -> random.Random:
    # String seeding hashes through SHA-512: stable across processes and
    # PYTHONHASHSEED values.
    return random.Random("perfbench:" + ":".join(str(p) for p in parts))


def fingerprint(obj) -> str:
    """sha256 of an object's canonical JSON text."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def critical_path(design: dict, mul_latency: int, clock_ns: Optional[float]) -> int:
    """Fewest control steps any schedule of ``design`` needs.

    The chaining-aware longest path of ``repro.dfg.analysis``, written
    again here.  ``design["nodes"]`` must be in topological order.
    """
    full = float("inf")
    latency = {}
    times: Dict[str, Tuple[int, float]] = {}
    longest = 0
    for node in design["nodes"]:
        kind = node["kind"]
        own = mul_latency if kind == "mul" else 1
        latency[node["name"]] = own
        delay = DELAY_NS[kind]
        start, offset = 1, 0.0
        for port in node["operands"]:
            if "node" not in port:
                continue
            pred_start, pred_offset = times[port["node"]]
            pred_end = pred_start + latency[port["node"]] - 1
            if (
                clock_ns is not None
                and own == 1
                and pred_offset != full
                and pred_offset + delay <= clock_ns
            ):
                candidate = (pred_end, pred_offset)
            else:
                candidate = (pred_end + 1, 0.0)
            if candidate > (start, offset):
                start, offset = candidate
        chains = clock_ns is not None and own == 1
        times[node["name"]] = (start, offset + delay if chains else full)
        longest = max(longest, start + own - 1)
    return longest


def _pick_kind(rng: random.Random) -> str:
    kinds = [kind for kind, _ in KINDS]
    weights = [weight for _, weight in KINDS]
    return rng.choices(kinds, weights=weights, k=1)[0]


def _width_after(kind: str, widths) -> int:
    if kind in ("lt", "gt", "eq"):
        return 1
    if kind == "mul":
        return sum(widths)
    return max(widths) + 1


def _design(
    rng: random.Random,
    name: str,
    n_ops: int,
    n_inputs: int,
    locality: int,
    conditions: int = 0,
    layer_width: int = 0,
) -> dict:
    """One random DFG: ``locality`` bounds how far back operands reach
    (small = deep chains); ``layer_width`` > 0 instead draws operands only
    from the previous layer of that many ops.  With ``conditions``, about
    half the ops sit in a then/else arm (§5.1); an arm's values feed only
    its own arm, as in real if/else hardware."""
    inputs = [f"in{k}" for k in range(n_inputs)]
    # Pool entries: (port object, producing node or None, branch, width).
    pool: List[Tuple[dict, Optional[str], tuple, int]] = [
        ({"input": n}, None, (), 8) for n in inputs
    ]
    previous_layer = list(pool)
    current_layer: List[Tuple[dict, Optional[str], tuple, int]] = []
    nodes: List[dict] = []
    consumed = set()
    for index in range(n_ops):
        branch: tuple = ()
        if conditions and rng.random() < 0.5:
            branch = ((f"c{rng.randrange(conditions)}", rng.random() < 0.5),)
        if layer_width:
            if index and index % layer_width == 0:
                previous_layer, current_layer = current_layer, []
            window = previous_layer
        else:
            window = pool[-locality:]
        candidates = [entry for entry in window if entry[2] in ((), branch)]
        if not candidates:
            candidates = pool[:n_inputs]
        first, second = rng.choice(candidates), rng.choice(candidates)
        kind = _pick_kind(rng)
        if kind == "mul" and first[3] + second[3] > MAX_BITS:
            kind = "add"
        if rng.random() < 0.08:
            second = ({"const": rng.randint(1, 9)}, None, (), 4)
        node_name = f"n{index}"
        for entry in (first, second):
            if entry[1] is not None:
                consumed.add(entry[1])
        nodes.append(
            {
                "name": node_name,
                "kind": kind,
                "operands": [first[0], second[0]],
                "branch": [[cond, arm] for cond, arm in branch],
            }
        )
        entry = (
            {"node": node_name},
            node_name,
            branch,
            _width_after(kind, (first[3], second[3])),
        )
        current_layer.append(entry)
        if branch == () or rng.random() < 0.5:
            pool.append(entry)
    sinks = [node["name"] for node in nodes if node["name"] not in consumed]
    return {
        "format": "repro-dfg",
        "version": 1,
        "name": name,
        "inputs": inputs,
        "nodes": nodes,
        "outputs": {f"out{k}": {"node": sink} for k, sink in enumerate(sinks)},
    }


def _job(algorithm: str, style: int, label: str, design: dict, cs: int,
         mul_latency: int = 1, clock_ns: Optional[float] = None,
         latency_l: Optional[int] = None, pipelined=(), paper_fu=None) -> dict:
    body = {"dfg": design, "cs": cs, "mul_latency": mul_latency}
    if algorithm == "mfsa":
        body["style"] = style
    if clock_ns is not None:
        body["clock_ns"] = clock_ns
    if latency_l is not None:
        body["latency_l"] = latency_l
    if pipelined:
        body["pipelined"] = list(pipelined)
    job = {"algorithm": algorithm, "label": label, "body": body}
    if paper_fu is not None:
        job["paper_fu"] = dict(paper_fu)
    return job


def _spread(index: int, dimension: int) -> float:
    """Point ``index`` of a Kronecker low-discrepancy sequence, in [0, 1).

    Job features come from it rather than from the seeded RNG, so every
    prefix of a job stream, whatever its seed, holds nearly the same mix
    of sizes and features; seeds change only the graphs' structure.
    """
    alpha = (2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0)[dimension] ** 0.5
    return (index * alpha) % 1.0


def paper_size_job(stream: str, seed: int, index: int) -> dict:
    """A distinct 12–47-op design covering §5: conditionals, 2-cycle
    multipliers, a chaining clock and ``cs`` slack 0–4."""
    rng = _rng("paper-size", stream, seed, index)
    algorithm, style = ALGORITHMS[int(3 * _spread(index, 0))]
    n_ops = 12 + int(36 * _spread(index, 1))
    mul_latency = 1 + int(2 * _spread(index, 2))
    conditions = (0, 0, 1, 2)[int(4 * _spread(index, 3))]
    clock_ns = None
    if _spread(index, 4) < 0.3:
        # A 40 ns multiplier only fits one 20 ns step when multi-cycle.
        clock_ns = 20.0 if mul_latency == 2 else 40.0
    slack = int(5 * _spread(index, 5))
    design = _design(
        rng,
        f"p{seed}_{index}",
        n_ops,
        n_inputs=3 + int(6 * _spread(index, 6)),
        locality=4 + int(9 * _spread(index, 7)),
        conditions=conditions,
    )
    cs = critical_path(design, mul_latency, clock_ns) + slack
    return _job(algorithm, style, design["name"], design, cs,
                mul_latency=mul_latency, clock_ns=clock_ns)


def large_job(stream: str, seed: int, index: int) -> dict:
    """A distinct 100–400-op ``random`` or ``layered`` design, ``cs`` at
    the critical path plus 0–3 steps."""
    rng = _rng("large", stream, seed, index)
    algorithm, style = ALGORITHMS[int(3 * _spread(index, 0))]
    n_ops = 100 + int(301 * _spread(index, 1))
    slack = int(4 * _spread(index, 5))
    n_inputs = 8 + int(9 * _spread(index, 6))
    if _spread(index, 2) < 0.5:
        design = _design(rng, f"r{seed}_{index}", n_ops, n_inputs,
                         locality=8 + int(33 * _spread(index, 7)))
    else:
        width = 6 + int(15 * _spread(index, 7))
        design = _design(rng, f"l{seed}_{index}", n_ops - n_ops % width,
                         n_inputs, locality=0, layer_width=width)
    cs = critical_path(design, 1, None) + slack
    return _job(algorithm, style, design["name"], design, cs)


def seeded_jobs(kind: str, stream: str, seed: int) -> Iterator[dict]:
    """The endless stream of distinct seeded jobs of one kind."""
    make = paper_size_job if kind == "paper" else large_job
    index = 0
    while True:
        yield make(stream, seed, index)
        index += 1


def paper_jobs() -> List[dict]:
    """The six paper examples at every Table-1 case (MFS) and every
    Table-2 row (MFSA, styles 1 and 2), from the snapshot."""
    snapshot = json.loads(SNAPSHOT.read_text())
    jobs = []
    for example in snapshot["examples"]:
        design = example["dfg"]
        for case in example["table1_cases"]:
            label = f"{example['key']}/T{case['cs']}"
            if case["latency_l"] is not None:
                label += f"/L{case['latency_l']}"
            if case["pipelined"]:
                label += "/pipelined"
            jobs.append(_job(
                "mfs", 1, label, design, case["cs"],
                mul_latency=case["mul_latency"], clock_ns=case["clock_ns"],
                latency_l=case["latency_l"], pipelined=case["pipelined"],
                paper_fu=case["paper_fu"],
            ))
        table2 = example["table2"]
        for style in (1, 2):
            jobs.append(_job(
                "mfsa", style, f"{example['key']}/style{style}", design,
                table2["cs"], mul_latency=table2["mul_latency"],
                clock_ns=table2["clock_ns"],
            ))
    return jobs


def input_vectors(design: dict, seed: int, count: int) -> List[Dict[str, int]]:
    """Seeded primary-input values for simulating ``design``."""
    rng = _rng("vectors", design["name"], seed)
    return [
        {name: rng.randint(-128, 255) for name in design["inputs"]}
        for _ in range(count)
    ]
