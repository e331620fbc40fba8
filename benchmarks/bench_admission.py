"""Admission harness: the cost of a repeated request, layer by layer; emits BENCH_core.json.

A repeat is answered from a result cache, so what it costs is
admission: ``normalize_spec`` then ``cache_key``, the path both serve
roles take for every request.  Per design this times that whole path
and, separately, each layer of it, by calling what admission calls in
the same order:

* **decode** — ``parse_design``: ``dfg_from_obj`` on the parsed body,
  its structural checks included;
* **validate** — ``validate_request``: kinds and arity against the
  operation set, the cell library for ``mfsa``, and the parameters
  (the ``cs`` bound, the clock against single-cycle delays);
* **text** — the canonical ``dfg_to_json(dfg, indent=None)``;
* **fingerprint** — ``dfg_fingerprint``, the design's content address;
* **key** — ``cache_key`` on the admitted spec.

The layers must add up to the whole within 5 %, or the run fails.
Each figure is a per-design median over ``--rounds`` passes (each
after one untimed admission, so both sides start warm), averaged over a
tier:

* ``paper`` — the six paper examples, as MFS and as MFSA requests at
  their Table 2 parameters;
* ``small`` — seeded 12–47-op ``random_dfg`` and
  ``random_conditional_dfg`` designs;
* ``large`` — seeded 100–400-op ``random_dfg`` and ``layered_workload``
  designs.

Results land in the ``history`` list of ``BENCH_core.json`` as an
``admission`` entry with ``cpus``.  ``--smoke`` makes one pass, writes
nothing, and checks every admitted key against one recomputed through
``canonical_encoding`` with each node hash and the design text taken
from the JSON encoder instead of the direct renderers.

Usage::

    PYTHONPATH=src python benchmarks/bench_admission.py
    PYTHONPATH=src python benchmarks/bench_admission.py --smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

from bench_record import append_entry

from repro.bench.suites import EXAMPLES
from repro.dfg.fingerprint import (
    _CANONICAL_JSON,
    _encode_port,
    canonical_encoding,
    dfg_fingerprint,
    sha256_of,
)
from repro.dfg.generators import layered_workload, random_conditional_dfg, random_dfg
from repro.io import jsonio
from repro.serve import jobs
from repro.serve.jobs import (
    cache_key,
    normalize_spec,
    parse_design,
    validate_request,
)
from repro.sweep import default_workers

LAYERS = ("decode", "validate", "text", "fingerprint", "key")

#: How far the summed layers may sit from the whole path.
COVERAGE_TOLERANCE = 0.05


def _body(dfg, **params):
    return {"dfg": json.loads(jsonio.dfg_to_json(dfg)), **params}


def paper_requests():
    requests = []
    for example in EXAMPLES.values():
        params = {"cs": example.mfsa_cs, "mul_latency": example.mfsa_mul_latency}
        if example.mfsa_clock_ns is not None:
            params["clock_ns"] = example.mfsa_clock_ns
        body = _body(example.build(), **params)
        requests += [("mfs", body), ("mfsa", dict(body, style=1))]
    return requests


def small_requests(seed, count):
    rng = random.Random(f"small-{seed}")
    requests = []
    for index in range(count):
        n_ops = rng.randint(12, 47)
        if index % 2:
            dfg = random_conditional_dfg(seed=seed * 1000 + index, n_ops=n_ops)
        else:
            dfg = random_dfg(seed=seed * 1000 + index, n_ops=n_ops,
                             n_inputs=rng.randint(3, 8))
        requests.append((("mfs", "mfsa")[index % 2], _body(dfg)))
    return requests


def large_requests(seed, count):
    rng = random.Random(f"large-{seed}")
    requests = []
    for index in range(count):
        if index % 2:
            width = rng.randint(10, 20)
            dfg = layered_workload(seed=seed * 1000 + index,
                                   layers=rng.randint(100, 400) // width,
                                   width=width)
        else:
            dfg = random_dfg(seed=seed * 1000 + index,
                             n_ops=rng.randint(100, 400),
                             n_inputs=rng.randint(8, 16), locality=12)
        requests.append((("mfs", "mfsa")[index % 2], _body(dfg)))
    return requests


def time_request(algorithm, body):
    """Seconds of the whole admission and of each layer, for one request."""
    cache_key(normalize_spec(algorithm, body))
    t0 = time.perf_counter()
    spec = normalize_spec(algorithm, body)
    key = cache_key(spec)
    t1 = time.perf_counter()
    dfg = parse_design(body)
    t2 = time.perf_counter()
    validate_request(algorithm, body, dfg)
    t3 = time.perf_counter()
    text = jsonio.dfg_to_json(dfg, indent=None)
    t4 = time.perf_counter()
    dfg_fingerprint(dfg)
    t5 = time.perf_counter()
    assert cache_key(spec) == key
    t6 = time.perf_counter()
    # Admission frees its design on return; that is decode's work too.
    del dfg
    t7 = time.perf_counter()
    assert text == spec["dfg_json"]
    return {"admission": t1 - t0, "decode": (t2 - t1) + (t7 - t6),
            "validate": t3 - t2, "text": t4 - t3, "fingerprint": t5 - t4,
            "key": t6 - t5}


def measure_tier(requests, rounds):
    """Per-tier mean of each request's median milliseconds."""
    samples = [[] for _ in requests]
    for _ in range(rounds):
        for index, (algorithm, body) in enumerate(requests):
            samples[index].append(time_request(algorithm, body))
    medians = [
        {part: statistics.median(s[part] for s in runs) * 1e3
         for part in ("admission",) + LAYERS}
        for runs in samples
    ]
    tier = {
        "requests": len(requests),
        "ops_mean": round(statistics.mean(len(body["dfg"]["nodes"])
                                          for _alg, body in requests), 1),
    }
    for part in ("admission",) + LAYERS:
        tier[f"{part}_ms"] = round(statistics.mean(m[part] for m in medians), 4)
    layers = sum(tier[f"{part}_ms"] for part in LAYERS)
    tier["layers_share"] = round(layers / tier["admission_ms"], 3)
    return tier


def reference_fingerprint(dfg):
    """``dfg_fingerprint`` with every node hash over the encoder's text."""
    hashes = {}
    for name in dfg.topological_order():
        node = dfg.node(name)
        text = _CANONICAL_JSON.encode([
            "op",
            node.kind,
            [_encode_port(port, hashes) for port in node.operands],
            [[condition, bool(arm)] for condition, arm in node.branch],
        ])
        hashes[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    encoding = canonical_encoding(dfg)
    assert encoding["nodes"] == sorted(hashes.values()), dfg.name
    return sha256_of(encoding)


def check_keys(requests):
    """Every admitted key equals one keyed on the reference text and
    fingerprint; returns how many were checked."""
    for algorithm, body in requests:
        spec = normalize_spec(algorithm, body)
        key = cache_key(spec)
        dfg = parse_design(body)
        text = json.dumps(jsonio._dfg_payload(dfg))
        assert spec["dfg_json"] == text, dfg.name
        jobs._admitted.clear()
        jobs._remember_admission(text, (dfg.name, reference_fingerprint(dfg)))
        assert cache_key(spec) == key, dfg.name
    jobs._admitted.clear()
    return len(requests)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one pass, keys checked against the reference "
                             "encoder, nothing written")
    parser.add_argument("--rounds", type=int, default=15,
                        help="passes over every request (median per request)")
    parser.add_argument("--small", type=int, default=24,
                        help="seeded 12-47-op designs")
    parser.add_argument("--large", type=int, default=12,
                        help="seeded 100-400-op designs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--label", default="admission")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"))
    args = parser.parse_args(argv)

    tiers = {
        "paper": paper_requests(),
        "small": small_requests(args.seed, args.small),
        "large": large_requests(args.seed, args.large),
    }
    rounds = 1 if args.smoke else args.rounds
    results = {}
    for name, requests in tiers.items():
        results[name] = measure_tier(requests, rounds)
        row = results[name]
        print(f"{name:>5}: {row['requests']} requests, ~{row['ops_mean']:g} ops, "
              f"admission {row['admission_ms']:.3f} ms = "
              + " + ".join(f"{part} {row[f'{part}_ms']:.3f}" for part in LAYERS)
              + f" (layers {row['layers_share']:.1%})")
    if args.smoke:
        checked = sum(check_keys(requests) for requests in tiers.values())
        print(f"smoke OK ({checked} keys equal the reference encoder's)")
        return 0
    off = [name for name, row in results.items()
           if abs(row["layers_share"] - 1.0) > COVERAGE_TOLERANCE]
    if off:
        print(f"FAIL: layers do not add up to admission in {', '.join(off)}",
              file=sys.stderr)
        return 1
    entry = {
        "label": args.label,
        "cpus": default_workers(),
        "rounds": rounds,
        "seed": args.seed,
        "tiers": results,
    }
    out = append_entry(entry, "admission", Path(args.out))
    print(f"appended to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
