"""Kernel-scaling A/B: a parent tree and this one, alternated in one process.

``bench_kernels.py`` times one tree, best of N.  On a shared VM one such
pass moves by up to 2x within minutes, so two trees' passes cannot tell
a change from that noise.  This harness times the same tiers and walks
for a *parent* source tree (``--parent``: the ``src`` directory of
another checkout, such as the parent commit unpacked with
``git archive``) and for this tree, alternating which goes first in
each repeat.  It reports, per row, the median over the repeats with its
min–max range and quartiles, and in how many repeats this tree was
faster.  Each
repeat imports the ``repro`` package of its tree afresh (the modules are
swapped in ``sys.modules``); every run is cache-cold with default
options, as in ``bench_kernels.py``.  MFSA is timed once per tier; a
tree whose ``MFSAScheduler`` still takes ``kernel`` runs it with
``kernel="auto"``, that tree's default.

``--label`` appends the result to ``BENCH_core.json`` as a
``kernel_scaling`` entry with ``parent`` and ``change`` rows per tier.

Usage::

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    PYTHONPATH=src python benchmarks/bench_kernels_ab.py \\
        --parent /tmp/parent/src --repeats 6
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import statistics
import sys
import time
from pathlib import Path

from bench_kernels import SEED, TIERS, WALKS
from bench_record import append_entry

THIS_SRC = str(Path(__file__).resolve().parent.parent / "src")

MODULES = (
    "allocation.mux",
    "core.mfs",
    "core.mfsa",
    "dfg.analysis",
    "dfg.generators",
    "dfg.ops",
    "library.ncr",
    "sweep",
)


def load_tree(src, trees):
    """The ``repro`` modules of the tree under ``src``, freshly imported.

    ``src`` stays first on ``sys.path`` until the next swap, so imports
    the package makes on first use resolve to the same tree.
    """
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    sys.path[:] = [src] + [p for p in sys.path if p not in trees]
    return {name: importlib.import_module(f"repro.{name}") for name in MODULES}


def time_tree(m):
    """``{(ops, row): ms}``: best-of-N per tier and row (MFS per walk,
    MFSA)."""
    timing = m["dfg.analysis"].TimingModel(ops=m["dfg.ops"].standard_operation_set())
    library = m["library.ncr"].datapath_library()
    mfsa = m["core.mfsa"].MFSAScheduler
    mfsa_options = (
        {"kernel": "auto"} if "kernel" in inspect.signature(mfsa).parameters else {}
    )
    out = {}
    for tier in TIERS:
        dfg = m["dfg.generators"].layered_workload(
            seed=SEED, layers=tier["layers"], width=tier["width"]
        )
        cs = m["dfg.analysis"].critical_path_length(dfg, timing) + tier["slack"]
        runs = {
            f"mfs_{kern}_ms": lambda kern=kern: m["core.mfs"].MFSScheduler(
                dfg, timing, cs=cs, mode="time", kernel=kern
            ).run()
            for kern in WALKS
        }
        runs["mfsa_ms"] = lambda: mfsa(
            dfg, timing, library, cs=cs, **mfsa_options
        ).run()
        for row, run in runs.items():
            best = float("inf")
            for _ in range(tier["repeat"]):
                # A tree from before the memo was deleted still has
                # one; clear it so that tree runs cache-cold too.
                clear = getattr(m["allocation.mux"], "clear_mux_memo", None)
                if clear is not None:
                    clear()
                start = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - start)
            out[(len(dfg), row)] = best * 1e3
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", required=True,
        help="the src directory of the tree to compare against",
    )
    parser.add_argument("--repeats", type=int, default=6)
    parser.add_argument(
        "--label",
        help="append a kernel_scaling entry with this label to BENCH_core.json",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"),
        help="output path (default: repo root BENCH_core.json)",
    )
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (the one-time import stays out of the timings)

    trees = {"parent": str(Path(args.parent).resolve()), "change": THIS_SRC}
    samples = {"parent": [], "change": []}
    cpus = None
    for index in range(args.repeats):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            modules = load_tree(trees[side], trees.values())
            cpus = modules["sweep"].default_workers()
            samples[side].append(time_tree(modules))
        print(f"repeat {index + 1}/{args.repeats} done", flush=True)

    tiers = []
    for tier in TIERS:
        rows = [key for key in samples["change"][0] if key[0] == tier["ops"]]
        entry = {
            "ops": tier["ops"],
            "layers": tier["layers"],
            "width": tier["width"],
            "slack": tier["slack"],
            "best_of": tier["repeat"],
            "alternating_repeats": args.repeats,
        }
        for side in ("parent", "change"):
            entry[side] = {}
            entry[f"{side}_range"] = {}
            entry[f"{side}_quartiles"] = {}
            for key in rows:
                values = [sample[key] for sample in samples[side]]
                entry[side][key[1]] = round(statistics.median(values), 1)
                entry[f"{side}_range"][key[1]] = [
                    round(min(values), 1), round(max(values), 1)
                ]
                quartiles = (
                    statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                )
                entry[f"{side}_quartiles"][key[1]] = [
                    round(quartiles[0], 1), round(quartiles[2], 1)
                ]
        entry["change_faster"] = {
            key[1]: "%d/%d" % (
                sum(
                    c[key] < p[key]
                    for p, c in zip(samples["parent"], samples["change"])
                ),
                args.repeats,
            )
            for key in rows
        }
        tiers.append(entry)
        for key in rows:
            row = key[1]
            print(
                f"{tier['ops']:>6} ops {row:<16} parent {entry['parent'][row]:>8} "
                f"{entry['parent_range'][row]} IQR {entry['parent_quartiles'][row]}  "
                f"change {entry['change'][row]:>8} "
                f"{entry['change_range'][row]}  faster {entry['change_faster'][row]}"
            )

    if args.label:
        out = append_entry(
            {
                "seed": SEED,
                "cpus": cpus,
                "method": "benchmarks/bench_kernels_ab.py: the parent and "
                "change trees alternated in one process, each repeat "
                "best-of-N cache-cold runs with default options; rows are "
                "medians over the repeats, ranges min-max, quartiles "
                "(statistics.quantiles, n=4) first and third",
                "tiers": tiers,
                "label": args.label,
            },
            "kernel_scaling",
            Path(args.out),
        )
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
