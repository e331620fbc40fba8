"""Start-up harness: import time and peak memory per process, emits BENCH_core.json.

Three measurements of what a process pays before it does any work:

* **entry points** — a fresh interpreter imports ``repro.cli``,
  ``repro.serve.app`` or ``repro.serve.router`` and reports the import
  time, its peak resident set (``VmHWM``), how many ``repro`` modules it
  loaded and whether numpy got loaded; the entry records the median of
  ``--repeat`` interpreters (5);
* **role modules** — a fresh interpreter runs one fleet role's code up
  to its serve loop and counts its ``repro`` modules: the router
  (``serve --shards 2``), a shard (``serve``, before its first job) and
  a pool worker forked from that shard;
* **fleet roles** — a ``repro-hls serve --shards 2`` subprocess is sent
  the paper list (every Table-1 case as MFS, every Table-2 row as MFSA in
  styles 1 and 2) plus ``--jobs`` distinct 12–47-op designs from four
  client threads, so batches reach the pool workers; then ``VmHWM`` is
  read per role (router, shards, pool workers) from ``/proc``.

Imports and the fleet are read twice: compiled from source, with
``PYTHONDONTWRITEBYTECODE`` as the environment sets it, and with a
bytecode cache, where the child processes (only they) get
``PYTHONPYCACHEPREFIX=<temp dir>`` and lose ``PYTHONDONTWRITEBYTECODE``;
one unmeasured interpreter per entry point fills the cache first.  The
difference is the share of start-up that is compilation.

The interpreters and the fleet run the ``repro`` this script imports, so
``PYTHONPATH=<tree>/src`` measures that tree.  Results land in the
``history`` list of ``BENCH_core.json`` as a ``startup`` entry with
``cpus``; ``--smoke`` runs one interpreter per entry point from source
and no fleet, fails if any entry point loads numpy or if ``repro.cli``
or the router loads a ``repro.core`` module, and does not write the
JSON.  Needs Linux ``/proc``.

Usage::

    PYTHONPATH=src python benchmarks/bench_startup.py
    PYTHONPATH=src python benchmarks/bench_startup.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_record import append_entry

import repro
from repro.bench.suites import EXAMPLES
from repro.dfg.generators import random_dfg
from repro.io.jsonio import dfg_to_json
from repro.serve import Client
from repro.sweep import default_workers

ENTRY_POINTS = ("repro.cli", "repro.serve.app", "repro.serve.router")

#: Entry points that must load no ``repro.core`` module (``--smoke``).
SCHEDULER_FREE = ("repro.cli", "repro.serve.router")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Run in a fresh interpreter: import one module, report what it cost.
IMPORT_PROBE = r"""
import json, sys, time
start = time.perf_counter()
__import__(sys.argv[1])
elapsed_ms = (time.perf_counter() - start) * 1000.0
with open("/proc/self/status") as handle:
    hwm = next(int(l.split()[1]) for l in handle if l.startswith("VmHWM:"))
modules = [m for m in sys.modules if m.split(".")[0] == "repro"]
print(json.dumps({"ms": elapsed_ms, "vm_hwm_mb": hwm / 1024.0,
                  "modules": len(modules),
                  "core": any(m.startswith("repro.core") for m in modules),
                  "numpy": "numpy" in sys.modules}))
"""

#: Run in a fresh interpreter: one fleet role's code up to its serve
#: loop, then its ``repro`` module count (``worker``: a pool worker
#: forked from a booted shard).
ROLE_PROBE = r"""
import json, sys
import repro.cli

COUNT = "len([m for m in __import__('sys').modules if m.split('.')[0] == 'repro'])"
role = sys.argv[1]
if role == "router":
    from repro.serve.router import ShardRouter
    ShardRouter.serve_forever = lambda self: 0
    repro.cli.main(["serve", "--shards", "2", "--port", "0"])
    print(json.dumps({"modules": eval(COUNT)}))
else:
    from repro.serve.app import ServeApp
    ServeApp.serve_forever = lambda self: 0
    repro.cli.main(["serve", "--port", "0", "--serial"])
    from repro.sweep import SweepExecutor
    with SweepExecutor(backend="process", workers=1, keep_pool=True) as pool:
        worker = pool.map(eval, [COUNT])[0]
    print(json.dumps({"modules": eval(COUNT), "worker_modules": worker}))
"""


def _env(pycache=None):
    """The child environment; with ``pycache``, a bytecode cache there."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if pycache is not None:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def _probe(script, argument, pycache=None):
    done = subprocess.run(
        [sys.executable, "-c", script, argument],
        env=_env(pycache), capture_output=True, text=True, check=True,
        timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_imports(repeat, pycache=None):
    """Per entry point: median import ms and VmHWM over ``repeat`` runs."""
    results = {}
    for module in ENTRY_POINTS:
        if pycache is not None:
            _probe(IMPORT_PROBE, module, pycache)  # fills the cache
        runs = [_probe(IMPORT_PROBE, module, pycache) for _ in range(repeat)]
        results[module] = {
            "import_ms": round(statistics.median(r["ms"] for r in runs), 1),
            "vm_hwm_mb": round(statistics.median(r["vm_hwm_mb"] for r in runs), 1),
            "modules": runs[0]["modules"],
            "core": any(r["core"] for r in runs),
            "numpy": any(r["numpy"] for r in runs),
        }
        print(f"{module}{' (.pyc)' if pycache else ''}: {results[module]}")
    return results


def measure_roles():
    """``repro`` modules per fleet role (the same from source or ``.pyc``)."""
    router = _probe(ROLE_PROBE, "router")
    shard = _probe(ROLE_PROBE, "shard")
    roles = {
        "router": router["modules"],
        "shard": shard["modules"],
        "worker": shard["worker_modules"],
    }
    print(f"role modules: {roles}")
    return roles


def _vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _maps_numpy(pid):
    with open(f"/proc/{pid}/maps", encoding="utf-8", errors="replace") as handle:
        return "/numpy/" in handle.read()


def _group(pgid):
    """Live processes of process group ``pgid``: ``{pid: parent pid}``."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members[int(entry)] = int(fields[1])
    return members


def paper_requests():
    """``(algorithm, body)`` for every Table-1 case and Table-2 row."""
    requests = []
    for example in EXAMPLES.values():
        design = json.loads(dfg_to_json(example.build()))
        for case in example.table1_cases:
            requests.append(("mfs", {
                "dfg": design, "cs": case.cs, "mul_latency": case.mul_latency,
                "clock_ns": case.clock_ns, "latency_l": case.latency_l,
                "pipelined": list(case.pipelined_kinds),
            }))
        for style in (1, 2):
            requests.append(("mfsa", {
                "dfg": design, "cs": example.mfsa_cs, "style": style,
                "mul_latency": example.mfsa_mul_latency,
                "clock_ns": example.mfsa_clock_ns,
            }))
    return requests


def paper_size_requests(count):
    """``count`` distinct 12–47-op designs, MFS and MFSA alternately."""
    return [
        ("mfs" if index % 2 else "mfsa", {"dfg": json.loads(dfg_to_json(
            random_dfg(seed=index, n_ops=12 + index % 36, n_inputs=4)
        ))})
        for index in range(count)
    ]


def measure_fleet(jobs, pycache=None):
    """VmHWM per role of a 2-shard fleet after the paper list and ``jobs``
    paper-size jobs."""
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as home:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", "2",
             "--port", "0", "--state-dir", os.path.join(home, "state")],
            env=_env(pycache), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            url = _wait_ready(process)
            client = Client(url, timeout=300.0)

            def submit(request):
                algorithm, body = request
                send = client.schedule if algorithm == "mfs" else client.synth
                out = send(**body, wait=True, timeout=300)
                assert out["job"]["status"] == "done", out["job"]

            paper = paper_requests()
            for request in paper:
                submit(request)
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(submit, paper_size_requests(jobs)))

            tree = _group(process.pid)
            shards = sorted(pid for pid, parent in tree.items() if parent == process.pid)
            workers = sorted(pid for pid, parent in tree.items() if parent in shards)
            roles = {"router": [process.pid], "shard": shards, "worker": workers}
            fleet = {"jobs": len(paper) + jobs}
            for role, pids in roles.items():
                fleet[f"{role}_mb"] = [round(_vm_hwm_mb(pid), 1) for pid in pids]
                fleet[f"{role}_numpy"] = any(_maps_numpy(pid) for pid in pids)
            fleet["total_mb"] = round(
                sum(sum(fleet[f"{role}_mb"]) for role in roles), 1
            )
            print(f"fleet{' (.pyc)' if pycache else ''}: {fleet}")
            return fleet
        finally:
            _stop(process)


def _wait_ready(process, timeout=60.0):
    deadline = time.monotonic() + timeout
    descriptor = process.stderr.fileno()
    seen = b""
    while time.monotonic() < deadline:
        readable, _, _ = select.select([descriptor], [], [], deadline - time.monotonic())
        if not readable:
            break
        chunk = os.read(descriptor, 4096)
        if not chunk:
            break
        seen += chunk
        match = re.search(rb"serving on (http://\S+)", seen)
        if match:
            return match.group(1).decode()
    raise RuntimeError(f"fleet did not announce readiness: {seen[-500:]!r}")


def _stop(process):
    """SIGTERM-drain the fleet, then kill whatever is left of its group."""
    try:
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - slow drain
        pass
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stderr.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one interpreter per entry point, no fleet; "
                             "fail if any entry point loads numpy, or if "
                             "repro.cli or the router loads repro.core")
    parser.add_argument("--repeat", type=int, default=5,
                        help="fresh interpreters per entry point")
    parser.add_argument("--jobs", type=int, default=100,
                        help="paper-size jobs sent after the paper list")
    parser.add_argument("--label", default="startup")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_core.json"))
    args = parser.parse_args(argv)

    if args.smoke:
        imports = measure_imports(1)
        failures = [
            f"importing {module} loads numpy"
            for module, result in imports.items() if result["numpy"]
        ] + [
            f"importing {module} loads repro.core"
            for module in SCHEDULER_FREE if imports[module]["core"]
        ]
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("smoke OK (no entry point loads numpy; "
              "repro.cli and the router load no repro.core module)")
        return 0

    entry = {
        "label": args.label,
        "cpus": default_workers(),
        "repeat": args.repeat,
        "imports": measure_imports(args.repeat),
        "role_modules": measure_roles(),
        "fleet": measure_fleet(args.jobs),
    }
    with tempfile.TemporaryDirectory(prefix="bench-startup-pyc-") as pycache:
        entry["imports_pyc"] = measure_imports(args.repeat, pycache)
        entry["fleet_pyc"] = measure_fleet(args.jobs, pycache)
    out = append_entry(entry, "startup", Path(args.out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
