"""Each process imports only what its role runs.

* ``repro-hls --help`` loads ``repro``, ``repro.cli`` and ``repro.errors``.
* The shard router (``serve --shards N``) admits, keys and forwards
  requests but never schedules, audits or traces: no scheduler,
  allocation, audit, tracing, exploration, benchmark, scenario, RTL or
  simulation module, even after admitting every kind of job.
* A shard imports every module a job can import while it boots, before
  its pool forks, so its fork workers inherit them and no job pays a
  first import (:data:`repro.serve.jobs.JOB_IMPORTS`).

The checks run in a fresh interpreter, because this test process has
imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The last stdout line of each script: its sorted ``repro`` modules.
MODULES = 'sorted(m for m in sys.modules if m.split(".")[0] == "repro")'


def _run(script):
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


HELP = rf"""
import json, runpy, sys
sys.argv = ["repro-hls", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as stop:
    assert stop.code == 0, stop.code
print(json.dumps({MODULES}))
"""


def test_help_loads_only_the_cli():
    assert _run(HELP) == ["repro", "repro.cli", "repro.errors"]


ROUTER = rf"""
import json, sys
import repro.cli
from repro.serve.router import ShardRouter

ShardRouter.serve_forever = lambda self: 0
assert repro.cli.main(["serve", "--shards", "2", "--port", "0"]) == 0

# What the router runs per request: admission and the cache key.
from repro.serve.jobs import key_and_fingerprint, normalize_spec
body = {{"source": "input a b c\nt = a + b\nx = t * c\noutput x"}}
for algorithm in ("mfs", "mfsa"):
    for flags in ({{}}, {{"verify": True}}, {{"trace": True}}):
        key_and_fingerprint(normalize_spec(algorithm, body, **flags))
print(json.dumps({MODULES}))
"""

#: Packages whose code only schedules, audits, traces or reports.
NOT_IN_ROUTER = (
    "repro.allocation",
    "repro.bench",
    "repro.check",
    "repro.core",
    "repro.explore",
    "repro.rtl",
    "repro.scenarios",
    "repro.sim",
    "repro.trace",
)


def test_router_loads_no_scheduler():
    loaded = _run(ROUTER)
    assert "repro.serve.router" in loaded
    assert "repro.serve.app" not in loaded
    leaked = [
        module
        for module in loaded
        if any(module == p or module.startswith(p + ".") for p in NOT_IN_ROUTER)
    ]
    assert leaked == []


SHARD = rf"""
import json, sys
import repro.cli
from repro.serve.app import ServeApp

booted = []
def boot_only(self):
    booted.extend({MODULES})
    return 0
ServeApp.serve_forever = boot_only
assert repro.cli.main(["serve", "--port", "0", "--serial"]) == 0

# Every kind of job a shard runs, on a design with branches (§5.1).
from repro.serve.jobs import execute_job, normalize_spec
before_jobs = {MODULES}
design = {{"source": (
    "input a b\nis_less = a < b\nbranch c0 then\nd1 = b - a\n"
    "branch c0 else\nd2 = a - b\nend c0\nscaled1 = d1 * 3\n"
    "scaled2 = d2 * 3\noutput is_less scaled1 scaled2"
)}}
for algorithm in ("mfs", "mfsa"):
    for flags in ({{}}, {{"verify": True}}, {{"trace": True}}):
        for style in ((1, 2) if algorithm == "mfsa" else (1,)):
            body = dict(design, style=style) if algorithm == "mfsa" else design
            text, error, _ = execute_job(normalize_spec(algorithm, body, **flags))
            assert error is None, error
added = sorted(set({MODULES}) - set(before_jobs))
print(json.dumps({{"booted": booted, "added_by_jobs": added}}))
"""


def test_a_booted_shard_holds_every_module_a_job_imports():
    report = _run(SHARD)
    assert "repro.check.runner" in report["booted"]
    assert "repro.trace.recorder" in report["booted"]
    assert report["added_by_jobs"] == []
