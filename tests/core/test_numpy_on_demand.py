"""numpy loads only in a process whose run takes the vector walk.

numpy backs MFS's vector move-frame walk (:mod:`repro.core.kernel`) and
nothing else.  The entry points, paper-size jobs (below
``VECTOR_MIN_OPS``), traced and audited runs, and every MFSA run (MFSA
has one walk) never import it; the first MFS run that takes the vector
walk does, and its bytes equal the scalar walk's.  The checks run in a
fresh interpreter, because this test process has numpy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = r"""
import json
import sys

import repro, repro.cli, repro.serve.app, repro.serve.router, repro.sweep
from repro.bench.suites import ewf
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import layered_workload, random_dfg
from repro.dfg.ops import standard_operation_set
from repro.io.jsonio import dfg_to_json, schedule_to_json
from repro.library.ncr import datapath_library
from repro.serve.jobs import execute_spec, normalize_spec

report = {"after_import": "numpy" in sys.modules, "ok": []}
design = {"dfg": json.loads(dfg_to_json(ewf()))}
for algorithm in ("mfs", "mfsa"):
    for flag in ("verify", "trace"):
        spec = normalize_spec(algorithm, design, **{flag: True})
        report["ok"].append(execute_spec(spec)[0]["ok"])

timing = TimingModel(ops=standard_operation_set())
library = datapath_library()
below_gate = random_dfg(seed=3, n_ops=47, n_inputs=4)
cs = critical_path_length(below_gate, timing) + 40
spec = normalize_spec("mfsa", {"dfg": json.loads(dfg_to_json(below_gate)), "cs": cs})
report["ok"].append(execute_spec(spec)[0]["ok"])
report["after_paper_size"] = "numpy" in sys.modules

# 2 x 96 ops at the critical path: MFSA took the vector walk here while
# it had one, and MFS's auto run takes it for 18 of its 192 frames.
large = layered_workload(seed=7, layers=2, width=96)
cs = critical_path_length(large, timing)
for style in (1, 2):
    MFSAScheduler(large, timing, library, cs=cs, style=style).run()
report["after_mfsa"] = "numpy" in sys.modules
outputs = {}
for kernel in ("scalar", "auto"):
    result = MFSScheduler(large, timing, cs=cs, kernel=kernel).run()
    outputs[kernel] = schedule_to_json(result.schedule)
    report[f"after_{kernel}"] = "numpy" in sys.modules
report["same_bytes"] = outputs["scalar"] == outputs["auto"]
print(json.dumps(report))
"""


def test_numpy_loads_with_the_first_vector_walk_run():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["ok"] == [True] * 5
    assert report["after_import"] is False
    assert report["after_paper_size"] is False
    # MFSA and a forced scalar MFS run never need it, however large the
    # design.
    assert report["after_mfsa"] is False
    assert report["after_scalar"] is False
    assert report["after_auto"] is True
    assert report["same_bytes"] is True
