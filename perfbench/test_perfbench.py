"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They run the benchmark itself for a second or two per workload, so they
take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import designs
import harness
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def short_runs():
    """One short untraced and one short traced run of every workload."""
    return {
        (workload, trace): result_of(run_benchmark(workload, 7, 1.5, trace))
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def test_metric_table_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == metrics.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_printed_with_its_unit(short_runs, workload, trace):
    result = short_runs[(workload, trace)]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_kernel_split_between_compile_workloads(short_runs):
    share = {w: short_runs[(w, 1)]["metrics"]["core.vector_share"]["value"]
             for w in ("compile_paper", "compile_large")}
    assert share == {"compile_paper": 0.0, "compile_large": 1.0}


def test_traced_run_writes_spans(short_runs):
    for workload in WORKLOADS:
        path = ROOT / ".perfbench" / f"trace-{workload}-seed7.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans and {"id", "name", "parent", "op", "start_ms", "end_ms"} <= set(spans[0])
    coverage = short_runs[("compile_paper", 1)]["metrics"]["trace.coverage_min"]["value"]
    assert coverage >= 0.97


@pytest.mark.parametrize("workload", ["compile_paper", "compile_large"])
def test_same_seed_same_qor(short_runs, workload):
    again = result_of(run_benchmark(workload, 7, 1.0, 0))["metrics"]
    first = short_runs[(workload, 0)]["metrics"]
    for name in ("area_um2_mean", "fu_count_mean"):
        assert again[name]["value"] == first[name]["value"]


def test_serve_qor_equals_in_process_qor(short_runs):
    paper = short_runs[("compile_paper", 0)]["metrics"]
    fleet = short_runs[("serve_fleet", 0)]["metrics"]
    for name in ("area_um2_mean", "fu_count_mean"):
        assert fleet[name]["value"] == paper[name]["value"]


def _fingerprints(kind: str, seed: int) -> list:
    script = (
        "import sys, itertools; sys.path.insert(0, sys.argv[1]); import designs; "
        f"print([designs.fingerprint(j) for j in itertools.islice("
        f"designs.seeded_jobs({kind!r}, 'timed', {seed}), 6)])"
    )
    done = subprocess.run([sys.executable, "-c", script, str(HERE)],
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout


@pytest.mark.parametrize("kind", ["paper", "large"])
def test_same_seed_same_designs_across_processes(kind):
    assert _fingerprints(kind, 3) == _fingerprints(kind, 3)
    assert _fingerprints(kind, 3) != _fingerprints(kind, 4)


def test_critical_path_agrees_with_program():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.dfg.analysis import TimingModel, critical_path_length
    from repro.dfg.ops import standard_operation_set
    from repro.io.jsonio import dfg_from_json

    jobs = list(islice(designs.seeded_jobs("paper", "check", 0), 40))
    jobs += list(islice(designs.seeded_jobs("large", "check", 0), 6))
    for job in jobs:
        body = job["body"]
        timing = TimingModel(ops=standard_operation_set(mul_latency=body["mul_latency"]),
                             clock_period_ns=body.get("clock_ns"))
        program = critical_path_length(dfg_from_json(json.dumps(body["dfg"])), timing)
        assert designs.critical_path(body["dfg"], body["mul_latency"],
                                     body.get("clock_ns")) == program


def test_paper_jobs_cover_tables():
    jobs = designs.paper_jobs()
    assert sum(job["algorithm"] == "mfs" for job in jobs) == 18
    assert sum(job["algorithm"] == "mfsa" for job in jobs) == 12
    assert sum("paper_fu" in job for job in jobs) == 7


def test_self_time_and_coverage():
    spans = harness.Spans(True)
    op = spans.add("op", 0.0, 1.0)
    spans.add("decode", 0.0, 0.25, op)
    spans.add("schedule", 0.25, 0.95, op)
    assert spans.self_times() == pytest.approx({"op": 0.05, "decode": 0.25, "schedule": 0.7})
    assert spans.coverage("op") == pytest.approx([0.95])
    assert harness.Spans(False).add("op", 0.0, 1.0) is None


def test_speed_factors_follow_probe_phases():
    times = [0.1 * i for i in range(200)]
    probes = [2.0] * 100 + [4.0] * 100
    factors = harness.speed_factors(times, probes)
    assert factors[0] == 1.0 and factors[-1] == 0.5


def test_fails_without_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run_benchmark("compile_paper", 1, 1, 0, cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
