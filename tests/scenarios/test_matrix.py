"""Tests for the scenario-matrix runner and its grid artifact."""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.scenarios.matrix import (
    MatrixConfigError,
    config_fingerprint,
    expand_matrix,
    failing_results,
    grid_payload,
    load_config,
    normalize_config,
    render_grid,
    run_matrix,
    run_scenario,
    write_grid,
)

SMOKE = {
    "name": "smoke",
    "seeds": [1, 2],
    "generators": ["random:ops=10", "layered:layers=3:width=2"],
    "schedulers": ["mfs", "mfsa", "list"],
}

DEFECT = {
    "name": "defect",
    "seeds": [3],
    "generators": ["random:ops=24:mix=mul*3+add"],
    "schedulers": ["mfsa"],
    "defects": ["mul-chain"],
}


class TestNormalize:
    def test_defaults_and_table_forms(self):
        bare = normalize_config({"seeds": [5]})
        wrapped = normalize_config({"matrix": {"seeds": [5]}})
        assert bare == wrapped
        assert bare["generators"] == ["random:ops=16"]
        assert bare["schedulers"] == ["mfs"]
        assert bare["cs_slack"] == [2]
        assert bare["defects"] == []

    @pytest.mark.parametrize(
        "raw",
        [
            "not a mapping",
            {"matrix": "not a table"},
            {"frobnicate": [1]},                      # unknown key
            {"seeds": []},                             # empty seeds
            {"seeds": [True]},                         # bool is not an int
            {"seeds": "12"},                           # string is not a list
            {"generators": []},
            {"generators": ["random:ops=0"]},          # unparsable spec
            {"schedulers": ["asap"]},
            {"kernels": ["gpu"]},
            {"styles": [3]},
            {"libraries": ["tsmc"]},
            {"cs_slack": [-1]},
            {"pipelined": [1]},                        # not a bool
            {"defects": ["gremlin"]},
        ],
    )
    def test_bad_configs_rejected(self, raw):
        with pytest.raises(MatrixConfigError):
            normalize_config(raw)

    def test_fingerprint_tracks_content(self):
        a = config_fingerprint(normalize_config(SMOKE))
        b = config_fingerprint(normalize_config(dict(SMOKE)))
        c = config_fingerprint(normalize_config(dict(SMOKE, seeds=[1, 3])))
        assert a == b
        assert a != c


class TestLoadConfig:
    def test_json_config(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"matrix": SMOKE}))
        assert load_config(str(path)) == normalize_config(SMOKE)

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text("{nope")
        with pytest.raises(MatrixConfigError):
            load_config(str(path))

    def test_shipped_example_configs_load(self):
        examples = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "examples",
            "scenarios",
        )
        smoke = load_config(os.path.join(examples, "smoke.json"))
        defects = load_config(os.path.join(examples, "defects.json"))
        assert len(expand_matrix(smoke)) == 12
        assert defects["defects"] == ["mul-chain"]
        if sys.version_info >= (3, 11):
            toml_twin = load_config(os.path.join(examples, "smoke.toml"))
            assert toml_twin == smoke

    def test_toml_config(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "matrix.toml"
        path.write_text(
            "[matrix]\n"
            'name = "smoke"\n'
            "seeds = [1, 2]\n"
            'generators = ["random:ops=10", "layered:layers=3:width=2"]\n'
            'schedulers = ["mfs", "mfsa", "list"]\n'
        )
        assert load_config(str(path)) == normalize_config(SMOKE)


class TestExpand:
    def test_capability_gated_axes_collapse(self):
        config = normalize_config(
            {
                "seeds": [1],
                "generators": ["random:ops=8"],
                "schedulers": ["mfs", "mfsa", "list"],
                "kernels": ["scalar", "vector"],
                "styles": [1, 2],
                "libraries": ["ncr", "datapath"],
            }
        )
        scenarios = expand_matrix(config)
        by_sched = {}
        for s in scenarios:
            by_sched.setdefault(s["scheduler"], []).append(s)
        # mfs: 2 kernels; mfsa (one walk): 2 styles × 2 libraries;
        # list: everything collapsed to one cell.
        assert len(by_sched["mfs"]) == 2
        assert len(by_sched["mfsa"]) == 4
        assert {s["kernel"] for s in by_sched["mfsa"]} == {"scalar"}
        assert len(by_sched["list"]) == 1
        assert {s["style"] for s in by_sched["list"]} == {0}
        assert {s["library"] for s in by_sched["list"]} == {""}

    def test_expansion_is_deterministic_and_deduplicated(self):
        config = normalize_config(SMOKE)
        a = expand_matrix(config)
        b = expand_matrix(config)
        assert a == b
        ids = [s["id"] for s in a]
        assert len(ids) == len(set(ids))
        assert len(a) == 12  # 2 generators × 2 seeds × 3 schedulers


class TestRunScenario:
    def _one(self, **overrides):
        config = normalize_config(
            {"seeds": [1], "generators": ["random:ops=10"], **overrides}
        )
        return expand_matrix(config)[0]

    @pytest.mark.parametrize("scheduler", ["mfs", "mfsa", "list", "fds"])
    def test_each_scheduler_runs_clean(self, scheduler):
        result = run_scenario(self._one(schedulers=[scheduler]))
        assert result["ok"], result["violations"]
        assert result["makespan"] >= 1
        assert result["cs"] >= result["makespan"]
        assert result["n_ops"] == 10

    def test_multicycle_pipelined_scenario(self):
        scenario = self._one(
            generators=["random:ops=12:mix=mul*2+add:mul_latency=2"],
            schedulers=["mfs"],
            pipelined=[True],
        )
        result = run_scenario(scenario)
        assert result["ok"], result["violations"]

    def test_defect_marks_cell_failed(self):
        scenario = expand_matrix(normalize_config(DEFECT))[0]
        result = run_scenario(scenario)
        assert not result["ok"]
        assert any("mul-chain" in v for v in result["violations"])

    def test_scheduler_exception_becomes_violation(self, monkeypatch):
        import repro.core.mfs as mfs_module

        def boom(*args, **kwargs):
            raise RuntimeError("injected scheduler crash")

        monkeypatch.setattr(mfs_module.MFSScheduler, "run", boom)
        result = run_scenario(self._one(schedulers=["mfs"]))
        assert not result["ok"]
        assert any("injected scheduler crash" in v for v in result["violations"])


class TestRunMatrix:
    def test_grid_is_byte_reproducible(self):
        """Acceptance criterion: same config + seed → identical grid."""
        first = run_matrix(SMOKE, backend="serial")
        second = run_matrix(SMOKE, backend="serial")
        assert json.dumps(grid_payload(first), sort_keys=True) == json.dumps(
            grid_payload(second), sort_keys=True
        )
        fingerprints = [r["fingerprint"] for r in first["results"]]
        assert fingerprints == [r["fingerprint"] for r in second["results"]]

    def test_process_backend_matches_serial(self):
        config = dict(SMOKE, seeds=[1], schedulers=["mfs", "list"])
        serial = run_matrix(config, backend="serial")
        pooled = run_matrix(config, backend="process", workers=2)
        assert grid_payload(serial) == grid_payload(pooled)

    def test_checkpoint_resume_replays_identically(self, tmp_path):
        path = str(tmp_path / "matrix.ckpt")
        config = dict(SMOKE, seeds=[1])
        first = run_matrix(config, backend="serial", checkpoint_path=path)
        resumed = run_matrix(config, backend="serial", checkpoint_path=path)
        assert grid_payload(first) == grid_payload(resumed)
        # Resumed rows come from the checkpoint, not re-execution.
        assert all(r["seconds"] == 0.0 for r in resumed["results"])

    def test_changed_config_discards_stale_checkpoint(self, tmp_path):
        path = str(tmp_path / "matrix.ckpt")
        config = dict(SMOKE, seeds=[1])
        run_matrix(config, backend="serial", checkpoint_path=path)
        changed = run_matrix(
            dict(config, cs_slack=[3]),
            backend="serial",
            checkpoint_path=path,
        )
        assert all(
            result["cs"] - result["makespan"] >= 0
            for result in changed["results"]
        )
        assert any(r["seconds"] > 0.0 for r in changed["results"])

    def test_grid_artifact_and_render(self, tmp_path):
        run = run_matrix(dict(DEFECT), backend="serial")
        grid_path = tmp_path / "grid.json"
        payload = write_grid(run, str(grid_path))
        assert payload["failed"] == 1
        assert payload["passed"] == 0
        on_disk = json.loads(grid_path.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        assert grid_path.read_text().endswith("\n")
        text = render_grid(run)
        assert "FAIL" in text and "0/1 passed" in text
        failures = failing_results(run)
        assert len(failures) == 1
        scenario, result = failures[0]
        assert scenario["id"] == result["id"]
