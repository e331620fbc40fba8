"""Tests for JSON serialisation, VCD export and the CLI."""

import json

import pytest

from repro.core.mfs import mfs_schedule
from repro.core.mfsa import mfsa_synthesize
from repro.dfg.generators import random_dfg
from repro.errors import DFGError
from repro.io.jsonio import (
    dfg_from_json,
    dfg_to_json,
    schedule_to_json,
    synthesis_to_json,
)
from repro.sim.executor import execute_datapath
from repro.sim.vcd import trace_to_vcd
from repro.bench.suites import hal_diffeq


class TestDFGJson:
    def test_round_trip_preserves_structure(self):
        g = hal_diffeq()
        restored = dfg_from_json(dfg_to_json(g))
        assert restored.node_names() == g.node_names()
        assert restored.inputs == g.inputs
        assert restored.outputs == g.outputs
        for node in g:
            other = restored.node(node.name)
            assert other.kind == node.kind
            assert other.operands == node.operands
            assert other.branch == node.branch

    def test_round_trip_random_graphs(self, ops):
        for seed in range(5):
            g = random_dfg(seed=seed, n_ops=20)
            restored = dfg_from_json(dfg_to_json(g))
            restored.validate(ops)
            assert restored.count_by_kind() == g.count_by_kind()

    def test_round_trip_branches(self):
        from repro.bench.suites import conditional_example

        g = conditional_example()
        restored = dfg_from_json(dfg_to_json(g))
        assert restored.mutually_exclusive("then_mul", "else_mul")

    def test_rejects_foreign_document(self):
        with pytest.raises(DFGError):
            dfg_from_json(json.dumps({"format": "something-else"}))

    def test_rejects_future_version(self):
        doc = json.loads(dfg_to_json(hal_diffeq()))
        doc["version"] = 99
        with pytest.raises(DFGError):
            dfg_from_json(json.dumps(doc))


class TestScheduleAndSynthesisJson:
    def test_schedule_json_fields(self, timing):
        result = mfs_schedule(hal_diffeq(), timing, cs=5)
        payload = json.loads(schedule_to_json(result.schedule))
        assert payload["cs"] == 5
        assert payload["makespan"] <= 5
        assert payload["starts"]["m1"] >= 1
        assert payload["fu_usage"]["mul"] >= 1

    def test_synthesis_json_fields(self, timing, alu_family):
        result = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        payload = json.loads(synthesis_to_json(result))
        assert payload["style"] == 1
        assert set(payload["binding"]) == set(hal_diffeq().node_names())
        assert payload["cost"]["total"] == pytest.approx(result.cost.total)
        assert payload["metrics"]["register_count"] == (
            result.datapath.register_count()
        )
        assert len(payload["alus"]) == len(result.datapath.instances)


class TestVCD:
    def test_vcd_structure(self, timing, alu_family):
        result = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        inputs = {"x": 1, "dx": 2, "u": 3, "y": 4, "a": 9}
        trace = execute_datapath(result.datapath, inputs)
        vcd = trace_to_vcd(result.datapath, trace)
        assert "$enddefinitions $end" in vcd
        assert "$var wire 16" in vcd
        assert "#0" in vcd and f"#{result.schedule.cs + 1}" in vcd
        # one $var per register, op wire, output, plus the state
        ops_count = len(hal_diffeq())
        expected = (
            1
            + result.datapath.register_count()
            + ops_count
            + len(hal_diffeq().outputs)
        )
        assert vcd.count("$var wire") == expected

    def test_vcd_identifiers_unique(self, timing, alu_family):
        result = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        trace = execute_datapath(
            result.datapath, {"x": 1, "dx": 2, "u": 3, "y": 4, "a": 9}
        )
        vcd = trace_to_vcd(result.datapath, trace)
        codes = [
            line.split()[3]
            for line in vcd.splitlines()
            if line.startswith("$var")
        ]
        assert len(codes) == len(set(codes))

    def test_write_vcd(self, tmp_path, timing, alu_family):
        from repro.sim.vcd import write_vcd

        result = mfsa_synthesize(hal_diffeq(), timing, alu_family, cs=6)
        trace = execute_datapath(
            result.datapath, {"x": 1, "dx": 2, "u": 3, "y": 4, "a": 9}
        )
        target = tmp_path / "run.vcd"
        write_vcd(str(target), result.datapath, trace)
        assert target.read_text().startswith("$date")


class TestCLI:
    def run(self, *argv, capsys=None):
        from repro.cli import main

        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out if capsys else None

    def test_table1_command(self, capsys):
        out = self.run("table1", "--example", "ex1", capsys=capsys)
        assert "Table 1" in out
        assert "yes" in out

    def test_table2_command(self, capsys):
        out = self.run("table2", "--example", "ex1", capsys=capsys)
        assert "Table 2" in out

    def test_figure_commands(self, capsys):
        assert "Figure 1" in self.run("figure1", capsys=capsys)
        assert "Figure 2" in self.run(
            "figure2", "--example", "ex3", capsys=capsys
        )

    def test_schedule_command(self, tmp_path, capsys):
        design = tmp_path / "d.beh"
        design.write_text(
            "input a b c\nt = a * b\ny = t + c\noutput y\n"
        )
        out = self.run("schedule", str(design), "--cs", "3", capsys=capsys)
        assert "makespan" in out

    def test_schedule_json_output(self, tmp_path, capsys):
        design = tmp_path / "d.beh"
        design.write_text("input a b\ny = a + b\noutput y\n")
        out = self.run("schedule", str(design), "--json", capsys=capsys)
        payload = json.loads(out)
        assert payload["format"] == "repro-schedule"

    def test_synth_command_writes_verilog(self, tmp_path, capsys):
        design = tmp_path / "d.beh"
        design.write_text(
            "input a b c\nt = a * b\nu = t - c\ny = u + a\noutput y\n"
        )
        verilog = tmp_path / "out.v"
        vcd = tmp_path / "out.vcd"
        self.run(
            "synth",
            str(design),
            "--cs",
            "4",
            "--verilog",
            str(verilog),
            "--vcd",
            str(vcd),
            "--inputs",
            "a=3,b=5,c=2",
            capsys=capsys,
        )
        assert "module datapath" in verilog.read_text()
        assert vcd.read_text().startswith("$date")

    def test_synth_json(self, tmp_path, capsys):
        design = tmp_path / "d.beh"
        design.write_text("input a b\ny = a - b\noutput y\n")
        out = self.run("synth", str(design), "--json", capsys=capsys)
        payload = json.loads(out)
        assert payload["format"] == "repro-synthesis"

    def test_baselines_command(self, capsys):
        out = self.run("baselines", capsys=capsys)
        assert "mfs" in out and "fds" in out

    def test_explore_command(self, tmp_path, capsys):
        design = tmp_path / "d.beh"
        design.write_text(
            "input a b c\nt = a * b\nu = t + c\ny = u - a\noutput y\n"
        )
        out = self.run(
            "explore", str(design), "--budgets", "3,5", capsys=capsys
        )
        assert "Pareto-optimal" in out
        assert "knee:" in out

    def test_schedule_svg_output(self, tmp_path, capsys):
        design = tmp_path / "d.beh"
        design.write_text("input a b\ny = a + b\noutput y\n")
        svg = tmp_path / "g.svg"
        self.run("schedule", str(design), "--svg", str(svg), capsys=capsys)
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("command", ["schedule", "synth"])
    @pytest.mark.parametrize(
        "flags, mul_latency",
        [((), 2), (("--mul-latency", "1"), 1), (("--mul-latency", "3"), 3)],
    )
    def test_generated_design_timing(self, command, flags, mul_latency, capsys):
        """``--mul-latency`` overrides a generated spec's latency (1
        included); without it the spec's own latency holds."""
        from repro.dfg.analysis import TimingModel, critical_path_length
        from repro.dfg.ops import standard_operation_set
        from repro.scenarios.generator import generate_dfg, parse_generator_spec

        spec = "random:ops=10:mix=mul*3+add:mul_latency=2"
        dfg = generate_dfg(parse_generator_spec(spec), 3)

        def critical(latency):
            timing = TimingModel(ops=standard_operation_set(mul_latency=latency))
            return critical_path_length(dfg, timing)

        assert critical(1) != critical(2)
        out = self.run(
            command, "--generate", spec, "--seed", "3", *flags, "--json",
            capsys=capsys,
        )
        assert json.loads(out)["cs"] == critical(mul_latency)
