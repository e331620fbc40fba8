"""Run-report rendering and the ``repro-hls trace`` CLI end to end."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.trace import parse_jsonl, render_run_report, trace_run

GRADIENT = "examples/designs/gradient.beh"


@pytest.fixture(scope="module")
def gradient_run():
    from pathlib import Path

    from repro.dfg.analysis import TimingModel
    from repro.dfg.ops import standard_operation_set
    from repro.dfg.parser import parse_behavior

    dfg = parse_behavior(Path(GRADIENT).read_text(), name="gradient")
    timing = TimingModel(standard_operation_set())
    return trace_run(dfg, timing, scheduler="mfsa")


class TestReportRenderer:
    def test_report_has_every_section(self, gradient_run):
        report = gradient_run.report
        for heading in (
            "# Run report — gradient",
            "## Run 1: MFSA on `gradient`",
            "### Schedule (Gantt)",
            "### Liapunov descent",
            "### Move-frame occupancy",
            "### Counters",
        ):
            assert heading in report

    def test_report_embeds_svg_and_verdict(self, gradient_run):
        assert gradient_run.ok
        assert "<svg" in gradient_run.report
        assert "Replayed Liapunov descent: **OK**" in gradient_run.report

    def test_report_counter_table_has_hit_rates(self, gradient_run):
        assert "`mfsa.candidates_evaluated`" in gradient_run.report
        assert "_hit_rate`" in gradient_run.report

    def test_regeneration_is_byte_identical(self, gradient_run):
        events = parse_jsonl(gradient_run.jsonl)
        assert render_run_report(events) == gradient_run.report
        assert render_run_report(events) == render_run_report(events)

    def test_violating_stream_renders_not_raises(self, gradient_run):
        events = parse_jsonl(gradient_run.jsonl)
        commit = next(e for e in events if e["t"] == "op.commit")
        commit["e"] += 1000.0
        report = render_run_report(events)
        assert "violation(s)" in report
        assert "liapunov." in report

    def test_mfs_report_renders(self):
        from pathlib import Path

        from repro.dfg.analysis import TimingModel
        from repro.dfg.ops import standard_operation_set
        from repro.dfg.parser import parse_behavior

        dfg = parse_behavior(Path(GRADIENT).read_text(), name="gradient")
        run = trace_run(
            dfg, TimingModel(standard_operation_set()), scheduler="mfs"
        )
        assert run.ok
        assert "## Run 1: MFS on `gradient`" in run.report
        assert "FU usage" in run.report

    def test_unknown_scheduler_rejected(self, diamond_dfg, timing):
        with pytest.raises(ValueError):
            trace_run(diamond_dfg, timing, scheduler="list")


class TestTraceCLI:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        jsonl = tmp_path / "g.trace.jsonl"
        report = tmp_path / "g.report.md"
        code = main(
            [
                "trace",
                GRADIENT,
                "--jsonl",
                str(jsonl),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed descent OK" in out
        events = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert events[0] == {"t": "trace.header", "v": 1}
        assert parse_jsonl(jsonl.read_text()) == events
        text = report.read_text()
        assert "# Run report — gradient" in text
        assert "<svg" in text

    def test_trace_subcommand_mfs_with_cs(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                GRADIENT,
                "--scheduler",
                "mfs",
                "--cs",
                "4",
                "--jsonl",
                str(tmp_path / "t.jsonl"),
                "--report",
                str(tmp_path / "t.md"),
            ]
        )
        assert code == 0
        events = parse_jsonl((tmp_path / "t.jsonl").read_text())
        start = events[1]
        assert start["scheduler"] == "mfs"
        assert start["cs"] == 4

    def test_trace_subcommand_names_outputs_after_the_design(
        self, tmp_path, monkeypatch, capsys
    ):
        # Without --jsonl/--report the files are named by the design,
        # which is named by the file's stem, in the working directory.
        design = str(Path(GRADIENT).resolve())
        monkeypatch.chdir(tmp_path)
        assert main(["trace", design]) == 0
        capsys.readouterr()
        assert (tmp_path / "gradient.trace.jsonl").read_text()
        assert "<svg" in (tmp_path / "gradient.report.md").read_text()
