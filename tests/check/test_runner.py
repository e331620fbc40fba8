"""Composed audits (runner), the verify=True post-condition and the CLI."""

import pytest

from repro.bench.suites import hal_diffeq
from repro.check import check_example, check_mfs_result, check_schedule
from repro.cli import main
from repro.core.mfs import MFSScheduler, mfs_schedule
from repro.core.mfsa import MFSAScheduler
from repro.errors import VerificationError


class TestRunner:
    def test_mfs_report_lists_check_families(self, timing):
        result = mfs_schedule(
            hal_diffeq(), timing, cs=5, record_alternatives=True
        )
        assert all(event.alternatives for event in result.trajectory)
        report = check_mfs_result(result, differential=True)
        assert report.ok, report.render()
        assert set(report.checks_run) == {
            "schedule-legality",
            "frame-containment",
            "grid-occupancy",
            "liapunov-descent",
            "differential",
        }

    def test_corrupted_result_fails_audit(self, timing):
        result = mfs_schedule(hal_diffeq(), timing, cs=5)
        name = next(iter(result.schedule.starts))
        result.schedule.starts[name] = result.schedule.cs + 5
        report = check_mfs_result(result)
        assert not report.ok

    def test_bare_schedule_audit(self, timing):
        result = mfs_schedule(hal_diffeq(), timing, cs=5)
        report = check_schedule(result.schedule)
        assert report.ok
        assert "grid-occupancy" not in report.checks_run

    def test_check_example_passes(self):
        report = check_example("ex1", differential=False)
        assert report.ok, report.render()


class TestVerifyPostCondition:
    def test_mfsa_verify_true_passes(self, timing, alu_family):
        result = MFSAScheduler(
            hal_diffeq(), timing, alu_family, cs=6, verify=True
        ).run()
        assert result.schedule.makespan() <= 6

    def test_verify_raises_on_injected_corruption(
        self, timing, monkeypatch
    ):
        # Corrupt the audit target right before the post-condition runs
        # by intercepting the checker's input through the result type.
        from repro.core import mfs as mfs_module

        original = mfs_module.MFSResult

        class Corrupting(original):
            def __init__(self, **kwargs):
                kwargs["schedule"].starts[
                    next(iter(kwargs["schedule"].starts))
                ] = 99
                super().__init__(**kwargs)

        monkeypatch.setattr(mfs_module, "MFSResult", Corrupting)
        with pytest.raises(VerificationError) as excinfo:
            MFSScheduler(
                hal_diffeq(), timing, cs=5, mode="time", verify=True
            ).run()
        assert not excinfo.value.report.ok


class TestCLI:
    def test_check_command_passes_on_one_example(self, capsys):
        assert main(["check", "--example", "ex1", "--no-differential"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "ex1" in out

    def test_check_command_with_random_workloads(self, capsys):
        assert (
            main(
                [
                    "check",
                    "--example",
                    "ex1",
                    "--random",
                    "1",
                    "--no-differential",
                ]
            )
            == 0
        )
        assert "random DFGs" in capsys.readouterr().out
