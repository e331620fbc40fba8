"""Walk cross-validation audits (repro.check.kernels) and the CLI flag.

MFS's vector walk must be byte-identical to the scalar reference, and
MFSA's bounded default run to its recorded whole-frame run, on the
paper's own examples — these tests enforce that through the same
``repro.check`` layer the CLI exposes as ``repro check --kernels``.
"""

import pytest

from repro.check import (
    check_kernels_example,
    check_kernels_random,
    check_mfs_kernels,
    check_mfsa_kernels,
)
from repro.cli import main
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import layered_workload
from repro.dfg.ops import standard_operation_set
from repro.library.ncr import datapath_library

TIMING = TimingModel(ops=standard_operation_set())


class TestKernelAudits:
    @pytest.mark.parametrize("key", ["ex1", "ex4", "ex6"])
    def test_paper_example_kernels_identical(self, key):
        report = check_kernels_example(key)
        assert report.ok, report.render()
        assert "kernel-schedule" in report.checks_run
        assert "mfsa-bounded-bytes" in report.checks_run

    def test_random_workloads_identical(self):
        report = check_kernels_random(count=3, seed=11)
        assert report.ok, report.render()

    def test_layered_workload_with_slack(self):
        """The benchmark regime: tall grids, wide frames."""
        g = layered_workload(seed=7, layers=5, width=20)
        cs = critical_path_length(g, TIMING) + 40
        report = check_mfs_kernels(g, TIMING, cs=cs)
        assert report.ok, report.render()
        report = check_mfsa_kernels(
            g, TIMING, datapath_library(), cs=cs
        )
        assert report.ok, report.render()

    def test_cli_check_kernels_flag(self, capsys):
        assert main(["check", "--example", "ex1", "--kernels"]) == 0
        out = capsys.readouterr().out
        assert "kernel equivalence" in out
        assert "PASS" in out
