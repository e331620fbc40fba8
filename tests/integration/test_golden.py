"""Golden-file regression guards.

The regenerated paper artifacts are fully deterministic (no randomness,
deterministic tie-breaks throughout), so their renderings are pinned
verbatim.  Any diff here means the reproduction changed — deliberately
(then refresh the files, see below) or by accident (a regression).

Refresh after an intentional algorithm change::

    python -c "
    from repro.bench.table1 import table1_rows, render_table1
    from repro.bench.table2 import table2_rows, render_table2
    from repro.bench.figures import figure1, figure2
    open('tests/golden/table1.txt','w').write(render_table1(table1_rows()) + '\\n')
    open('tests/golden/table2.txt','w').write(render_table2(table2_rows()) + '\\n')
    open('tests/golden/figure1_ex3.txt','w').write(figure1('ex3') + '\\n')
    open('tests/golden/figure2_ex3.txt','w').write(figure2('ex3') + '\\n')
    "

and write each ``layered_*`` / ``ewf_mfsa_trace.jsonl`` file with the
text the matching test below compares against.
"""

import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def layered_design():
    """A 100-op layered design: large enough for ``auto`` to allow the
    vector walk, small enough to run every walk in well under a second."""
    from repro.dfg.analysis import TimingModel, critical_path_length
    from repro.dfg.generators import layered_workload
    from repro.dfg.ops import standard_operation_set

    dfg = layered_workload(seed=7, layers=5, width=20)
    timing = TimingModel(ops=standard_operation_set())
    return dfg, timing, critical_path_length(dfg, timing)


class TestGoldenArtifacts:
    def test_table1_pinned(self):
        from repro.bench.table1 import render_table1, table1_rows

        assert render_table1(table1_rows()) + "\n" == golden("table1.txt")

    def test_table2_pinned(self):
        from repro.bench.table2 import render_table2, table2_rows

        assert render_table2(table2_rows()) + "\n" == golden("table2.txt")

    def test_figure1_pinned(self):
        from repro.bench.figures import figure1

        assert figure1("ex3") + "\n" == golden("figure1_ex3.txt")

    def test_figure2_pinned(self):
        from repro.bench.figures import figure2

        assert figure2("ex3") + "\n" == golden("figure2_ex3.txt")

    def test_goldens_are_reproduced_twice_identically(self):
        """Determinism of the harness itself (same process, two runs)."""
        from repro.bench.table2 import render_table2, table2_rows

        assert render_table2(table2_rows()) == render_table2(table2_rows())


def assert_mfs_pinned(kernel, slack):
    from repro.core.kernel import resolve_kernel
    from repro.core.mfs import MFSScheduler
    from repro.io.jsonio import schedule_to_json

    dfg, timing, critical = layered_design()
    assert resolve_kernel("auto", len(dfg)) == "vector"
    cs = critical + slack
    result = MFSScheduler(dfg, timing, cs=cs, kernel=kernel).run()
    assert schedule_to_json(result.schedule) + "\n" == golden(
        f"layered_cs{cs}_mfs.json"
    )


def assert_mfsa_pinned(kernel, slack, style):
    from repro.core.mfsa import MFSAScheduler
    from repro.io.jsonio import synthesis_to_json
    from repro.library.ncr import datapath_library

    dfg, timing, critical = layered_design()
    cs = critical + slack
    result = MFSAScheduler(
        dfg, timing, datapath_library(), cs=cs, style=style, kernel=kernel
    ).run()
    assert synthesis_to_json(result) + "\n" == golden(
        f"layered_cs{cs}_mfsa_s{style}.json"
    )


@pytest.mark.parametrize("kernel", ["auto", "scalar", "vector"])
@pytest.mark.parametrize("slack", [40, 2])
class TestGoldenWalks:
    """Every move-frame walk must reproduce the same pinned bytes.

    ``scalar`` and ``vector`` force one walk for every frame; at 100 ops
    ``auto`` mixes them, each operation picking its walk by frame size.
    The suite's audit records move-frame alternatives; the
    ``default_options`` tests run as program callers do, without them,
    and must reproduce the same bytes.
    """

    def test_mfs_schedule_pinned(self, kernel, slack):
        assert_mfs_pinned(kernel, slack)

    @pytest.mark.default_options
    def test_mfs_schedule_pinned_with_default_options(self, kernel, slack):
        assert_mfs_pinned(kernel, slack)

    @pytest.mark.parametrize("style", [1, 2])
    def test_mfsa_synthesis_pinned(self, kernel, slack, style):
        assert_mfsa_pinned(kernel, slack, style)

    @pytest.mark.default_options
    @pytest.mark.parametrize("style", [1, 2])
    def test_mfsa_synthesis_pinned_with_default_options(
        self, kernel, slack, style
    ):
        assert_mfsa_pinned(kernel, slack, style)


def test_ewf_mfsa_trace_pinned():
    """The full MFSA decision stream on the elliptic wave filter."""
    from repro.bench.suites import ewf
    from repro.dfg.analysis import TimingModel
    from repro.dfg.ops import standard_operation_set
    from repro.trace.driver import trace_run

    timing = TimingModel(ops=standard_operation_set(mul_latency=2))
    run = trace_run(ewf(), timing, scheduler="mfsa", cs=17)
    assert len(run.jsonl.splitlines()) == 374
    assert run.jsonl == golden("ewf_mfsa_trace.jsonl")
