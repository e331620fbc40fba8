"""Who records move-frame alternatives.

The (position, energy) list of every move frame is an audit artifact,
not part of the algorithm.  Default MFS and MFSA runs skip it, MFS on
both walks.  Every entry point that audits or draws a finished run records
it, so the §2.2 argmin audit (``check_liapunov_descent``) always has a
list to compare the chosen energy with: a spy on the audit sees only
trajectories whose every event carries alternatives.
"""

import pytest

from repro.bench import figures
from repro.bench.suites import EXAMPLES
from repro.check import check_example, check_random_dfgs, runner
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import layered_workload
from repro.dfg.ops import standard_operation_set
from repro.library.ncr import datapath_library
from repro.scenarios.matrix import (
    expand_matrix,
    normalize_config,
    run_scenario,
)
from repro.serve.jobs import execute_spec, normalize_spec

from tests.serve.test_response_golden import mfs_body, mfsa_body

TIMING = TimingModel(ops=standard_operation_set())
LIBRARY = datapath_library()


def layered():
    """100 ops at 10 steps of slack."""
    g = layered_workload(seed=7, layers=5, width=20)
    return g, critical_path_length(g, TIMING) + 10


def assert_recorded(trajectory):
    assert len(trajectory) > 0
    for event in trajectory:
        assert event.alternatives, event


@pytest.fixture
def audited(monkeypatch):
    """Every trajectory handed to the §2.2 audit, in call order."""
    seen = []
    real = runner.check_liapunov_descent

    def spy(trajectory, *args, **kwargs):
        seen.append(trajectory)
        return real(trajectory, *args, **kwargs)

    monkeypatch.setattr(runner, "check_liapunov_descent", spy)
    return seen


class TestDefaultRunsRecordNothing:
    @pytest.mark.parametrize("kernel", ["scalar", "vector", "auto"])
    def test_mfs(self, kernel):
        g, cs = layered()
        result = MFSScheduler(g, TIMING, cs=cs, kernel=kernel).run()
        assert len(result.trajectory) == len(g)
        assert not any(event.alternatives for event in result.trajectory)

    @pytest.mark.parametrize("kernel", ["scalar", "vector", "auto"])
    @pytest.mark.parametrize("style", [1, 2])
    def test_mfsa(self, kernel, style):
        """MFSA has one walk: it records nothing, also right after an MFS
        run that recorded its alternatives on the ``kernel`` walk."""
        g, cs = layered()
        MFSScheduler(
            g, TIMING, cs=cs, kernel=kernel, record_alternatives=True
        ).run()
        result = MFSAScheduler(g, TIMING, LIBRARY, cs=cs, style=style).run()
        assert len(result.trajectory) == len(g)
        assert not any(event.alternatives for event in result.trajectory)


class TestAuditedRunsRecord:
    @pytest.mark.parametrize("kernel", ["scalar", "vector", "auto"])
    def test_verify_true(self, audited, kernel):
        g, cs = layered()
        MFSScheduler(g, TIMING, cs=cs, kernel=kernel, verify=True).run()
        assert len(audited) == 1
        assert_recorded(audited[0])

    def test_verify_true_mfsa(self, audited):
        g, cs = layered()
        MFSAScheduler(g, TIMING, LIBRARY, cs=cs, verify=True).run()
        assert len(audited) == 1
        assert_recorded(audited[0])

    def test_check_example(self, audited):
        report = check_example("ex3", differential=False)
        assert report.ok, report.render()
        assert len(audited) == len(EXAMPLES["ex3"].table1_cases) + 2
        for trajectory in audited:
            assert_recorded(trajectory)

    def test_check_random_dfgs(self, audited):
        report = check_random_dfgs(count=2, n_ops=12, differential=False)
        assert report.ok, report.render()
        assert len(audited) == 4
        for trajectory in audited:
            assert_recorded(trajectory)

    def test_scenario_matrix_cells(self, audited):
        config = normalize_config(
            {
                "seeds": [1],
                "generators": ["layered:layers=4:width=3"],
                "schedulers": ["mfs", "mfsa"],
                "kernels": ["vector"],
                "styles": [1],
                "libraries": ["datapath"],
                "cs_slack": [2],
            }
        )
        cells = expand_matrix(config)
        assert [cell["scheduler"] for cell in cells] == ["mfs", "mfsa"]
        for cell in cells:
            assert run_scenario(cell)["ok"]
        assert len(audited) == 2
        for trajectory in audited:
            assert_recorded(trajectory)

    def test_serve_verify(self, audited):
        for algorithm, body in (
            ("mfs", mfs_body("ex6")),
            ("mfsa", mfsa_body("ex6", 1)),
        ):
            payload, _perf = execute_spec(
                normalize_spec(algorithm, body, verify=True)
            )
            assert payload["verified"] is True
        assert len(audited) == 2
        for trajectory in audited:
            assert_recorded(trajectory)

    def test_figure1(self, monkeypatch):
        drawn = []
        real_run, real_render = figures._run, figures.render_move

        def run(*args, **kwargs):
            result = real_run(*args, **kwargs)
            drawn.append(result.trajectory)
            return result

        def render(event, grid):
            drawn.append(event)
            return real_render(event, grid)

        monkeypatch.setattr(figures, "_run", run)
        monkeypatch.setattr(figures, "render_move", render)
        figures.figure1("ex3")
        trajectory, event = drawn
        assert_recorded(trajectory)
        assert event.alternatives
        assert len(event.alternatives) == max(
            len(e.alternatives) for e in trajectory
        )
