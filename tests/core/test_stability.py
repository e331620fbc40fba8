"""Tests for trajectory recording and Liapunov verification."""

import pytest

from repro.core.grid import GridPosition
from repro.core.stability import Trajectory
from repro.errors import StabilityError


def pos(x, y):
    return GridPosition("t", x, y)


def assert_audited(trajectory):
    """Verify a scheduler's trajectory, with a frame list on every
    event for the argmin check to read."""
    assert all(event.alternatives for event in trajectory)
    trajectory.verify()


class TestRecording:
    def test_events_accumulate(self):
        trajectory = Trajectory()
        trajectory.record("a", pos(1, 1), 3.0)
        trajectory.record("b", pos(1, 2), 5.0)
        assert len(trajectory) == 2
        assert [e.node for e in trajectory] == ["a", "b"]
        assert trajectory.events[0].iteration == 0
        assert trajectory.events[1].iteration == 1

    def test_events_for_node(self):
        trajectory = Trajectory()
        trajectory.record("a", pos(1, 1), 3.0)
        trajectory.record("b", pos(1, 2), 5.0)
        trajectory.record("a", pos(1, 1), 2.0)
        assert len(trajectory.events_for("a")) == 2

    def test_final_positions(self):
        trajectory = Trajectory()
        trajectory.record("a", pos(1, 3), 5.0)
        trajectory.record("a", pos(1, 1), 2.0)
        assert trajectory.final_positions() == {"a": pos(1, 1)}

    def test_total_energy_uses_final_values(self):
        trajectory = Trajectory()
        trajectory.record("a", pos(1, 3), 5.0)
        trajectory.record("b", pos(1, 1), 2.0)
        trajectory.record("a", pos(1, 2), 4.0)
        assert trajectory.total_energy() == 6.0


class TestVerification:
    def test_minimal_choice_passes(self):
        trajectory = Trajectory()
        trajectory.record(
            "a",
            pos(1, 1),
            3.0,
            alternatives=((pos(1, 1), 3.0), (pos(2, 1), 4.0)),
        )
        trajectory.verify()

    def test_suboptimal_choice_fails(self):
        trajectory = Trajectory()
        trajectory.record(
            "a",
            pos(2, 1),
            4.0,
            alternatives=((pos(1, 1), 3.0), (pos(2, 1), 4.0)),
        )
        with pytest.raises(StabilityError, match="available"):
            trajectory.verify()

    def test_monotone_decrease_per_node(self):
        trajectory = Trajectory()
        trajectory.record("a", pos(1, 3), 5.0)
        trajectory.record("a", pos(1, 1), 2.0)
        trajectory.verify()

    def test_energy_increase_fails(self):
        trajectory = Trajectory()
        trajectory.record("a", pos(1, 1), 2.0)
        trajectory.record("a", pos(1, 3), 5.0)
        with pytest.raises(StabilityError, match="increased"):
            trajectory.verify()

    def test_tolerance_absorbs_float_noise(self):
        trajectory = Trajectory()
        trajectory.record("a", pos(1, 1), 2.0)
        trajectory.record("a", pos(1, 1), 2.0 + 1e-12)
        trajectory.verify()


class TestSchedulerIntegration:
    def test_mfs_trajectories_always_verify(self, timing):
        from repro.core.mfs import MFSScheduler
        from repro.dfg.generators import random_dfg

        from repro.dfg.analysis import critical_path_length

        for seed in range(6):
            g = random_dfg(seed=seed, n_ops=25)
            cs = critical_path_length(g, timing) + 2
            result = MFSScheduler(
                g, timing, cs=cs, mode="time", record_alternatives=True
            ).run()
            assert_audited(result.trajectory)
            assert len(result.trajectory) == len(g)

    def test_mfsa_trajectories_always_verify(self, timing, alu_family):
        from repro.core.mfsa import MFSAScheduler
        from repro.bench.suites import hal_diffeq

        result = MFSAScheduler(
            hal_diffeq(), timing, alu_family, cs=6, record_alternatives=True
        ).run()
        assert_audited(result.trajectory)
