"""Liapunov-descent replay checker on handcrafted trajectories."""

import dataclasses

from repro.check.liapunov import check_liapunov_descent, check_time_dominance
from repro.core.grid import GridPosition
from repro.core.liapunov import LiapunovWeights
from repro.core.stability import Trajectory

P1 = GridPosition("add", 1, 1)
P2 = GridPosition("add", 1, 2)


def codes(violations):
    return {violation.code for violation in violations}


def test_clean_trajectory_passes():
    t = Trajectory()
    t.record("a", P1, 3.0, alternatives=((P1, 3.0), (P2, 5.0)))
    t.record("a", P1, 2.0, alternatives=((P1, 2.0),))  # descent is fine
    assert check_liapunov_descent(t) == []


def test_empty_alternatives_are_skipped():
    t = Trajectory()
    t.record("a", P1, 3.0)
    assert check_liapunov_descent(t) == []


def test_not_argmin_detected():
    t = Trajectory()
    t.record("a", P2, 5.0, alternatives=((P1, 3.0), (P2, 5.0)))
    assert codes(check_liapunov_descent(t)) == {"liapunov.not-argmin"}


def test_position_not_in_frame_detected():
    t = Trajectory()
    t.record("a", P2, 3.0, alternatives=((P1, 3.0),))
    assert codes(check_liapunov_descent(t)) == {
        "liapunov.position-not-in-frame"
    }


def test_energy_mismatch_detected():
    # Energy below every alternative: not an argmin breach, but the
    # recorded value disagrees with the frame's entry for that position.
    t = Trajectory()
    t.record("a", P1, 2.0, alternatives=((P1, 3.0),))
    assert codes(check_liapunov_descent(t)) == {"liapunov.energy-mismatch"}


def test_ascent_detected():
    t = Trajectory()
    t.record("a", P1, 1.0)
    t.record("a", P2, 2.0)
    assert codes(check_liapunov_descent(t)) == {"liapunov.ascent"}


def test_ascent_across_other_nodes_detected():
    t = Trajectory()
    t.record("a", P1, 1.0)
    t.record("b", P2, 9.0)
    t.record("a", P2, 1.5)
    assert codes(check_liapunov_descent(t)) == {"liapunov.ascent"}


def test_all_breaches_reported_at_once():
    t = Trajectory()
    t.record("a", P2, 5.0, alternatives=((P1, 3.0), (P2, 5.0)))
    t.record("a", P1, 6.0, alternatives=((P1, 6.0),))
    found = codes(check_liapunov_descent(t))
    assert "liapunov.not-argmin" in found
    assert "liapunov.ascent" in found


# ----------------------------------------------------------------------
# MFSA time dominance (§4.1)
# ----------------------------------------------------------------------
def test_commit_at_earliest_step_passes():
    t = Trajectory()
    t.record("a", P1, 3.0, alternatives=((P1, 3.0), (P2, 5.0)))
    t.record("b", P2, 4.0)  # no alternatives: nothing to audit
    assert check_time_dominance(t) == []


def test_forged_later_step_commit_fails():
    # A forged move that took step 2 although its frame offered step 1 —
    # still the argmin of its (forged) energies, so only this audit sees it.
    t = Trajectory()
    t.record("a", P2, 1.0, alternatives=((P1, 3.0), (P2, 1.0)))
    assert check_liapunov_descent(t) == []
    assert codes(check_time_dominance(t)) == {"liapunov.time-dominance"}
    # With time weighted out, a cheaper later step is the correct argmin.
    assert check_time_dominance(t, LiapunovWeights(time=0.0)) == []


def test_mfsa_audit_notes_time_dominance(timing, alu_family):
    from repro.bench.suites import hal_diffeq
    from repro.check import check_mfsa_result
    from repro.core.mfsa import MFSAScheduler

    result = MFSAScheduler(
        hal_diffeq(), timing, alu_family, cs=6, record_alternatives=True
    ).run()
    report = check_mfsa_result(result)
    assert report.ok and not report.notes, report.render()
    # Forge the first move onto the latest step its frame offered, and
    # make that step the frame's cheapest: every descent check still
    # passes, and the breach is a note that fails nothing.
    event = result.trajectory.events[0]
    later = max(event.alternatives, key=lambda item: item[0].y)[0]
    assert later.y > event.position.y
    alternatives = tuple(
        (position, -1.0 if position == later else energy)
        for position, energy in event.alternatives
    )
    result.trajectory.events[0] = dataclasses.replace(
        event, position=later, energy=-1.0, alternatives=alternatives
    )
    report = check_mfsa_result(result)
    assert codes(report.notes) == {"liapunov.time-dominance"}
    assert report.ok, report.render()
    assert "note: [liapunov.time-dominance]" in report.render()


def test_time_weighted_out_verifies(timing, alu_family):
    """``time=0`` prices every step alike, so MFSA takes cheaper later
    steps (style 2 here makes two such moves); ``verify=True`` passes."""
    from repro.bench.suites import hal_diffeq
    from repro.core.mfsa import MFSAScheduler

    weights = LiapunovWeights(time=0.0)
    result = MFSAScheduler(
        hal_diffeq(), timing, alu_family, cs=6, style=2, weights=weights,
        verify=True,
    ).run()
    assert result.weights == weights
    assert len(check_time_dominance(result.trajectory)) == 2
    assert check_time_dominance(result.trajectory, result.weights) == []
