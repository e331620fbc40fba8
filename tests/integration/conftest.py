"""Integration-suite fixtures: every MFS/MFSA run is audited for free.

The autouse fixture below wraps the schedulers' ``run`` methods so each
result produced anywhere in an integration test — golden tables, end to
end synthesis, the full example matrix — is pushed through the
:mod:`repro.check` invariant audit (schedule legality, frame
containment, grid-occupancy consistency, Liapunov descent, and for MFSA
datapath/netlist consistency).  The differential cross-validation is
left off here: it reruns three baseline schedulers per result, which
the ``repro check`` CLI and the property suite cover already.

Move-frame alternatives are off by default, and the §2.2 argmin audit
skips an event without them, so the wrapper turns recording on before
the real ``run`` and refuses a trajectory with an empty event: the
audit can never pass for want of something to compare.  A test marked
``default_options`` pins what program callers run instead: the wrapper
leaves recording off, refuses a trajectory with a recorded event, and
audits everything but the argmin.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "default_options: run the schedulers without move-frame "
        "alternatives under the audit, as program callers do",
    )


def _check_recording(result, recorded: bool) -> None:
    for event in result.trajectory:
        assert bool(event.alternatives) == recorded, (
            f"iteration {event.iteration} ({event.node!r}) recorded "
            f"{len(event.alternatives)} move-frame alternatives; the run "
            f"should record {'them' if recorded else 'none'}"
        )


@pytest.fixture(autouse=True)
def _audit_every_run(request, monkeypatch):
    from repro.check.runner import check_mfs_result, check_mfsa_result
    from repro.core.mfs import MFSScheduler
    from repro.core.mfsa import MFSAScheduler

    real_mfs_run = MFSScheduler.run
    real_mfsa_run = MFSAScheduler.run
    recorded = request.node.get_closest_marker("default_options") is None

    def mfs_run(self):
        self.record_alternatives = self.record_alternatives or recorded
        result = real_mfs_run(self)
        _check_recording(result, recorded)
        check_mfs_result(
            result,
            resource_bounds=(
                self.user_bounds if self.mode == "resource" else None
            ),
        ).raise_if_failed()
        return result

    def mfsa_run(self):
        self.record_alternatives = self.record_alternatives or recorded
        result = real_mfsa_run(self)
        _check_recording(result, recorded)
        check_mfsa_result(result).raise_if_failed()
        return result

    monkeypatch.setattr(MFSScheduler, "run", mfs_run)
    monkeypatch.setattr(MFSAScheduler, "run", mfsa_run)
