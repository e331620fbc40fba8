"""repro.check — cross-cutting invariant auditing (the paper's §2.2 claim,
made machine-checkable).

The paper's whole argument is a *stability* claim: every MFS/MFSA move
keeps the partial design inside the feasible region while monotonically
decreasing the Liapunov energy.  This package audits finished runs
against that claim end to end:

* **schedule legality** — data-dependence ordering, ASAP/ALAP
  containment, grid-occupancy consistency (folded functional-pipelining
  steps included), chaining delay within the clock period;
* **Liapunov descent** — the replayed trajectory is monotone and every
  placement was the minimum-energy move-frame position; an MFSA commit
  after its earliest candidate step is noted (§4.1 time dominance, a
  premise the shipped mux table does not guarantee, so no failure);
* **allocation consistency** — register lifetimes non-overlapping per
  register, mux/bus wiring matches the binding, the RTL netlist
  references only declared resources;
* **differential cross-validation** — results compared against the
  list / force-directed / exact baseline schedulers;
* **walk cross-validation** — MFS's numpy vector walk audited as
  byte-identical to the scalar reference (schedules, trajectories, every
  perf counter), and MFSA's bounded default run as rendering its
  recorded whole-frame run's bytes and moves, on the paper examples and
  random workloads (``repro check --kernels``).

Entry points: :func:`check_mfs_result` / :func:`check_mfsa_result` for
one run, :func:`check_schedule` for a bare schedule,
:func:`check_all_examples` / :func:`check_random_dfgs` for the harness
behind ``repro check``.  Schedulers expose the same audit as an opt-in
post-condition (``verify=True``).
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CheckReport": "report",
    "Violation": "report",
    "check_schedule_legality": "schedule",
    "check_frame_containment": "schedule",
    "check_grid_consistency": "schedule",
    "check_liapunov_descent": "liapunov",
    "check_time_dominance": "liapunov",
    "check_datapath_consistency": "allocation",
    "check_netlist_consistency": "allocation",
    "cross_validate": "differential",
    "DifferentialOutcome": "differential",
    "check_mfs_result": "runner",
    "check_mfsa_result": "runner",
    "check_mfs_kernels": "kernels",
    "check_mfsa_kernels": "kernels",
    "check_kernels_example": "kernels",
    "check_kernels_all_examples": "kernels",
    "check_kernels_random": "kernels",
    "check_schedule": "runner",
    "check_example": "runner",
    "check_all_examples": "runner",
    "check_random_dfgs": "runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
