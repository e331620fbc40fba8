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

from repro.check.report import CheckReport, Violation
from repro.check.schedule import (
    check_frame_containment,
    check_grid_consistency,
    check_schedule_legality,
)
from repro.check.liapunov import check_liapunov_descent, check_time_dominance
from repro.check.allocation import (
    check_datapath_consistency,
    check_netlist_consistency,
)
from repro.check.differential import DifferentialOutcome, cross_validate
from repro.check.kernels import (
    check_kernels_all_examples,
    check_kernels_example,
    check_kernels_random,
    check_mfs_kernels,
    check_mfsa_kernels,
)
from repro.check.runner import (
    check_all_examples,
    check_example,
    check_mfs_result,
    check_mfsa_result,
    check_random_dfgs,
    check_schedule,
)

__all__ = [
    "CheckReport",
    "Violation",
    "check_schedule_legality",
    "check_frame_containment",
    "check_grid_consistency",
    "check_liapunov_descent",
    "check_time_dominance",
    "check_datapath_consistency",
    "check_netlist_consistency",
    "cross_validate",
    "DifferentialOutcome",
    "check_mfs_result",
    "check_mfsa_result",
    "check_mfs_kernels",
    "check_mfsa_kernels",
    "check_kernels_example",
    "check_kernels_all_examples",
    "check_kernels_random",
    "check_schedule",
    "check_example",
    "check_all_examples",
    "check_random_dfgs",
]
