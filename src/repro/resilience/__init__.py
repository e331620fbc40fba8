"""repro.resilience — convergence under perturbation, at the systems level.

The paper's schedulers converge to equilibrium even when perturbed
(local rescheduling, §2.2); this package gives the production layers
around them the same property:

* :mod:`~repro.resilience.faults` — a deterministic, seedable
  fault-injection registry (:class:`FaultPlan`) with named failure
  points compiled into ``repro.serve`` and ``repro.sweep``, replacing
  ad-hoc crash-injection monkeypatching with reproducible chaos tests;
* :mod:`~repro.resilience.journal` — the write-ahead job journal
  (:class:`JobJournal`) that makes ``repro-hls serve`` survive
  ``kill -9`` with every admitted job replayed on restart, audited by
  :func:`audit_journal` through :mod:`repro.check`;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` (capped
  exponential backoff, deterministic full jitter) and
  :class:`CircuitBreaker` for well-behaved clients;
* :mod:`~repro.resilience.checkpoint` — :class:`SweepCheckpoint`,
  item-level resume for interrupted ``explore``/``table1``/``table2``
  sweeps.

See ``docs/ROBUSTNESS.md`` for the operator's guide.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "FAULT_SITES": "faults",
    "FaultPlan": "faults",
    "FaultRule": "faults",
    "InjectedFault": "faults",
    "arm": "faults",
    "active_plan": "faults",
    "fault_point": "faults",
    "JOURNAL_VERSION": "journal",
    "JobJournal": "journal",
    "JournalEntry": "journal",
    "JournalState": "journal",
    "audit_journal": "journal",
    "load_records": "journal",
    "RetryPolicy": "retry",
    "CircuitBreaker": "retry",
    "CircuitOpen": "retry",
    "CHECKPOINT_VERSION": "checkpoint",
    "SweepCheckpoint": "checkpoint",
    "resume_map": "checkpoint",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
