"""Schedule representation and baseline scheduling algorithms.

The package hosts the *substrate* schedulers the paper compares against or
builds upon:

* :mod:`repro.schedule.types` — the :class:`~repro.schedule.types.Schedule`
  value object and its validator;
* :mod:`repro.schedule.asap_alap` — trivial ASAP/ALAP schedulers;
* :mod:`repro.schedule.list_scheduler` — resource- and time-constrained
  list scheduling (the classic baseline, paper ref. [4]);
* :mod:`repro.schedule.force_directed` — force-directed scheduling
  (HAL, paper ref. [6]);
* :mod:`repro.schedule.exact` — branch-and-bound optimal scheduler for
  small graphs (stand-in for the ILP formulations, paper refs. [9-11]).
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Schedule": "types",
    "schedule_asap": "asap_alap",
    "schedule_alap": "asap_alap",
    "list_schedule_resource_constrained": "list_scheduler",
    "list_schedule_time_constrained": "list_scheduler",
    "force_directed_schedule": "force_directed",
    "exact_schedule": "exact",
    "annealing_schedule": "annealing",
    "ScheduleDiff": "compare",
    "diff_schedules": "compare",
    "render_diff": "compare",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
