"""Simulation substrate.

* :mod:`repro.sim.evaluator` — reference (untimed) evaluation of a DFG on
  concrete integer inputs;
* :mod:`repro.sim.executor` — cycle-accurate simulation of a scheduled and
  allocated datapath, used as the functional-equivalence oracle: for any
  valid schedule + binding, the executor must produce exactly the
  evaluator's outputs.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "evaluate_dfg": "evaluator",
    "execute_datapath": "executor",
    "execute_schedule": "executor",
    "verify_equivalence": "executor",
    "ExecutionTrace": "executor",
    "trace_to_vcd": "vcd",
    "write_vcd": "vcd",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
