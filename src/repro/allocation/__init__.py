"""Datapath allocation substrate: lifetimes, registers, muxes, binding.

* :mod:`repro.allocation.lifetimes` — value life-span analysis over a
  schedule (chaining-aware);
* :mod:`repro.allocation.registers` — left-edge / activity-selection
  register allocation (§5.8, paper ref. [19]);
* :mod:`repro.allocation.mux` — multiplexer input-list minimisation with
  commutative operand swapping (§5.6);
* :mod:`repro.allocation.interconnect` — source-line sharing (§5.7);
* :mod:`repro.allocation.binding` — FU binding for plain MFS schedules;
* :mod:`repro.allocation.datapath` — the RTL-level datapath structure and
  its cost roll-up.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BusAllocation": "buses",
    "allocate_buses": "buses",
    "compare_interconnect_styles": "buses",
    "verify_datapath": "verify",
    "Lifetime": "lifetimes",
    "value_lifetimes": "lifetimes",
    "RegisterAllocation": "registers",
    "left_edge_allocate": "registers",
    "MuxAssignment": "mux",
    "optimize_mux_inputs": "mux",
    "bind_functional_units": "binding",
    "ALUInstance": "datapath",
    "Datapath": "datapath",
    "CostBreakdown": "datapath",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
