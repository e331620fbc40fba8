"""RTL back-end: netlist construction, FSM control path, Verilog emission.

The paper's flow ends in "an RTL structure" plus a control path (§1);
this package materialises both from a :class:`~repro.allocation.datapath.
Datapath`:

* :mod:`repro.rtl.netlist` — structural netlist (ALUs, registers, muxes,
  ports, nets);
* :mod:`repro.rtl.controller` — one-state-per-control-step FSM with mux
  select and register load-enable tables;
* :mod:`repro.rtl.verilog` — structural Verilog emission;
* :mod:`repro.rtl.cost` — area roll-up including a controller estimate.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Netlist": "netlist",
    "build_netlist": "netlist",
    "Controller": "controller",
    "build_controller": "controller",
    "emit_verilog": "verilog",
    "emit_structural_verilog": "structural",
    "emit_testbench": "testbench",
    "total_area": "cost",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
