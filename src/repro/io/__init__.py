"""Rendering and export utilities.

* :mod:`repro.io.dot` — Graphviz export of DFGs and schedules;
* :mod:`repro.io.text` — plain-text schedule and datapath tables;
* :mod:`repro.io.gridviz` — Figure-1-style placement-table rendering with
  a Liapunov move trajectory;
* :mod:`repro.io.frameviz` — Figure-2-style rendering of the PF/RF/FF/MF
  frames of one operation.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "dfg_to_dot": "dot",
    "schedule_to_dot": "dot",
    "render_schedule": "text",
    "render_datapath": "text",
    "render_grid": "gridviz",
    "render_move": "gridviz",
    "render_frames": "frameviz",
    "dfg_to_json": "jsonio",
    "dfg_from_json": "jsonio",
    "schedule_to_json": "jsonio",
    "synthesis_to_json": "jsonio",
    "schedule_to_svg": "svg",
    "frames_to_svg": "svg",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
