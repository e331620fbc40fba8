"""Data-flow-graph substrate.

This package provides everything the schedulers consume:

* :mod:`repro.dfg.ops` — operation kinds (``+``, ``*``, comparisons, logic)
  with per-kind latency/delay/commutativity metadata;
* :mod:`repro.dfg.graph` — the :class:`~repro.dfg.graph.DFG` container with
  nodes, edges, primary inputs/outputs and validation;
* :mod:`repro.dfg.builder` — a fluent construction API;
* :mod:`repro.dfg.parser` — a small behavioral language compiled to a DFG;
* :mod:`repro.dfg.analysis` — ASAP/ALAP/mobility/critical-path analyses;
* :mod:`repro.dfg.transforms` — conditional merging, loop folding, etc.;
* :mod:`repro.dfg.pipeline` — structural/functional pipelining transforms;
* :mod:`repro.dfg.generators` — random DFGs for property testing.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "OpKind": "ops",
    "OpSpec": "ops",
    "OperationSet": "ops",
    "standard_operation_set": "ops",
    "DFG": "graph",
    "Node": "graph",
    "Port": "graph",
    "DFGBuilder": "builder",
    "parse_behavior": "parser",
    "TimingModel": "analysis",
    "asap_schedule": "analysis",
    "alap_schedule": "analysis",
    "critical_path_length": "analysis",
    "mobilities": "analysis",
    "type_concurrency": "analysis",
    "constant_fold": "optimize",
    "eliminate_dead_code": "optimize",
    "balance_tree": "optimize",
    "merge_conditional_shared_ops": "transforms",
    "common_subexpression_elimination": "transforms",
    "add_loop_control": "transforms",
    "LoopFolder": "transforms",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
