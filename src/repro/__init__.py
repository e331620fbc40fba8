"""repro — Move Frame Scheduling & Mixed Scheduling-Allocation.

A production-quality reproduction of

    M. Nourani and C. Papachristou, "Move Frame Scheduling and Mixed
    Scheduling-Allocation for the Automated Synthesis of Digital
    Systems", DAC 1992.

Public API highlights
---------------------
* :class:`~repro.dfg.builder.DFGBuilder` / :class:`~repro.dfg.graph.DFG` —
  build behavioral data-flow graphs (or parse them with
  :func:`~repro.dfg.parser.parse_behavior`);
* :func:`~repro.core.mfs.mfs_schedule` — Move Frame Scheduling under time
  or resource constraints, with chaining, multi-cycle operations, mutual
  exclusion, structural and functional pipelining;
* :func:`~repro.core.mfsa.mfsa_synthesize` — simultaneous scheduling and
  allocation of ALUs, registers and multiplexers against a cell library;
* :mod:`repro.schedule` — ASAP/ALAP, list, force-directed and exact
  baseline schedulers;
* :mod:`repro.allocation` — left-edge register allocation, mux input
  optimisation, datapath construction;
* :mod:`repro.rtl` — FSM controller and structural Verilog emission;
* :mod:`repro.sim` — reference evaluation and cycle-accurate datapath
  simulation (functional-equivalence oracle);
* :mod:`repro.bench` — the paper's six design examples and the Table-1 /
  Table-2 / Figure-1 / Figure-2 regeneration harnesses.
"""

import importlib
import importlib.util
import sys
from typing import Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _lazy_package(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """A package's PEP 562 ``__getattr__`` and ``__dir__``.

    ``exports`` maps each public name to the submodule of ``package``
    that defines it.  A name is imported on first access and then bound
    in the package, so later lookups never reach ``__getattr__``; any
    other name resolves to the submodule of that name, so
    ``repro.core.mfsa`` works after a bare ``import repro``.  Importing
    a package therefore loads none of its submodules, and a process
    loads only what it touches.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name in exports:
            module = importlib.import_module(f"{package}.{exports[name]}")
            value = getattr(module, name)
        # Tools probe dunders (``__wrapped__``, ``__test__``); none is a
        # submodule to import, and ``repro.__main__`` runs the CLI.
        elif not name.startswith("__") and importlib.util.find_spec(
            f"{package}.{name}"
        ):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


#: Public name -> the subpackage (or module) that exports it.
_EXPORTS = {
    # errors
    "ReproError": "errors",
    "DFGError": "errors",
    "ScheduleError": "errors",
    "InfeasibleScheduleError": "errors",
    "AllocationError": "errors",
    "LibraryError": "errors",
    "StabilityError": "errors",
    "SimulationError": "errors",
    # dfg
    "DFG": "dfg",
    "DFGBuilder": "dfg",
    "OpKind": "dfg",
    "OpSpec": "dfg",
    "OperationSet": "dfg",
    "TimingModel": "dfg",
    "standard_operation_set": "dfg",
    "parse_behavior": "dfg",
    "critical_path_length": "dfg",
    "constant_fold": "dfg",
    "eliminate_dead_code": "dfg",
    "balance_tree": "dfg",
    "merge_conditional_shared_ops": "dfg",
    "common_subexpression_elimination": "dfg",
    "add_loop_control": "dfg",
    "LoopFolder": "dfg",
    # library
    "ALUCell": "library",
    "CellLibrary": "library",
    "MuxCostTable": "library",
    "ncr_like_library": "library",
    "simple_fu_library": "library",
    # schedules
    "Schedule": "schedule",
    "schedule_asap": "schedule",
    "schedule_alap": "schedule",
    "list_schedule_resource_constrained": "schedule",
    "list_schedule_time_constrained": "schedule",
    "force_directed_schedule": "schedule",
    "exact_schedule": "schedule",
    "annealing_schedule": "schedule",
    # core
    "GridPosition": "core",
    "PlacementGrid": "core",
    "TimeConstrainedLiapunov": "core",
    "ResourceConstrainedLiapunov": "core",
    "LiapunovWeights": "core",
    "Trajectory": "core",
    "MFSScheduler": "core",
    "MFSResult": "core",
    "mfs_schedule": "core",
    "MFSAScheduler": "core",
    "MFSAResult": "core",
    "mfsa_synthesize": "core",
    # allocation
    "Datapath": "allocation",
    "bind_functional_units": "allocation",
    "left_edge_allocate": "allocation",
    "value_lifetimes": "allocation",
    "verify_datapath": "allocation",
    "compare_interconnect_styles": "allocation",
    # exploration
    "design_space": "explore",
    "pareto_front": "explore",
    "knee_point": "explore",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
