"""Scenario-matrix runner: config → scenarios → sweep → pass/fail grid.

A *matrix config* is a small declarative document (TOML on 3.11+, JSON
everywhere) whose axes multiply out into concrete scenarios::

    [matrix]
    name = "smoke"
    seeds = [1, 2, 3]
    generators = ["random:ops=16:cond=1", "layered:layers=4:width=3"]
    schedulers = ["mfs", "mfsa", "list", "fds"]
    kernels = ["scalar"]
    styles = [1]
    libraries = ["datapath"]
    cs_slack = [2]
    pipelined = [false]
    defects = []

Axes that only exist for some schedulers (``kernels`` for MFS/MFSA,
``styles``/``libraries`` for MFSA, ``pipelined`` for MFS/MFSA) are
*collapsed* for the others instead of multiplying into duplicates, and
the expansion is deduplicated by scenario id — so a config never runs
the same work twice.

Every scenario runs :func:`_scenario_worker` (module-level, picklable —
the :class:`~repro.sweep.SweepExecutor` contract) which generates the
DFG, schedules it, audits the result through :mod:`repro.check`, and
applies any *synthetic defect* predicate.  Results are recorded item by
item into a :class:`~repro.resilience.checkpoint.SweepCheckpoint` keyed
by the :func:`config_fingerprint`, so an interrupted matrix resumes at
scenario granularity and a changed config can never reuse stale rows.

Determinism contract: :func:`grid_payload` (what :func:`write_grid`
serialises) contains **no wall-clock data** — same config + seeds →
byte-identical grid artifact across runs, machines and process counts
(wall-clock timings stay available on the in-memory run dict).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.check import check_mfs_result, check_mfsa_result, check_schedule
from repro.dfg.analysis import critical_path_length
from repro.dfg.fingerprint import dfg_fingerprint, sha256_of
from repro.dfg.graph import DFG
from repro.resilience.checkpoint import SweepCheckpoint, resume_map
from repro.scenarios.generator import (
    GeneratorSpecError,
    generate_dfg,
    parse_generator_spec,
    scenario_timing,
)
from repro.sweep import SweepExecutor

try:  # Python 3.11+; the JSON path below covers older interpreters.
    import tomllib as _tomllib
except ImportError:  # pragma: no cover - version-dependent
    _tomllib = None

#: Grid artifact format version.
GRID_VERSION = 1

#: Scheduler axis values and the capabilities that gate the other axes.
SCHEDULERS = ("mfs", "mfsa", "list", "fds")
_KERNEL_SCHEDULERS = frozenset({"mfs", "mfsa"})
_STYLE_SCHEDULERS = frozenset({"mfsa"})

#: Cell-library axis values (MFSA only).
LIBRARIES = ("ncr", "datapath")


class MatrixConfigError(ValueError):
    """A matrix config that cannot be expanded."""


# ---------------------------------------------------------------------------
# Synthetic defects — deliberately-injected failures for shrink tests / CI.
# Each predicate is a pure function of the DFG, so a failing scenario can be
# re-evaluated on every reduction candidate during shrinking.
# ---------------------------------------------------------------------------
def _defect_mul_chain(dfg: DFG) -> List[str]:
    """Fails when a multiplier directly feeds a multiplier.

    Models a scheduler bug triggered by back-to-back multi-cycle ops;
    the minimal reproducer is two chained ``mul`` nodes.
    """
    violations: List[str] = []
    for node in dfg:
        if node.kind != "mul":
            continue
        for pred in node.predecessor_names():
            if dfg.node(pred).kind == "mul":
                violations.append(
                    f"synthetic defect mul-chain: {pred} -> {node.name}"
                )
    return violations


def _defect_fanout4(dfg: DFG) -> List[str]:
    """Fails when any value fans out to four or more consumers."""
    violations: List[str] = []
    for node in dfg:
        consumers = dfg.successors(node.name)
        if len(consumers) >= 4:
            violations.append(
                f"synthetic defect fanout4: {node.name} feeds "
                f"{len(consumers)} ops"
            )
    return violations


#: name → pure DFG predicate returning violation strings (empty = pass).
SYNTHETIC_DEFECTS: Mapping[str, Callable[[DFG], List[str]]] = {
    "mul-chain": _defect_mul_chain,
    "fanout4": _defect_fanout4,
}


# ---------------------------------------------------------------------------
# Config loading / normalisation
# ---------------------------------------------------------------------------
_AXIS_DEFAULTS: Mapping[str, Tuple[Any, ...]] = {
    "seeds": (1,),
    "generators": ("random:ops=16",),
    "schedulers": ("mfs",),
    "kernels": ("scalar",),
    "styles": (1,),
    "libraries": ("datapath",),
    "cs_slack": (2,),
    "pipelined": (False,),
    "defects": (),
}


def normalize_config(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate and canonicalise a matrix config mapping.

    Accepts either the table itself or a document with a ``[matrix]``
    table; fills defaults, type-checks every axis, and rejects unknown
    keys, scheduler names, libraries, defects and unparsable generator
    specs — *before* any scenario runs.
    """
    if not isinstance(raw, Mapping):
        raise MatrixConfigError("matrix config must be a mapping")
    table = raw.get("matrix", raw)
    if not isinstance(table, Mapping):
        raise MatrixConfigError("[matrix] must be a table")

    config: Dict[str, Any] = {"name": str(table.get("name", "matrix"))}
    unknown = set(table) - set(_AXIS_DEFAULTS) - {"name"}
    if unknown:
        raise MatrixConfigError(
            f"unknown matrix key(s): {', '.join(sorted(unknown))}"
        )
    for axis, default in _AXIS_DEFAULTS.items():
        values = table.get(axis, list(default))
        if isinstance(values, (str, bytes)) or not isinstance(
            values, Sequence
        ):
            raise MatrixConfigError(f"{axis} must be a list")
        config[axis] = list(values)

    if not config["seeds"] or not all(
        isinstance(seed, int) and not isinstance(seed, bool)
        for seed in config["seeds"]
    ):
        raise MatrixConfigError("seeds must be a non-empty list of integers")
    if not config["generators"]:
        raise MatrixConfigError("generators must be non-empty")
    for spec in config["generators"]:
        try:
            parse_generator_spec(spec)
        except GeneratorSpecError as error:
            raise MatrixConfigError(
                f"bad generator spec {spec!r}: {error}"
            ) from None
    for scheduler in config["schedulers"]:
        if scheduler not in SCHEDULERS:
            raise MatrixConfigError(
                f"unknown scheduler {scheduler!r} (expected {SCHEDULERS})"
            )
    if not config["schedulers"]:
        raise MatrixConfigError("schedulers must be non-empty")
    for kernel in config["kernels"]:
        if kernel not in ("scalar", "vector", "auto"):
            raise MatrixConfigError(f"unknown kernel {kernel!r}")
    for style in config["styles"]:
        if style not in (1, 2):
            raise MatrixConfigError(f"style must be 1 or 2, got {style!r}")
    for library in config["libraries"]:
        if library not in LIBRARIES:
            raise MatrixConfigError(
                f"unknown library {library!r} (expected one of {LIBRARIES})"
            )
    for slack in config["cs_slack"]:
        if not isinstance(slack, int) or isinstance(slack, bool) or slack < 0:
            raise MatrixConfigError("cs_slack values must be integers >= 0")
    for flag in config["pipelined"]:
        if not isinstance(flag, bool):
            raise MatrixConfigError("pipelined values must be booleans")
    for defect in config["defects"]:
        if defect not in SYNTHETIC_DEFECTS:
            raise MatrixConfigError(
                f"unknown defect {defect!r} "
                f"(expected one of {tuple(SYNTHETIC_DEFECTS)})"
            )
    return config


def load_config(path: str) -> Dict[str, Any]:
    """Load a matrix config from a ``.toml`` or ``.json`` file.

    TOML needs :mod:`tomllib` (Python 3.11+); on older interpreters use
    JSON, which is always supported.
    """
    text = open(path, "rb").read()
    if str(path).endswith(".toml"):
        if _tomllib is None:
            raise MatrixConfigError(
                "TOML configs need Python 3.11+ (tomllib); "
                "use a .json config on this interpreter"
            )
        try:
            raw = _tomllib.loads(text.decode("utf-8"))
        except _tomllib.TOMLDecodeError as error:
            raise MatrixConfigError(f"bad TOML in {path}: {error}") from None
    else:
        try:
            raw = json.loads(text.decode("utf-8"))
        except json.JSONDecodeError as error:
            raise MatrixConfigError(f"bad JSON in {path}: {error}") from None
    return normalize_config(raw)


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Content address of a normalised matrix config (sha256 hex)."""
    return sha256_of({"format": "repro-scenario-matrix", "config": dict(config)})


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------
def _scenario_id(params: Mapping[str, Any]) -> str:
    return sha256_of({"format": "repro-scenario", "params": dict(params)})[:12]


def expand_matrix(config: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Expand a normalised config into concrete scenario dicts.

    Deterministic order (axis nesting order is fixed), capability-gated
    axes collapsed, duplicates dropped by id.
    """
    scenarios: List[Dict[str, Any]] = []
    seen: set = set()
    defects = list(config["defects"]) or [""]
    for generator in config["generators"]:
        for seed in config["seeds"]:
            for scheduler in config["schedulers"]:
                kernels = (
                    config["kernels"]
                    if scheduler in _KERNEL_SCHEDULERS
                    else ["scalar"]
                )
                styles = (
                    config["styles"] if scheduler in _STYLE_SCHEDULERS else [0]
                )
                libraries = (
                    config["libraries"]
                    if scheduler in _STYLE_SCHEDULERS
                    else [""]
                )
                pipe_flags = (
                    config["pipelined"]
                    if scheduler in _KERNEL_SCHEDULERS
                    else [False]
                )
                for kernel in kernels:
                    for style in styles:
                        for library in libraries:
                            for slack in config["cs_slack"]:
                                for pipelined in pipe_flags:
                                    for defect in defects:
                                        params = {
                                            "generator": generator,
                                            "seed": int(seed),
                                            "scheduler": scheduler,
                                            "kernel": kernel,
                                            "style": style,
                                            "library": library,
                                            "cs_slack": int(slack),
                                            "pipelined": bool(pipelined),
                                            "defect": defect,
                                        }
                                        sid = _scenario_id(params)
                                        if sid in seen:
                                            continue
                                        seen.add(sid)
                                        scenarios.append(
                                            dict(params, id=sid)
                                        )
    return scenarios


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def _build_library(name: str):
    from repro.library.ncr import datapath_library, ncr_like_library

    if name == "datapath":
        return datapath_library()
    return ncr_like_library()


def run_scenario(
    scenario: Mapping[str, Any], dfg: Optional[DFG] = None
) -> Dict[str, Any]:
    """Generate, schedule, audit and defect-check one scenario.

    Pure function of the scenario dict; never raises — scheduler errors
    become violations so one infeasible cell cannot sink a matrix.
    ``dfg`` substitutes a prebuilt graph for the generated one — the
    shrinker uses this to re-run a scenario on reduction candidates.
    """
    started = time.perf_counter()
    spec = parse_generator_spec(scenario["generator"])
    if dfg is None:
        dfg = generate_dfg(spec, scenario["seed"])
    timing = scenario_timing(spec)
    cs = critical_path_length(dfg, timing) + int(scenario["cs_slack"])
    pipelined_kinds = ("mul",) if scenario.get("pipelined") else ()

    violations: List[str] = []
    makespan = 0
    try:
        scheduler = scenario["scheduler"]
        if scheduler == "mfs":
            from repro.core.mfs import MFSScheduler

            result = MFSScheduler(
                dfg,
                timing,
                cs=cs,
                kernel=scenario.get("kernel", "scalar"),
                pipelined_kinds=pipelined_kinds,
                record_alternatives=True,
            ).run()
            report = check_mfs_result(result)
            makespan = result.schedule.makespan()
        elif scheduler == "mfsa":
            from repro.core.mfsa import MFSAScheduler

            result = MFSAScheduler(
                dfg,
                timing,
                _build_library(scenario.get("library") or "datapath"),
                cs,
                style=scenario.get("style") or 1,
                kernel=scenario.get("kernel", "scalar"),
                pipelined_kinds=pipelined_kinds,
                record_alternatives=True,
            ).run()
            report = check_mfsa_result(result)
            makespan = result.schedule.makespan()
        elif scheduler == "list":
            from repro.schedule import list_schedule_time_constrained

            schedule = list_schedule_time_constrained(dfg, timing, cs)
            report = check_schedule(schedule)
            makespan = schedule.makespan()
        elif scheduler == "fds":
            from repro.schedule import force_directed_schedule

            schedule = force_directed_schedule(dfg, timing, cs)
            report = check_schedule(schedule)
            makespan = schedule.makespan()
        else:  # pragma: no cover - normalize_config rejects these
            raise MatrixConfigError(
                f"unknown scheduler {scenario['scheduler']!r}"
            )
        violations.extend(str(v) for v in report.violations)
    except Exception as error:  # scheduler blew up: that IS the finding
        violations.append(f"exception: {type(error).__name__}: {error}")

    defect = scenario.get("defect") or ""
    if defect:
        violations.extend(SYNTHETIC_DEFECTS[defect](dfg))

    return {
        "id": scenario["id"],
        "fingerprint": dfg_fingerprint(dfg),
        "n_ops": len(dfg),
        "cs": cs,
        "makespan": makespan,
        "ok": not violations,
        "violations": sorted(violations),
        "seconds": time.perf_counter() - started,
    }


def _scenario_worker(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Module-level worker (picklable) for the process-pool sweep."""
    return run_scenario(scenario)


def _strip_timing(result: Mapping[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in result.items() if k != "seconds"}


def run_matrix(
    config: Mapping[str, Any],
    backend: str = "auto",
    workers: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    perf=None,
    keep_pool: bool = False,
) -> Dict[str, Any]:
    """Expand and execute a matrix; return the full run dict.

    The run dict carries the normalised config, its fingerprint, the
    expanded scenarios and one result per scenario (in expansion order).
    With ``checkpoint_path``, completed scenarios are durably recorded
    and an interrupted run resumes where it stopped — keyed on the
    config fingerprint, so a changed config starts fresh.
    """
    config = normalize_config(config)
    scenarios = expand_matrix(config)
    fingerprint = config_fingerprint(config)
    ckpt = (
        SweepCheckpoint(checkpoint_path, meta={"config": fingerprint})
        if checkpoint_path
        else None
    )
    try:
        with SweepExecutor(
            backend=backend, workers=workers, perf=perf, keep_pool=keep_pool
        ) as executor:
            results = resume_map(
                executor,
                _scenario_worker,
                scenarios,
                ckpt,
                key_fn=lambda scenario: scenario["id"],
                # Checkpointed rows must replay byte-identically, so the
                # wall-clock field never enters the checkpoint.
                encode=_strip_timing,
                decode=lambda value: dict(value, seconds=0.0),
            )
    finally:
        if ckpt is not None:
            ckpt.close()
    return {
        "name": config["name"],
        "config": config,
        "config_fingerprint": fingerprint,
        "scenarios": scenarios,
        "results": results,
    }


# ---------------------------------------------------------------------------
# Grid artifact
# ---------------------------------------------------------------------------
def failing_results(run: Mapping[str, Any]) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """(scenario, result) pairs for every failing cell, in grid order."""
    return [
        (scenario, result)
        for scenario, result in zip(run["scenarios"], run["results"])
        if not result["ok"]
    ]


def grid_payload(run: Mapping[str, Any]) -> Dict[str, Any]:
    """The deterministic pass/fail grid (no wall-clock data).

    Byte-reproducible: same config + seeds → the same payload on any
    machine, any backend, any worker count.
    """
    results = [_strip_timing(result) for result in run["results"]]
    return {
        "format": "repro-scenario-grid",
        "version": GRID_VERSION,
        "name": run["name"],
        "config_fingerprint": run["config_fingerprint"],
        "total": len(results),
        "passed": sum(1 for r in results if r["ok"]),
        "failed": sum(1 for r in results if not r["ok"]),
        "scenarios": run["scenarios"],
        "results": results,
    }


def write_grid(run: Mapping[str, Any], path: str) -> Dict[str, Any]:
    """Serialise :func:`grid_payload` to ``path`` (sorted keys, LF)."""
    payload = grid_payload(run)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def render_grid(run: Mapping[str, Any]) -> str:
    """Human-readable pass/fail table for terminal output."""
    lines = [
        f"scenario matrix {run['name']!r} "
        f"({run['config_fingerprint'][:12]}): "
        f"{len(run['results'])} scenarios"
    ]
    header = (
        f"{'id':<14}{'scheduler':<10}{'kern':<7}{'seed':<6}"
        f"{'ops':<5}{'cs':<4}{'result'}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for scenario, result in zip(run["scenarios"], run["results"]):
        status = "ok" if result["ok"] else (
            "FAIL: " + "; ".join(result["violations"])[:60]
        )
        lines.append(
            f"{scenario['id']:<14}{scenario['scheduler']:<10}"
            f"{scenario['kernel']:<7}{scenario['seed']:<6}"
            f"{result['n_ops']:<5}{result['cs']:<4}{status}"
        )
    passed = sum(1 for r in run["results"] if r["ok"])
    lines.append(
        f"{passed}/{len(run['results'])} passed, "
        f"{len(run['results']) - passed} failed"
    )
    return "\n".join(lines)
