"""repro.scenarios — the seeded workload engine.

The paper's experiments run on six textbook designs; this package turns
the repository's verification and chaos machinery into a *workload
engine* that stress-tests every layer on as many designs as a config
file can describe:

* :mod:`repro.scenarios.generator` — fully seeded random-DFG generation
  from compact, declarative *generator specs* (size, depth/width shape,
  op mix, conditionals, multi-cycle ops, chaining).  Every DFG is a pure
  function of ``(spec, seed)`` and fingerprint-stable across processes.
* :mod:`repro.scenarios.matrix` — a scenario-matrix runner: a TOML/JSON
  config of generator × scheduler × kernel × pipelining axes expands
  into concrete scenarios, runs through :mod:`repro.sweep` with
  checkpoint/resume, audits every result via :mod:`repro.check`, and
  emits a byte-reproducible pass/fail grid artifact.
* :mod:`repro.scenarios.replay` — a traffic replayer that drives a live
  :mod:`repro.serve` instance (sharded or not) with seeded synthetic
  arrival processes while a :mod:`repro.resilience` fault plan fires —
  load and chaos in one deterministic run.
* :mod:`repro.scenarios.shrink` — a delta-debugging reducer that shrinks
  any failing scenario to a minimal DFG reproducer, saved as a corpus
  file.

The ``repro-hls scenarios`` CLI (``run`` / ``replay`` / ``shrink``)
fronts all of it; see ``docs/SCENARIOS.md`` for the walkthrough.
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "GeneratorSpec": "generator",
    "GeneratorSpecError": "generator",
    "generate_dfg": "generator",
    "parse_generator_spec": "generator",
    "scenario_timing": "generator",
    "spec_fingerprint": "generator",
    "MatrixConfigError": "matrix",
    "SYNTHETIC_DEFECTS": "matrix",
    "config_fingerprint": "matrix",
    "expand_matrix": "matrix",
    "failing_results": "matrix",
    "grid_payload": "matrix",
    "load_config": "matrix",
    "normalize_config": "matrix",
    "render_grid": "matrix",
    "run_matrix": "matrix",
    "write_grid": "matrix",
    "ArrivalPattern": "replay",
    "ReplayReport": "replay",
    "arrival_offsets": "replay",
    "parse_arrival_spec": "replay",
    "run_replay": "replay",
    "ShrinkResult": "shrink",
    "load_reproducer": "shrink",
    "save_reproducer": "shrink",
    "shrink_dfg": "shrink",
    "shrink_scenario": "shrink",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
