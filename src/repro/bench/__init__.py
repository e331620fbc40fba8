"""Benchmark workloads and the paper's table/figure regeneration harnesses.

* :mod:`repro.bench.suites` — the six design examples of §6 (or documented
  surrogates, see DESIGN.md) plus extra workloads;
* :mod:`repro.bench.table1` — regenerates Table 1 (MFS FU mixes per time
  constraint);
* :mod:`repro.bench.table2` — regenerates Table 2 (MFSA RTL structures,
  styles 1 and 2);
* :mod:`repro.bench.figures` — regenerates Figures 1 and 2 as ASCII
  renderings of real algorithm state;
* :mod:`repro.bench.baselines` — quality comparison harness against the
  list / force-directed / exact schedulers (§6's literature comparison).
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "EXAMPLES": "suites",
    "ExampleSpec": "suites",
    "Table1Case": "suites",
    "facet_like": "suites",
    "chained_addsub": "suites",
    "hal_diffeq": "suites",
    "iir_bandpass": "suites",
    "ar_lattice": "suites",
    "ewf": "suites",
    "fir16": "suites",
    "conditional_example": "suites",
    "Table1Row": "table1",
    "table1_rows": "table1",
    "render_table1": "table1",
    "Table2Row": "table2",
    "table2_rows": "table2",
    "render_table2": "table2",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
