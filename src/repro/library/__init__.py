"""Cell-library substrate: ALU / register / multiplexer cost models.

The paper costs RTL structures in µm² against the NCR ASIC data book
(ref. [21]), which is proprietary; :mod:`repro.library.ncr` provides a
synthetic library of the same shape (see DESIGN.md, substitutions).
"""

from repro import _lazy_package

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ALUCell": "cells",
    "CellLibrary": "cells",
    "MuxCostTable": "cells",
    "ncr_like_library": "ncr",
    "simple_fu_library": "ncr",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_package(__name__, _EXPORTS)
