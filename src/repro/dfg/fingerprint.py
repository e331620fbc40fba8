"""Canonical DFG fingerprinting — the content address of a design.

The serving layer (:mod:`repro.serve`) deduplicates synthesis work by
content: two requests for the *same* computation must hash to the same
cache key even when the client renamed every node or rebuilt the graph
in a different insertion order.  :func:`dfg_fingerprint` provides that
key: a sha256 over a *topologically normalised* encoding of the graph in
which every operation node is identified purely by its structure —
operation kind, operand structure (recursively), and branch path — never
by its name.

Normalisation rules:

* **node names are erased** — a node's identity is the Merkle hash of
  ``(kind, operands, branch)``, where node-operands contribute their own
  structural hash (computable in one topological pass because the graph
  is acyclic);
* **insertion order is erased** — the graph-level encoding carries the
  *sorted multiset* of node hashes, so any construction order of the
  same graph collides;
* **the interface is kept** — primary input names, primary output names
  and branch condition identifiers are part of the design's contract
  with the outside world (they survive into the RTL port list), so they
  hash as-is;
* **everything semantic changes the hash** — any edge rewiring, kind
  change, constant change, added/removed node or output remaps to a
  different fingerprint (up to sha256 collisions).

Two structurally identical subtrees hash identically — that is correct,
not a collision: they are interchangeable by isomorphism.

A node's hash covers the canonical JSON text (sorted keys, no spaces,
ASCII escapes) of ``["op", kind, operands, branch]``.  That text is
rendered directly, field by field: strings through the encoder's own
``encode_basestring_ascii``, integers through ``int.__repr__``.  The
JSON encoder (``_CANONICAL_JSON``) stays the reference the renderer
must equal byte for byte, and renders any field of another type.

:func:`library_fingerprint` and :func:`params_fingerprint` extend the
same idea to the other inputs of a synthesis run (cell library and the
full parameter tuple), so ``repro.serve`` can content-address a whole
job with :func:`job_fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping

from repro.dfg.graph import DFG, Node, Port
from repro.library.cells import CellLibrary

#: Bump when the canonical encoding changes shape (invalidates caches).
FINGERPRINT_VERSION = 1


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` builds
#: exactly this encoder on every call; one shared instance (it holds no
#: per-call state) produces the same text without the rebuild.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def sha256_of(obj: Any) -> str:
    """sha256 hex digest of a JSON-canonicalised python value."""
    text = _CANONICAL_JSON.encode(obj)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encode_port(port: Port, node_hashes: Mapping[str, str]) -> List[Any]:
    if port.is_const:
        return ["const", port.value]
    if port.is_input:
        return ["input", port.name]
    return ["node", node_hashes[port.name]]


#: What the encoder calls for a string; a C function where available.
_encode_str = json.encoder.encode_basestring_ascii


def _text(value: Any) -> str:
    """``_CANONICAL_JSON.encode(value)``: strings and integers directly."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    return _CANONICAL_JSON.encode(value)


def _port_text(port: Port, node_hashes: Mapping[str, str]) -> str:
    if port.is_const:
        return f'["const",{_text(port.value)}]'
    if port.is_input:
        return f'["input",{_text(port.name)}]'
    return f'["node","{node_hashes[port.name]}"]'


def _node_text(node: Node, node_hashes: Mapping[str, str]) -> str:
    """The canonical text of ``["op", kind, operands, branch]``, the list
    a node's hash covers, rendered field by field."""
    operands = ",".join([_port_text(port, node_hashes) for port in node.operands])
    branch = ",".join(
        [
            f"[{_text(condition)},{'true' if arm else 'false'}]"
            for condition, arm in node.branch
        ]
    )
    return f'["op",{_text(node.kind)},[{operands}],[{branch}]]'


def node_structural_hashes(dfg: DFG) -> Dict[str, str]:
    """Per-node Merkle hashes, name-free and insertion-order-free.

    Computed in one topological pass: a node's hash folds in its kind,
    the encoding of each operand in positional order (operand order is
    semantic — ``a - b`` is not ``b - a``), and its branch path.
    """
    hashes: Dict[str, str] = {}
    sha256 = hashlib.sha256
    for name in dfg.topological_order():
        text = _node_text(dfg.node(name), hashes)
        hashes[name] = sha256(text.encode("utf-8")).hexdigest()
    return hashes


def canonical_encoding(dfg: DFG) -> Dict[str, Any]:
    """The normalised graph encoding :func:`dfg_fingerprint` hashes.

    Exposed separately so tests (and curious users) can inspect exactly
    what two designs agree or disagree on.
    """
    hashes = node_structural_hashes(dfg)
    return {
        "format": "repro-dfg-fingerprint",
        "version": FINGERPRINT_VERSION,
        "inputs": sorted(dfg.inputs),
        "nodes": sorted(hashes.values()),
        "outputs": sorted(
            [name, _encode_port(port, hashes)]
            for name, port in dfg.outputs.items()
        ),
    }


def dfg_fingerprint(dfg: DFG) -> str:
    """Canonical content address of a DFG (sha256 hex).

    Invariant under node renaming and construction order; sensitive to
    any operation, edge, constant, branch or interface change.
    """
    return sha256_of(canonical_encoding(dfg))


def library_fingerprint(library: CellLibrary) -> str:
    """Content address of a cell library's cost model.

    Cell names are included (they surface in the synthesised binding, so
    two libraries differing only in names produce different outputs);
    the mux cost model is sampled through its public ``cost`` curve,
    which captures both the explicit table and the fitted extension.
    """
    return sha256_of(
        {
            "format": "repro-library-fingerprint",
            "version": FINGERPRINT_VERSION,
            "cells": sorted(
                [cell.name, sorted(cell.kinds), cell.area]
                for cell in library.cells()
            ),
            "register_area": library.register_area,
            "mux_cost_curve": [
                library.mux_costs.cost(r) for r in range(2, 34)
            ],
        }
    )


def params_fingerprint(params: Mapping[str, Any]) -> str:
    """Content address of a synthesis parameter mapping.

    The mapping must be JSON-serialisable; key order is irrelevant.
    """
    return sha256_of(
        {
            "format": "repro-params-fingerprint",
            "version": FINGERPRINT_VERSION,
            "params": dict(params),
        }
    )


def job_fingerprint(
    dfg: DFG,
    params: Mapping[str, Any],
    library: CellLibrary = None,
) -> str:
    """Content address of one full synthesis job (the serve cache key).

    Combines the canonical DFG fingerprint, the parameter tuple and —
    when the job allocates against one — the cell library cost model.
    """
    return sha256_of(
        [
            "repro-job-fingerprint",
            FINGERPRINT_VERSION,
            dfg_fingerprint(dfg),
            params_fingerprint(params),
            library_fingerprint(library) if library is not None else None,
        ]
    )
