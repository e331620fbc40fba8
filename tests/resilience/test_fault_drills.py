"""Drill audit: every registered fault site fires somewhere and is drilled.

A site in :data:`~repro.resilience.faults.FAULT_SITES` with no
``fault_point`` call under ``src/repro`` can never fire, and a site no
test arms is a failure path nobody exercises.  Either would let a
refactor drop a site's failure handling without a single test noticing.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

from repro.resilience.faults import FAULT_SITES

ROOT = Path(__file__).resolve().parents[2]


@functools.lru_cache(maxsize=None)
def declared_sites():
    """Literal site names passed to ``fault_point(...)`` calls in the code
    (an AST walk, so docstring examples do not count)."""
    sites = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            first = node.args[0]
            if name == "fault_point" and isinstance(first, ast.Constant):
                sites.add(first.value)
    return frozenset(sites)


@functools.lru_cache(maxsize=None)
def suite_sources():
    return "\n".join(
        path.read_text() for path in sorted((ROOT / "tests").rglob("*.py"))
    )


@pytest.mark.parametrize("site", FAULT_SITES)
def test_site_has_a_fault_point(site):
    assert site in declared_sites(), f"no fault_point({site!r}) under src/repro"


@pytest.mark.parametrize("site", FAULT_SITES)
def test_site_is_armed_by_a_test(site):
    # Armed means spelled as a plan rule: ``<site>:<trigger>=`` (the
    # FaultPlan.parse / --faults form) or ``FaultRule(site=<site>)``.
    quoted = re.escape(site)
    armed = re.compile(
        rf"{quoted}:(?:n|every|p|times)=|site=[\"']{quoted}[\"']"
    )
    assert armed.search(suite_sources()), f"no test arms {site!r}"
