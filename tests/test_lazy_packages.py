"""Every ``repro`` package resolves its public names on first access.

Each package ``__init__`` holds one table (public name -> defining
submodule) behind a PEP 562 ``__getattr__``/``__dir__``, so importing a
package loads none of its submodules, while ``__all__``, ``dir()``,
``from repro.<pkg> import *`` and attribute paths such as
``repro.core.mfsa.MFSAScheduler`` keep working.  The checks run in a fresh
interpreter, because this test process has imported everything already.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _run(script, *args):
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


IMPORT_ONE = r"""
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def test_every_package_is_found():
    assert len(PACKAGES) == 15


def test_importing_a_package_loads_none_of_its_submodules():
    for package in PACKAGES:
        loaded = _run(IMPORT_ONE, package)
        assert loaded == sorted({"repro", package}), package


RESOLVE_ALL = r"""
import importlib, json, sys
# dir() of every package before any name resolves, then the names.
listed = {name: dir(importlib.import_module(name)) for name in sys.argv[1:]}
reports = {}
for name in sys.argv[1:]:
    package = sys.modules[name]
    namespace = {}
    exec(f"from {name} import *", namespace)
    reports[name] = {
        "all": package.__all__,
        "missing_from_dir": [n for n in package.__all__ if n not in listed[name]],
        "unresolved": [n for n in package.__all__ if not hasattr(package, n)],
        "star_unbound": [
            n for n in package.__all__
            if namespace.get(n, namespace) is not getattr(package, n)
        ],
    }
print(json.dumps(reports))
"""


def test_every_public_name_resolves_and_is_listed():
    reports = _run(RESOLVE_ALL, *PACKAGES)
    assert sorted(reports) == sorted(PACKAGES)
    for package, report in reports.items():
        assert report["all"], package
        assert len(set(report["all"])) == len(report["all"]), package
        assert report["missing_from_dir"] == [], package
        assert report["unresolved"] == [], package
        assert report["star_unbound"] == [], package


SUBMODULES = r"""
import json
import repro

report = {
    "mfsa": repro.core.mfsa.MFSAScheduler.__module__,
    "kernel": repro.core.kernel.__name__,
    "explore": repro.explore.design_space.__module__,
    "jobs": repro.serve.jobs.normalize_spec.__module__,
    "same_class": repro.MFSAScheduler is repro.core.mfsa.MFSAScheduler,
    "handles": repro.serve.ServeHandle is repro.serve.RouterHandle,
    "unknown": hasattr(repro, "no_such_name") or hasattr(repro.dfg, "nope"),
    "dunder": hasattr(repro.core, "__no_such_dunder__"),
}
from repro.core import kernel  # a submodule through ``from package import``
report["from_import"] = kernel.__name__
print(json.dumps(report))
"""


def test_submodules_resolve_after_a_bare_import():
    report = _run(SUBMODULES)
    assert report == {
        "mfsa": "repro.core.mfsa",
        "kernel": "repro.core.kernel",
        "explore": "repro.explore",
        "jobs": "repro.serve.jobs",
        "same_class": True,
        "handles": True,
        "unknown": False,
        "dunder": False,
        "from_import": "repro.core.kernel",
    }
