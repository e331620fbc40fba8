"""``schedule --json`` and ``synth --json`` name a design by its file stem.

The path may be spelled relative or absolute (or from another working
directory); the JSON bytes must not change with it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
RELATIVE = os.path.join("examples", "designs", "gradient.beh")


def json_output(command, path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro", command, path, "--cs", "6", "--json"],
        env=env,
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("command", ["schedule", "synth"])
def test_json_bytes_do_not_depend_on_the_path_spelling(command):
    relative = json_output(command, RELATIVE)
    absolute = json_output(command, str(REPO / RELATIVE))
    assert relative == absolute
    assert json.loads(relative)["dfg"] == "gradient"
