"""Input the library refuses ends the CLI with one line, not a traceback.

A ``cs`` below the critical path (``InfeasibleScheduleError``) or a
malformed behavioral file (``ParseError``) is the user's to fix, so
``repro-hls`` prints ``repro-hls: <ErrorType>: <message>`` on stderr and
exits 1.  The commands run in a fresh interpreter, where an uncaught
exception would print its traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
MAC = str(REPO / "examples" / "designs" / "complex_mac.beh")


def repro_hls(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def assert_one_line(done, error_type):
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith(f"repro-hls: {error_type}: "), lines[0]


@pytest.mark.parametrize("command", ["schedule", "synth", "trace"])
def test_a_cs_below_the_critical_path_is_one_line(command, tmp_path):
    done = repro_hls(command, MAC, "--cs", "1", cwd=tmp_path)
    assert_one_line(done, "InfeasibleScheduleError")
    assert "needs more than 1 control steps" in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["schedule", "synth", "trace"])
def test_a_malformed_design_is_one_line(command, tmp_path):
    design = tmp_path / "bad.beh"
    design.write_text("input a b\nt1 = a +* b\noutput t1\n")
    done = repro_hls(command, str(design), "--cs", "4", cwd=tmp_path)
    assert_one_line(done, "ParseError")
    assert "line 2" in done.stderr
