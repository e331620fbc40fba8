"""End-to-end CLI test: ``repro-hls serve`` + ``repro-hls submit``.

Boots the real server as a subprocess on an ephemeral port, submits the
EWF example twice through the real CLI client (asserting the second hit
the cache), scrapes ``/healthz`` and ``/metrics``, then SIGTERMs the
server and checks it drains gracefully (exit 0, final metrics flush).
The CI ``service-smoke`` job runs exactly this scenario.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def server():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
    )
    try:
        line = process.stderr.readline()
        match = re.search(r"serving on (http://\S+)", line)
        assert match, f"no announce line, got {line!r}"
        yield process, match.group(1), env
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


def _submit(env, url, *extra):
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "submit",
            "--example", "ex6", "--url", url, *extra,
        ],
        env=env,
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=120,
    )


def test_serve_submit_drain_roundtrip(server):
    process, url, env = server

    first = _submit(env, url)
    assert first.returncode == 0, first.stderr
    assert "(miss" in first.stderr
    cold = json.loads(first.stdout)
    assert cold["ok"] is True

    second = _submit(env, url, "--raw")
    assert second.returncode == 0, second.stderr
    assert "(hit" in second.stderr
    cached = json.loads(second.stdout)
    assert cached == cold  # identical payload, cold vs cached
    # The printed result is the stored bytes, byte for byte.
    assert first.stdout == second.stdout
    assert first.stdout == json.dumps(cold, sort_keys=True, indent=2) + "\n"

    health = json.loads(
        urllib.request.urlopen(f"{url}/healthz", timeout=10).read()
    )
    assert health["status"] == "ok"
    assert health["cache_entries"] == 1

    metrics = urllib.request.urlopen(f"{url}/metrics", timeout=10).read().decode()
    assert "repro_serve_cache_hits_total 1" in metrics
    assert 'repro_serve_jobs_total{status="done"} 2' in metrics

    process.send_signal(signal.SIGTERM)
    remaining = process.stderr.read()
    assert process.wait(timeout=30) == 0
    assert "drained and stopped" in remaining
    # The final metrics snapshot is flushed on the way out.
    assert "repro_serve_jobs_total" in remaining
