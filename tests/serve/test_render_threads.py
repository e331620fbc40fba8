"""Where a result is rendered: once, in the worker, never on an event loop.

The worker (:func:`~repro.serve.jobs.execute_job`) renders each job's
response text.  The shard's event loop caches and answers those bytes;
the router's event loop stores the bytes a shard relays and splices
them into its answers.  Neither loop calls ``response_text``,
``schedule_to_json`` or ``synthesis_to_json``: these tests wrap all
three and count the calls by thread, across a fleet miss and an L2 hit
on a one-shard fleet whose shard is served from a thread of this
process, so both event loops are observable.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.io import jsonio
from repro.serve import Client, RouterConfig, ServeApp, ShardRouter
from repro.serve import jobs
from repro.serve.jobs import execute_job, normalize_spec

RENDERERS = (
    (jobs, "response_text"),
    (jsonio, "schedule_to_json"),
    (jsonio, "synthesis_to_json"),
)

SOURCE = "input a b c\nt = a * b\nu = t + c\nx = u - a\noutput x\n"


class ThreadShard:
    """A shard served from a thread, shaped like the process the router
    supervises (``poll``, ``send_signal``, ``wait``, ``kill``)."""

    def __init__(self, port_file: str) -> None:
        self.app = ServeApp(port=0, backend="serial", port_file=port_file)
        self.handle = self.app.start_in_thread()
        self.returncode = None

    @property
    def loop_thread(self) -> threading.Thread:
        return self.handle._thread

    def poll(self):
        return self.returncode

    def send_signal(self, _signum) -> None:
        self.handle.stop()
        self.returncode = 0

    kill = send_signal

    def wait(self, timeout=None):
        self.handle._thread.join(timeout)
        return self.returncode


class ThreadFleet(ShardRouter):
    """A router whose shards run in threads of this process."""

    def _spawn(self, shard) -> None:
        shard.process = ThreadShard(shard.port_file)
        shard.port = None
        shard.healthy = False
        shard.spawned_monotonic = time.monotonic()


@pytest.fixture
def render_calls(monkeypatch):
    """``(renderer name, thread ident)`` of every renderer call, wherever
    a module imported the renderer by name."""
    calls = []
    for owner, name in RENDERERS:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append((_name, threading.get_ident()))
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_neither_event_loop_renders_a_result(render_calls, tmp_path):
    router = ThreadFleet(RouterConfig(port=0, shards=1, state_dir=str(tmp_path)))
    with router.start_in_thread() as handle:
        shard = router.shards["shard-0"].process
        loops = {
            handle._thread.ident: "router",
            shard.loop_thread.ident: "shard",
        }
        client = Client(handle.url)
        miss = client.synth(source=SOURCE, name="loops", cs=4, style=2)
        hit = client.synth(source=SOURCE, name="loops", cs=4, style=2)
        raw = client.result_text(hit["job"]["id"])
        cached = router.cache.get(hit["job"]["key"])
        shard_cached = shard.app.cache.get(hit["job"]["key"])
    assert miss["job"]["cache"] == "miss"
    assert miss["job"]["shard"] == "shard-0"
    assert hit["job"]["cache"] == "hit"
    assert hit["job"]["shard"] == "router"
    assert miss["result"] == hit["result"] == json.loads(raw)
    # The L2 holds the shard's bytes as received.
    assert cached == shard_cached == raw
    on_loops = [(name, loops[ident]) for name, ident in render_calls if ident in loops]
    assert on_loops == []
    # The worker thread rendered the one response text.
    assert [name for name, _ident in render_calls] == ["response_text"]


def test_the_shard_loop_renders_nothing_on_a_miss_or_a_hit(render_calls):
    app = ServeApp(port=0, backend="serial")
    with app.start_in_thread() as handle:
        client = Client(handle.url)
        client.schedule(source=SOURCE, name="lone", cs=4)
        client.schedule(source=SOURCE, name="lone", cs=4)
        loop = handle._thread.ident
    assert [ident for _name, ident in render_calls if ident == loop] == []
    assert [name for name, _ident in render_calls] == ["response_text"]


def test_the_worker_parses_only_the_design(monkeypatch):
    """``_execute`` builds the result from the payload builder, and the
    worker renders the text from it: the one ``json.loads`` of a job is
    its design's ``dfg_json``."""
    spec = normalize_spec("mfsa", {"source": SOURCE, "cs": 4, "style": 1})
    parsed = []
    original = json.loads

    def counted(text, *args, **kwargs):
        parsed.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    text, error, _perf = execute_job(spec)
    assert error is None
    assert parsed == [spec["dfg_json"]]
    assert original(text)["result"]["format"] == "repro-synthesis"
