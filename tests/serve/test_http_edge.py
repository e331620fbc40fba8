"""Hostile-client edge of the shared HTTP parser.

Every request here goes over a raw socket to an in-thread
:class:`~repro.serve.app.ServeApp` (the long-integer bodies, the
``timeout`` values and the ``/admin/shards`` bodies also to a one-shard
router), so the bytes on the wire are exactly the ones written —
malformed lengths, truncated bodies, oversized lines, unusable
timeouts, idle connections.  The contract under test: no
client byte sequence gets a 5xx, and none holds a connection open past
the read deadline.  The router shares the same parser;
``tests/serve/test_router.py`` runs the ``Content-Length`` regressions
against a live fleet.
"""

from __future__ import annotations

import json
import socket
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serve import Client, RouterConfig, ServeApp, ShardRouter
from repro.serve import httpcore


@pytest.fixture(scope="module")
def server():
    app = ServeApp(port=0, backend="serial")
    with app.start_in_thread() as handle:
        yield app, handle.port


@pytest.fixture(scope="module")
def router_port(tmp_path_factory):
    router = ShardRouter(
        RouterConfig(
            port=0,
            shards=1,
            shard_args=("--serial",),
            state_dir=str(tmp_path_factory.mktemp("fleet")),
        )
    )
    with router.start_in_thread() as handle:
        yield handle.port


@pytest.fixture(scope="module", params=["serve", "router"])
def either_role(request, tmp_path_factory):
    """A journaling server of each role; the router parses a body before
    it forwards."""
    if request.param == "router":
        yield request.getfixturevalue("router_port")
        return
    app = ServeApp(
        port=0,
        backend="serial",
        state_dir=str(tmp_path_factory.mktemp("shard")),
    )
    with app.start_in_thread() as handle:
        yield handle.port


def exchange(
    port: int, data: bytes, half_close: bool = True, timeout: float = 5.0
) -> bytes:
    """Send ``data`` (then half-close) and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def status_of(response: bytes) -> int:
    assert response.startswith(b"HTTP/1.1 "), response[:80]
    return int(response.split(b" ", 2)[1])


def body_of(response: bytes) -> bytes:
    return response.partition(b"\r\n\r\n")[2]


def post(length: bytes, body: bytes = b"{}") -> bytes:
    return b"POST /v1/schedule HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n" + body


class TestParserValidation:
    @pytest.mark.parametrize(
        "length", [b"abc", b"-1", b"1e3", b"+2", b"0x2", b"\xb2"]
    )
    def test_malformed_content_length_is_400(self, server, length):
        _app, port = server
        response = exchange(port, post(length))
        assert status_of(response) == 400
        assert b"non-negative integer" in body_of(response)

    def test_body_cut_short_by_eof_is_400(self, server):
        _app, port = server
        response = exchange(port, post(b"10", b"{}"))
        assert status_of(response) == 400
        assert b"shorter than Content-Length" in body_of(response)

    def test_oversized_length_is_413(self, server):
        _app, port = server
        assert status_of(exchange(port, post(b"9" * 30))) == 413

    @pytest.mark.parametrize("where", ["request line", "header line"])
    def test_line_over_the_stream_limit_is_400(self, server, where):
        _app, port = server
        filler = b"a" * 70_000
        if where == "request line":
            data = b"GET /" + filler + b" HTTP/1.1\r\n\r\n"
        else:
            data = b"GET /healthz HTTP/1.1\r\nX-Big: " + filler + b"\r\n\r\n"
        response = exchange(port, data)
        assert status_of(response) == 400
        assert b"too long" in body_of(response)

    def test_header_count_is_capped(self, server):
        _app, port = server
        lines = [b"X-H%d: v" % index for index in range(httpcore.MAX_HEADERS)]
        at_cap = b"GET /healthz HTTP/1.1\r\n" + b"\r\n".join(lines) + b"\r\n\r\n"
        assert status_of(exchange(port, at_cap)) == 200
        over = at_cap.replace(b"\r\n\r\n", b"\r\nX-One-More: v\r\n\r\n")
        response = exchange(port, over)
        assert status_of(response) == 400
        assert b"header lines" in body_of(response)

    def test_deeply_nested_json_is_400(self, server):
        _app, port = server
        body = b"[" * 50_000
        response = exchange(port, post(str(len(body)).encode(), body))
        assert status_of(response) == 400
        assert b"nests too deeply" in body_of(response)

    def test_malformed_target_is_400(self, server):
        _app, port = server
        assert status_of(exchange(port, b"GET http://[::1 HTTP/1.1\r\n\r\n")) == 400


#: Bodies holding an integer literal past the interpreter's 4300-digit
#: conversion limit, which ``json.loads`` refuses with a plain ValueError.
LONG_INTEGER_BODIES = {
    "object": b'{"cs": ' + b"1" * 5000 + b"}",
    "design-cs": b'{"source": "input a\\nx = a + a\\noutput x\\n", "cs": '
    + b"1" * 4301
    + b"}",
    "array": b"[" + b"1" * 4400 + b"]",
}


class TestLongIntegers:
    @pytest.mark.parametrize("target", ["/v1/schedule", "/v1/synth?wait=1"])
    @pytest.mark.parametrize("name", sorted(LONG_INTEGER_BODIES))
    def test_integer_past_the_digit_limit_is_400(self, either_role, target, name):
        port = either_role
        body = LONG_INTEGER_BODIES[name]
        head = f"POST {target} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        response = exchange(port, head.encode("ascii") + body)
        assert status_of(response) == 400
        assert b"request body is not JSON" in body_of(response)
        assert b"4300" in body_of(response)


def work_counters(port: int) -> dict:
    """Summed ``jobs`` and ``journal_writes`` samples of one scrape; a
    router's scrape includes its shards'."""
    totals = {"jobs": 0.0, "journal_writes": 0.0}
    text = Client(f"http://127.0.0.1:{port}").metrics_text()
    for line in text.splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        for counter in totals:
            if name == f"repro_serve_{counter}_total":
                totals[counter] += float(line.rsplit(" ", 1)[1])
    return totals


def submit_with_timeout(port: int, timeout: str) -> bytes:
    body = json.dumps(
        {"source": "input a b\nx = a - b\noutput x\n", "cs": 2}
    ).encode("ascii")
    head = (
        f"POST /v1/schedule?wait=1&timeout={timeout} HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return exchange(port, head.encode("ascii") + body)


class TestTimeoutParameter:
    @pytest.mark.parametrize("timeout", ["nan", "0", "-1", "-inf", "inf", "1e309"])
    def test_unusable_timeout_is_400_before_any_work(self, either_role, timeout):
        """No deadline, or one already past: refused before a queue slot,
        a journal record or a run."""
        port = either_role
        before = work_counters(port)
        response = submit_with_timeout(port, timeout)
        assert status_of(response) == 400, response
        assert b"positive, finite number of seconds" in body_of(response)
        assert work_counters(port) == before

    def test_positive_timeout_runs_and_journals(self, either_role):
        """The control: the counters above do move for admitted work."""
        port = either_role
        before = work_counters(port)
        assert status_of(submit_with_timeout(port, "30")) == 200
        after = work_counters(port)
        assert after["jobs"] > before["jobs"]
        assert after["journal_writes"] > before["journal_writes"]


def _get(port: int, path: str) -> bytes:
    return exchange(port, f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii"))


def _submit(port: int, target: str, body: dict) -> bytes:
    return _post_whole(port, target, json.dumps(body).encode("ascii"))


class TestEnvelopeBytes:
    """A ``wait=1`` envelope (and a job's status answer) is the sorted
    compact JSON of itself, and its ``result`` is the stored result
    bytes, however the answer was made: a miss, an L1 hit, an L2 hit
    (the router; a second L1 hit on a lone shard) or a failed job."""

    def envelope(self, port: int, response: bytes, status: int) -> dict:
        assert status_of(response) == status, response
        body = body_of(response)
        envelope = json.loads(body)
        assert body.decode("ascii") == json.dumps(envelope, sort_keys=True) + "\n"
        stored = _get(port, f"/v1/jobs/{envelope['job']['id']}/result")
        assert status_of(stored) == 200
        assert envelope["result"] == json.loads(body_of(stored))
        return envelope

    def test_every_envelope_is_the_encoders(self, either_role):
        port = either_role
        design = {
            "source": "input p q r\nt = p * q\nx = t + r\noutput x\n",
            "name": "envelope_probe",
            "cs": 3,
        }
        accepted = _submit(port, "/v1/schedule", design)
        assert status_of(accepted) == 202
        job_id = json.loads(body_of(accepted))["job"]["id"]
        # Poll the raw result: the router relays it without filling its
        # L2, so the next answer is the shard's L1 hit.
        for _ in range(600):
            if status_of(_get(port, f"/v1/jobs/{job_id}/result")) == 200:
                break
            time.sleep(0.05)
        l1 = self.envelope(
            port, _submit(port, "/v1/schedule?wait=1", design), 200
        )
        assert l1["job"]["cache"] == "hit"
        l2 = self.envelope(
            port, _submit(port, "/v1/schedule?wait=1", design), 200
        )
        assert l2["job"]["cache"] == "hit"
        if "shard" in l1["job"]:
            assert l1["job"]["shard"] == "shard-0"
            assert l2["job"]["shard"] == "router"
        assert l1["result"] == l2["result"]
        status = self.envelope(port, _get(port, f"/v1/jobs/{job_id}"), 200)
        assert status["result"] == l1["result"]

        miss = self.envelope(
            port,
            _submit(port, "/v1/synth?wait=1", dict(design, style=2, cs=4)),
            200,
        )
        assert miss["job"]["cache"] == "miss"
        assert miss["result"]["result"]["format"] == "repro-synthesis"

        failed = self.envelope(
            port, _submit(port, "/v1/schedule?wait=1", dict(design, cs=1)), 500
        )
        assert failed["job"]["status"] == "failed"
        assert failed["result"]["ok"] is False


class TestReadDeadline:
    def test_idle_connection_gets_408(self, server, monkeypatch):
        _app, port = server
        monkeypatch.setattr(httpcore, "READ_TIMEOUT_S", 0.3)
        response = exchange(port, b"", half_close=False)
        assert status_of(response) == 408

    def test_stalled_body_gets_408(self, server, monkeypatch):
        _app, port = server
        monkeypatch.setattr(httpcore, "READ_TIMEOUT_S", 0.3)
        response = exchange(port, post(b"10", b"{"), half_close=False)
        assert status_of(response) == 408

    def test_bare_close_is_not_counted_as_a_500(self, server):
        app, port = server

        def unparsed_500s():
            return app.metrics.counter_value(
                "http_requests", method="-", route="-", status="500"
            )

        before = unparsed_500s()
        assert exchange(port, b"") == b""
        assert exchange(port, b"\r\n") == b""
        assert unparsed_500s() == before


TARGETS = st.one_of(
    st.sampled_from(
        [
            "/v1/schedule",
            "/v1/synth?wait=1",
            "/v1/schedule?timeout=abc&verify=on",
            "/v1/jobs/j1-nope",
            "/v1/jobs/j1-nope/result",
            "/v1/jobs/",
            "/healthz",
            "/metrics",
            "/admin/cache/index",
            "/admin/shards",
            "/nope",
            "*",
            "http://[::1",
        ]
    ),
    st.text(max_size=24).map(lambda text: "/" + text),
)
REQUEST_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["GET", "POST", "PUT", "get", "HEAD"]),
        TARGETS,
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/9"]),
    ).map(" ".join),
    st.text(max_size=40),
)
LENGTHS = st.one_of(
    st.none(),
    st.integers(-3, 80).map(str),
    st.sampled_from(["", "abc", "1e3", "+5", "0x10", " 4", "²", "9" * 30]),
    st.text(max_size=8),
)
HEADERS = st.lists(
    st.tuples(
        st.sampled_from(["Host", "X-Junk", "Content-Type", "Transfer-Encoding", ""]),
        st.text(max_size=16),
    ),
    max_size=4,
)
#: Bodies worth sending as they are; the fuzz adds random bytes.
SAMPLED_BODIES = [
    b"",
    b"{}",
    b"[]",
    b"{",
    b"null",
    b'"text"',
    b'{"source": 5}',
    b'{"keys": "k"}',
    b'{"keys": ["k"]}',
    b'{"entries": [1, {"key": 2}]}',
    b"1" * 4301,
]
BODIES = st.one_of(st.sampled_from(SAMPLED_BODIES), st.binary(max_size=48))


def test_fuzzed_requests_never_get_a_5xx(server):
    """Request lines, headers, ``Content-Length`` values and truncated
    bodies: each gets a status below 500 or a clean close.  One explicit
    example each answers 200, 400 and 404, so the coverage check at the
    end does not depend on the draws."""
    app, port = server
    seen = set()

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @example(
        line="GET /healthz HTTP/1.1", headers=[], length=None, body=b"", cut=None
    )
    @example(
        line="POST /v1/schedule HTTP/1.1",
        headers=[],
        length="abc",
        body=b"{}",
        cut=None,
    )
    @example(line="GET /nope HTTP/1.1", headers=[], length=None, body=b"", cut=None)
    @given(
        line=REQUEST_LINES,
        headers=HEADERS,
        length=LENGTHS,
        body=BODIES,
        cut=st.one_of(st.none(), st.integers(0, 200)),
    )
    def check(line, headers, length, body, cut):
        head = line + "\r\n" + "".join(f"{name}: {value}\r\n" for name, value in headers)
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        data = head.encode("utf-8") + b"\r\n" + body
        if cut is not None:
            data = data[:cut]
        response = exchange(port, data, timeout=httpcore.READ_TIMEOUT_S + 5)
        if response:
            status = status_of(response)
            assert status < 500, (data, response)
            seen.add(status)

    check()
    assert {200, 400, 404} <= seen
    assert 'status="500"' not in Client(f"http://127.0.0.1:{port}").metrics_text()
    assert app.metrics.counter_value(
        "http_requests", method="-", route="-", status="400"
    ) > 0


BODY_IDS = [f"body{i}" for i in range(len(SAMPLED_BODIES))]


def _post_whole(port: int, target: str, body: bytes) -> bytes:
    head = f"POST {target} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return exchange(port, head.encode("ascii") + body)


#: The two former cache-transfer routes stay as targets: a shard must
#: answer them 404 whatever the body.
@pytest.mark.parametrize(
    "target", ["/v1/schedule", "/v1/synth", "/admin/cache/export", "/admin/cache/import"]
)
@pytest.mark.parametrize("body", SAMPLED_BODIES, ids=BODY_IDS)
def test_sampled_bodies_sent_whole_never_get_a_5xx(server, target, body):
    """The fuzz above sends lengths of at most 80 bytes, so a long body
    reaches a route's parser only here."""
    _app, port = server
    response = _post_whole(port, target, body)
    assert status_of(response) < 500, (body[:80], response)


@pytest.mark.parametrize("body", SAMPLED_BODIES, ids=BODY_IDS)
def test_sampled_bodies_sent_whole_to_admin_shards_get_a_400(router_port, body):
    """The router's admin parser gets each long body whole too, and
    refuses every one without starting a reshard."""
    response = _post_whole(router_port, "/admin/shards", body)
    assert status_of(response) == 400, (body[:80], response)
