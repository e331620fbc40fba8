"""Hostile-client edge of the shared HTTP parser.

Every request here goes over a raw socket to an in-thread
:class:`~repro.serve.app.ServeApp`, so the bytes on the wire are exactly
the ones written — malformed lengths, truncated bodies, oversized lines,
idle connections.  The contract under test: no client byte sequence
gets a 5xx, and none holds a connection open past the read deadline.
The router shares the same parser; ``tests/serve/test_router.py`` runs
the ``Content-Length`` regressions against a live fleet.
"""

from __future__ import annotations

import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import Client, ServeApp
from repro.serve import httpcore


@pytest.fixture(scope="module")
def server():
    app = ServeApp(port=0, backend="serial")
    with app.start_in_thread() as handle:
        yield app, handle.port


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
            "/admin/cache/entry?key=k",
            "/admin/cache/export",
            "/admin/cache/import",
            "/admin/cache/nope",
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
BODIES = st.one_of(
    st.sampled_from(
        [
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
        ]
    ),
    st.binary(max_size=48),
)


def test_fuzzed_requests_never_get_a_5xx(server):
    """Request lines, headers, ``Content-Length`` values and truncated
    bodies: each gets a status below 500 or a clean close."""
    app, port = server
    seen = set()

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
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
