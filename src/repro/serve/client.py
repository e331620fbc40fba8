"""Stdlib HTTP client for the synthesis service.

A thin, dependency-free wrapper over :mod:`http.client` used by the
``repro-hls submit`` CLI, the documentation examples and the service
tests.  It speaks the same JSON API documented in ``docs/SERVICE.md``
and turns the service's error statuses into typed exceptions —
notably :class:`Backpressure` for 429, which carries the server's
``Retry-After`` hint so callers can implement polite backoff, and
:class:`JobFailedError` when a polled job lands on a non-``done``
terminal status.

Resilience (see ``docs/ROBUSTNESS.md``) is opt-in and off by default:
``Client(url, retries=N)`` retries connection-level failures (the
server restarting under the client) and 429 backpressure through a
:class:`~repro.resilience.retry.RetryPolicy` — capped exponential
backoff with seeded jitter, never sleeping less than the server's
``Retry-After`` hint.  An optional
:class:`~repro.resilience.retry.CircuitBreaker` fails fast once the
service has been unreachable repeatedly.  Retried submissions are safe:
results are content-addressed, so a duplicate POST coalesces onto the
cache or the in-flight single-flight leader instead of recomputing.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import urlencode, urlsplit

from repro.resilience.retry import CircuitBreaker, RetryPolicy


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, payload: Any) -> None:
        message = payload
        if isinstance(payload, Mapping):
            message = payload.get("error", payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class Backpressure(ServiceError):
    """The service shed load (HTTP 429); ``retry_after`` is its hint."""

    def __init__(self, status: int, payload: Any, retry_after: float) -> None:
        super().__init__(status, payload)
        self.retry_after = retry_after


class JobFailedError(Exception):
    """A polled job reached a terminal status other than ``done``.

    Raised by :meth:`Client.wait_for`; carries the job description so
    callers can inspect the failure instead of parsing payloads.
    """

    def __init__(self, job_id: str, job: Mapping[str, Any]) -> None:
        error = job.get("error") or {}
        super().__init__(
            f"job {job_id} {job.get('status')}: "
            f"{error.get('message', 'no error detail')}"
        )
        self.job_id = job_id
        self.job = dict(job)
        self.status = job.get("status")


class Client:
    """Synchronous client for one service instance.

    >>> client = Client("http://127.0.0.1:8421")   # doctest: +SKIP
    >>> out = client.schedule(source="x := a + b") # doctest: +SKIP
    >>> out["result"]["length"]                    # doctest: +SKIP

    ``retries`` enables resilience to connection failures and 429
    backpressure (default off: every error surfaces immediately);
    ``backoff`` overrides the default
    :class:`~repro.resilience.retry.RetryPolicy`, ``breaker`` installs a
    :class:`~repro.resilience.retry.CircuitBreaker` shared across calls,
    and ``retry_seed`` makes the jitter stream deterministic for tests.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 120.0,
        retries: int = 0,
        backoff: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        retry_seed: Optional[int] = None,
    ) -> None:
        # urlsplit("localhost:8421") reads "localhost" as the *scheme*
        # and "8421" as the path — normalise scheme-less spellings first.
        if "://" not in url:
            url = f"http://{url}"
        split = urlsplit(url)
        if split.scheme != "http":
            raise ValueError(f"unsupported scheme {split.scheme!r}")
        if not split.hostname:
            raise ValueError(f"no host in service url {url!r}")
        self.host = split.hostname
        self.port = split.port if split.port is not None else 80
        self.timeout = timeout
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.backoff = (
            backoff
            if backoff is not None
            else RetryPolicy(retries=retries, seed=retry_seed)
        )
        self.breaker = breaker
        self._rng = random.Random(retry_seed)
        self._sleep = time.sleep  # injectable for tests

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        query: Optional[Mapping[str, Any]] = None,
        body: Optional[Mapping[str, Any]] = None,
        raw: bool = False,
    ) -> Tuple[int, Dict[str, str], Any]:
        if query:
            path = f"{path}?{urlencode(query)}"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            header_map = {
                name.lower(): value for name, value in response.getheaders()
            }
            if raw:
                decoded: Any = data.decode("utf-8")
            else:
                try:
                    decoded = json.loads(data.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    decoded = data.decode("utf-8", errors="replace")
            return response.status, header_map, decoded
        finally:
            connection.close()

    def _checked(self, *args, **kwargs) -> Any:
        """One API call through the retry budget and circuit breaker.

        Connection-level failures (the server restarting under us) and
        429 backpressure are retried up to ``retries`` times with capped
        exponential backoff; a 429's ``Retry-After`` hint floors the
        delay.  Definite answers — 400s, job failures, 5xx other than
        load shedding — surface immediately: retrying them cannot help.
        """
        attempt = 0
        while True:
            if self.breaker is not None:
                self.breaker.before_call()
            try:
                status, headers, decoded = self._request(*args, **kwargs)
            except (OSError, http.client.HTTPException):
                # Includes ConnectionRefusedError while the server is
                # down between kill and journal-replay restart.
                if self.breaker is not None:
                    self.breaker.record_failure()
                if attempt >= self.retries:
                    raise
                self._sleep(self.backoff.delay(attempt))
                attempt += 1
                continue
            if self.breaker is not None:
                # Any HTTP answer means the dependency is alive.
                self.breaker.record_success()
            if status == 429:
                try:
                    retry_after = float(headers.get("retry-after", "1"))
                except ValueError:
                    retry_after = 1.0
                if attempt < self.retries:
                    self._sleep(self.backoff.delay(attempt, retry_after))
                    attempt += 1
                    continue
                raise Backpressure(status, decoded, retry_after)
            if status >= 400:
                raise ServiceError(status, decoded)
            return decoded

    # ------------------------------------------------------------------
    def _submit(
        self,
        endpoint: str,
        design: Mapping[str, Any],
        wait: bool,
        verify: bool,
        trace: bool,
        timeout: Optional[float],
        params: Mapping[str, Any],
    ) -> Dict[str, Any]:
        body = dict(design)
        body.update(params)
        query: Dict[str, Any] = {}
        if wait:
            query["wait"] = 1
        if verify:
            query["verify"] = "on"
        if trace:
            query["trace"] = "on"
        if timeout is not None:
            query["timeout"] = timeout
        return self._checked("POST", endpoint, query=query, body=body)

    def schedule(
        self,
        source: Optional[str] = None,
        dfg: Optional[Mapping[str, Any]] = None,
        name: Optional[str] = None,
        wait: bool = True,
        verify: bool = False,
        trace: bool = False,
        timeout: Optional[float] = None,
        **params: Any,
    ) -> Dict[str, Any]:
        """Submit an MFS scheduling job (``POST /v1/schedule``).

        Pass the design as ``source`` (behavioral text) or ``dfg``
        (parsed ``repro-dfg`` JSON object); extra keyword arguments
        (``cs``, ``mul_latency``, ``latency_l``, ``pipelined``,
        ``clock_ns``, ``seed``) become spec parameters.
        """
        design = self._design(source, dfg, name)
        return self._submit(
            "/v1/schedule", design, wait, verify, trace, timeout, params
        )

    def synth(
        self,
        source: Optional[str] = None,
        dfg: Optional[Mapping[str, Any]] = None,
        name: Optional[str] = None,
        wait: bool = True,
        verify: bool = False,
        trace: bool = False,
        timeout: Optional[float] = None,
        **params: Any,
    ) -> Dict[str, Any]:
        """Submit an MFSA synthesis job (``POST /v1/synth``)."""
        design = self._design(source, dfg, name)
        return self._submit(
            "/v1/synth", design, wait, verify, trace, timeout, params
        )

    @staticmethod
    def _design(
        source: Optional[str],
        dfg: Optional[Mapping[str, Any]],
        name: Optional[str] = None,
    ) -> Dict[str, Any]:
        if (source is None) == (dfg is None):
            raise ValueError("pass exactly one of 'source' or 'dfg'")
        design: Dict[str, Any] = (
            {"source": source} if source is not None else {"dfg": dict(dfg)}
        )
        if name is not None:
            design["name"] = name
        return design

    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Dict[str, Any]:
        """Job status + result when finished (``GET /v1/jobs/<id>``)."""
        return self._checked("GET", f"/v1/jobs/{job_id}")

    def result_text(self, job_id: str) -> str:
        """The raw canonical result bytes (``GET /v1/jobs/<id>/result``)."""
        return self._checked("GET", f"/v1/jobs/{job_id}/result", raw=True)

    def wait_for(
        self,
        job_id: str,
        timeout: float = 60.0,
        poll_s: float = 0.05,
        max_poll_s: float = 1.0,
        raise_on_failure: bool = True,
    ) -> Dict[str, Any]:
        """Poll a job submitted with ``wait=False`` until it is terminal.

        The poll interval starts at ``poll_s`` and doubles (with jitter)
        up to ``max_poll_s``, so a short job is noticed quickly while a
        long one is not hammered at 20 requests a second.  A job that
        ends ``failed``/``timeout``/``cancelled`` raises
        :class:`JobFailedError` (pass ``raise_on_failure=False`` for the
        old return-the-payload behaviour).
        """
        deadline = time.monotonic() + timeout
        delay = poll_s
        while True:
            info = self.job(job_id)
            status = info["job"]["status"]
            if status not in ("queued", "running"):
                if status != "done" and raise_on_failure:
                    raise JobFailedError(job_id, info["job"])
                return info
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(f"job {job_id} still {status}")
            self._sleep(min(delay * self._rng.uniform(0.5, 1.0), deadline - now))
            delay = min(delay * 2.0, max_poll_s)

    def healthz(self) -> Dict[str, Any]:
        """Service health (``GET /healthz``)."""
        return self._checked("GET", "/healthz")

    def metrics_text(self) -> str:
        """Prometheus exposition text (``GET /metrics``)."""
        return self._checked("GET", "/metrics", raw=True)

    # -- fleet administration (shard router only) ----------------------
    def admin_status(self) -> Dict[str, Any]:
        """Ring membership and per-shard state (``GET /admin/shards``)."""
        return self._checked("GET", "/admin/shards")

    def admin_add_shard(self) -> Dict[str, Any]:
        """Grow the fleet by one shard; blocks until it is on the ring.

        Admin reshards are not retried: a timeout could otherwise boot
        two shards.  409 means another reshard is already running.
        """
        return self._request_once("POST", "/admin/shards", {"action": "add"})

    def admin_remove_shard(self, shard: str) -> Dict[str, Any]:
        """Drain ``shard`` out of the fleet (ring flip → drain → exit)."""
        return self._request_once(
            "POST", "/admin/shards", {"action": "remove", "shard": shard}
        )

    def _request_once(
        self, method: str, path: str, body: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One non-retried call; non-2xx answers raise ServiceError."""
        status, _headers, decoded = self._request(method, path, body=body)
        if status >= 300:
            raise ServiceError(status, decoded)
        return decoded
