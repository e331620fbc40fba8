"""Job specifications and the picklable synthesis worker.

A *job spec* is the plain-dict, process-portable description of one
synthesis request: the design (as canonical ``repro-dfg`` JSON) plus the
full parameter tuple (algorithm, time constraint, ALU style, timing
model, pipelining, seed) and the per-job flags (``verify``, ``trace``).
Specs are what crosses the process boundary into
:class:`~repro.sweep.SweepExecutor` workers, what the result cache is
keyed on, and what the HTTP layer parses requests into — one shape for
all three.

Determinism contract: :func:`execute_spec` runs the exact same scheduler
code path as the one-shot CLI (``repro-hls schedule`` / ``synth
--json``), and its ``result`` is the payload the CLI's JSON output
dumps, so a served result carries the CLI's document for the same
design and parameters.  The service's worker (:func:`execute_job`)
renders the job's canonical :func:`response_text` itself, once; that
text is what crosses the process boundary, what the caches store, what
journals record and what ``GET /v1/jobs/<id>/result`` answers.  A
scheduler run keeps its caches to itself, so a traced job's embedded
``perf.counters`` event — and therefore the whole trace artifact — is
reproducible no matter which worker process picks the job up.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.fingerprint import (
    dfg_fingerprint,
    library_fingerprint,
    params_fingerprint,
    sha256_of,
)
from repro.dfg.graph import DFG
from repro.dfg.ops import standard_operation_set
from repro.dfg.parser import parse_behavior
from repro.errors import DFGError, LibraryError, ScheduleError
from repro.io.jsonio import dfg_from_json, dfg_from_obj, dfg_to_json, sorted_json
from repro.perf import PerfCounters
from repro.resilience.faults import fault_point
from repro.sweep import worker_cached

#: Algorithms the service can run.
ALGORITHMS = ("mfs", "mfsa")

#: Spec schema version (part of every cache key).
SPEC_VERSION = 1

#: ``cs`` admitted for any design, however few its operations.  Above it
#: the bound is the design's summed op latencies (see :func:`normalize_spec`).
CS_FLOOR = 1024

#: How many admissions :func:`normalize_spec` remembers.  Both server
#: roles (and the benchmark) call it and then :func:`key_and_fingerprint`
#: back to back on one thread, so a handful of entries covers them all.
ADMISSION_MEMO_ENTRIES = 8

#: Exact ``spec["dfg_json"]`` text → ``(design name, dfg_fingerprint)``.
#: Both values are pure functions of the text, so a miss (a
#: journal-recovered or hand-built spec) only costs a parse.
_admitted: Dict[str, Tuple[str, str]] = {}
_admitted_lock = threading.Lock()


class JobSpecError(ValueError):
    """A request that cannot be turned into a valid job spec (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobSpecError(message)


def parse_design(body: Mapping[str, Any], name: str = "design") -> DFG:
    """Extract the DFG from a request body.

    Accepts either ``{"source": "<behavioral text>"}`` (the
    :mod:`repro.dfg.parser` language) or ``{"dfg": {...}}`` (a parsed
    ``repro-dfg`` JSON object, as produced by
    :func:`repro.io.jsonio.dfg_to_json`).
    """
    source = body.get("source")
    dfg_obj = body.get("dfg")
    _require(
        (source is None) != (dfg_obj is None),
        "request must carry exactly one of 'source' or 'dfg'",
    )
    try:
        if source is not None:
            _require(isinstance(source, str), "'source' must be a string")
            return parse_behavior(source, name=str(body.get("name", name)))
        return dfg_from_obj(dfg_obj)
    except JobSpecError:
        raise
    except Exception as error:
        raise JobSpecError(f"malformed design: {error}") from error


def normalize_spec(
    algorithm: str,
    body: Mapping[str, Any],
    verify: bool = False,
    trace: bool = False,
) -> Dict[str, Any]:
    """Validate a request body into a canonical, picklable job spec.

    The canonicalisation matters: two requests describing the same job
    (isomorphic designs, same parameters in any spelling) normalise to
    specs with the same :func:`cache_key`.  Admission runs four layers:
    decode (:func:`parse_design`), :func:`validate_request`, the
    canonical ``dfg_json`` text and the design's fingerprint.
    """
    _require(algorithm in ALGORITHMS, f"unknown algorithm {algorithm!r}")
    _require(isinstance(body, Mapping), "request body must be a JSON object")
    dfg = parse_design(body)
    parameters = validate_request(algorithm, body, dfg)
    dfg_json = dfg_to_json(dfg, indent=None)
    _remember_admission(dfg_json, (dfg.name, dfg_fingerprint(dfg)))
    return {
        "version": SPEC_VERSION,
        "algorithm": algorithm,
        "dfg_json": dfg_json,
        **parameters,
        "verify": bool(verify),
        "trace": bool(trace),
    }


def validate_request(
    algorithm: str, body: Mapping[str, Any], dfg: DFG
) -> Dict[str, Any]:
    """Check a decoded request against what a worker can run; return its
    parameters in canonical form (the spec's fields after ``dfg_json``).

    Every operation is checked against the standard operation set (kind
    and operand count) and, for ``mfsa``, against the default cell
    library, so a design no worker could run is refused here rather
    than failing in the pool.

    ``cs`` is bounded by the larger of :data:`CS_FLOOR` and the design's
    summed op latencies.  A longer schedule has a control step in which
    nothing runs, and deleting that step changes no unit, register or
    mux count, so a larger ``cs`` buys only a larger placement grid.
    A ``clock_ns`` shorter than the delay of a single-cycle kind the
    design uses is refused, as the worker would refuse it.
    """
    _require(len(dfg) > 0, "design has no operations")
    try:
        # Decoding ran the structural checks; kinds and arity remain.
        dfg.check_operations(_operation_set(1))
        if algorithm == "mfsa":
            _default_library().check_covers(dfg.kinds_used())
    except (DFGError, LibraryError) as error:
        raise JobSpecError(f"unsupported design: {error}") from error

    def _opt_number(key: str, cast, minimum=None):
        value = body.get(key)
        if value is None:
            return None
        # int() would turn true into 1 and truncate 2.7 to 2.
        _require(
            not isinstance(value, bool)
            and not (
                cast is int
                and isinstance(value, float)
                and not value.is_integer()
            ),
            f"{key!r} must be a {cast.__name__}",
        )
        try:
            value = cast(value)
        except (TypeError, ValueError):
            raise JobSpecError(f"{key!r} must be a {cast.__name__}") from None
        _require(
            minimum is None or value >= minimum,
            f"{key!r} must be >= {minimum}",
        )
        return value

    style = _opt_number("style", int)
    if style is None:
        style = 1
    _require(style in (1, 2), "'style' must be 1 or 2")
    pipelined = body.get("pipelined", [])
    if isinstance(pipelined, str):
        pipelined = [k for k in pipelined.split(",") if k]
    _require(
        isinstance(pipelined, (list, tuple))
        and all(isinstance(k, str) for k in pipelined),
        "'pipelined' must be a list of kind names",
    )
    cs = _opt_number("cs", int, minimum=1)
    mul_latency = _opt_number("mul_latency", int, minimum=1) or 1
    if cs is not None and cs > CS_FLOOR:
        ops = standard_operation_set(mul_latency=mul_latency)
        total = sum(ops.latency(node.kind) for node in dfg)
        bound = max(total, CS_FLOOR)
        _require(
            cs <= bound,
            f"'cs' must be <= {bound}, the larger of {CS_FLOOR} and the "
            f"design's summed op latencies ({total})",
        )
    clock_ns = _opt_number("clock_ns", float, minimum=0.0)
    if clock_ns is not None:
        _check_clock(dfg, mul_latency, clock_ns)
    return {
        "cs": cs,
        "style": style,
        "mul_latency": mul_latency,
        "clock_ns": clock_ns,
        "latency_l": _opt_number("latency_l", int, minimum=1),
        "pipelined": sorted(set(pipelined)),
        "seed": _opt_number("seed", int) or 0,
    }


def _operation_set(mul_latency: int):
    """The standard operation set at ``mul_latency``, built once per process."""
    return worker_cached(
        ("serve.ops", mul_latency),
        lambda: standard_operation_set(mul_latency=mul_latency),
    )


def _check_clock(dfg: DFG, mul_latency: int, clock_ns: float) -> None:
    """Refuse a clock shorter than a single-cycle kind's delay, the
    check every schedule of the design would fail.

    ``mul_latency`` decides only whether a multiplier is single-cycle,
    so two operation sets cover every request and admission keeps one
    cached object per set, not one per parameter pair.
    """
    timing = TimingModel(
        ops=_operation_set(min(mul_latency, 2)), clock_period_ns=clock_ns
    )
    try:
        for kind in dfg.kinds_used():
            timing.check_kind_fits_clock(kind)
    except ScheduleError as error:
        raise JobSpecError(f"'clock_ns' is too short: {error}") from None


def _default_library():
    from repro.library.ncr import datapath_library

    return worker_cached(("serve.library",), datapath_library)


def _remember_admission(dfg_json: str, identity: Tuple[str, str]) -> None:
    with _admitted_lock:
        _admitted.pop(dfg_json, None)
        _admitted[dfg_json] = identity
        if len(_admitted) > ADMISSION_MEMO_ENTRIES:
            del _admitted[next(iter(_admitted))]


def _design_identity(dfg_json: str) -> Tuple[str, str]:
    """``(design name, dfg_fingerprint)`` of a spec's ``dfg_json``."""
    identity = _admitted.get(dfg_json)
    if identity is None:
        dfg = dfg_from_json(dfg_json)
        identity = (dfg.name, dfg_fingerprint(dfg))
        _remember_admission(dfg_json, identity)
    return identity


def cache_key(spec: Mapping[str, Any]) -> str:
    """Content address of a job spec (the result-cache key)."""
    return key_and_fingerprint(spec)[0]


def spec_fingerprint(spec: Mapping[str, Any]) -> str:
    """The canonical DFG fingerprint of a spec (the ring routing key)."""
    return _design_identity(spec["dfg_json"])[1]


def key_and_fingerprint(spec: Mapping[str, Any]) -> Tuple[str, str]:
    """``(cache_key, dfg_fingerprint)`` of a job spec.

    The cache key combines the canonical DFG fingerprint
    (renaming/insertion-order free), the full parameter tuple, and — for
    allocation jobs — the cell library cost model.  The
    ``verify``/``trace`` flags are part of the key because they change
    the response payload (audit fields, the trace artifact), and cached
    responses are returned byte-identical.  The fingerprint is returned
    alongside because it is the *routing* key: the hash ring places
    each job on a shard by it.  A spec fresh from
    :func:`normalize_spec` is not parsed again: its design's name and
    fingerprint come from the admission memo.
    """
    design_name, fingerprint = _design_identity(spec["dfg_json"])
    params = {
        # The design name is erased by the structural fingerprint but
        # embedded in the response bytes, so it must key the cache.
        "design_name": design_name,
    }
    params.update(
        (key, spec[key])
        for key in (
            "version",
            "algorithm",
            "cs",
            "style",
            "mul_latency",
            "clock_ns",
            "latency_l",
            "pipelined",
            "seed",
            "verify",
            "trace",
        )
    )
    library_digest = None
    if spec["algorithm"] == "mfsa":
        library_digest = worker_cached(
            ("serve.library_digest",),
            lambda: library_fingerprint(_default_library()),
        )
    key = sha256_of(
        [
            "repro-serve-key",
            SPEC_VERSION,
            fingerprint,
            params_fingerprint(params),
            library_digest,
        ]
    )
    return key, fingerprint


def execute_spec(
    spec: Mapping[str, Any],
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one job spec to completion.

    Module-level and pure so :class:`~repro.sweep.SweepExecutor` can ship
    it to pool processes.  Returns ``(payload, perf_snapshot)``: the
    response payload (``payload["ok"]`` discriminates success), its
    ``result`` straight from the payload builder of
    :mod:`repro.io.jsonio`, and the
    :meth:`~repro.perf.PerfCounters.as_dict` snapshot for the caller to
    merge into the service-wide counters.  Job failures are *returned*,
    never raised, so one bad job cannot poison its batch.
    """
    perf = PerfCounters()
    try:
        fault_point("scheduler.run")
        payload = _execute(spec, perf)
    except Exception as error:
        payload = {
            "ok": False,
            "error": {"type": type(error).__name__, "message": str(error)},
        }
    return payload, perf.as_dict()


def execute_job(
    spec: Mapping[str, Any],
) -> Tuple[str, Optional[Dict[str, str]], Dict[str, Any]]:
    """:func:`execute_spec`, rendered in the worker — the service's sweep
    worker function.

    Returns ``(text, error, perf_snapshot)``: the job's
    :func:`response_text`, ``None`` for a job that succeeded or else the
    payload's ``error``, and the perf snapshot.  The text, not the
    payload, crosses the process boundary, and no event loop renders it.
    """
    payload, snapshot = execute_spec(spec)
    error = None if payload["ok"] else payload["error"]
    return response_text(payload), error, snapshot


def _execute(spec: Mapping[str, Any], perf: PerfCounters) -> Dict[str, Any]:
    from repro.core.mfs import MFSScheduler
    from repro.core.mfsa import MFSAScheduler
    from repro.io.jsonio import _schedule_payload, _synthesis_payload

    dfg = dfg_from_json(spec["dfg_json"])
    # Only the operation sets admission keeps (mul_latency 1 and 2) and
    # the cell library are cached per process; another mul_latency is
    # built for this job alone, so no client parameter grows a cache.
    # A TimingModel holds no caches of its own and is built per job.
    mul_latency = spec["mul_latency"]
    ops = (
        _operation_set(mul_latency)
        if mul_latency <= 2
        else standard_operation_set(mul_latency=mul_latency)
    )
    timing = TimingModel(ops=ops, clock_period_ns=spec["clock_ns"])
    cs = spec["cs"] or critical_path_length(dfg, timing)

    trace = None
    if spec["trace"]:
        from repro.trace import TraceRecorder

        trace = TraceRecorder()

    if spec["algorithm"] == "mfs":
        result = MFSScheduler(
            dfg,
            timing,
            cs=cs,
            mode="time",
            latency_l=spec["latency_l"],
            pipelined_kinds=tuple(spec["pipelined"]),
            record_alternatives=spec["verify"],
            perf=perf,
            trace=trace,
        ).run()
        result_obj = _schedule_payload(result.schedule)
    else:
        result = MFSAScheduler(
            dfg,
            timing,
            _default_library(),
            cs=cs,
            style=spec["style"],
            latency_l=spec["latency_l"],
            pipelined_kinds=tuple(spec["pipelined"]),
            record_alternatives=spec["verify"],
            perf=perf,
            trace=trace,
        ).run()
        result_obj = _synthesis_payload(result)

    payload: Dict[str, Any] = {
        "ok": True,
        "algorithm": spec["algorithm"],
        "design": dfg.name,
        "cs": cs,
        "result": result_obj,
    }
    if spec["verify"]:
        from repro.check import check_mfs_result, check_mfsa_result

        checker = (
            check_mfs_result if spec["algorithm"] == "mfs" else check_mfsa_result
        )
        report = checker(result)
        payload["verified"] = report.ok
        payload["checks_run"] = list(report.checks_run)
        if not report.ok:
            payload["ok"] = False
            payload["violations"] = [str(v) for v in report.violations]
            payload["error"] = {
                "type": "VerificationError",
                "message": f"{len(report.violations)} invariant violation(s)",
            }
    if trace is not None:
        payload["trace_jsonl"] = trace.to_jsonl()
    return payload


def response_text(payload: Mapping[str, Any]) -> str:
    """Canonical serialisation of a job result payload:
    ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``.

    This exact text is what the cache stores and what
    ``GET /v1/jobs/<id>/result`` returns, so the cold and cached paths
    are byte-identical by construction.  It is rendered directly by
    :func:`repro.io.jsonio.sorted_json`, which hands any value it does
    not spell to the encoder, so its bytes and errors are the
    encoder's.  The service renders it once per job, in the worker
    (:func:`execute_job`); no event loop calls it.
    """
    return sorted_json(payload) + "\n"
