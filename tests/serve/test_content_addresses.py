"""Content-address goldens: keys written by older builds stay valid.

Router L2 entries, shard L1 entries and journals are addressed by the
serve cache key, and the hash ring places them by the DFG fingerprint.
``tests/golden/content_addresses.json`` pins both, plus the sha256 of
the canonical ``spec["dfg_json"]`` text, for the six paper examples ×
{``mfs``, ``mfsa`` style 1, ``mfsa`` style 2}, and the default cell
library's fingerprint.  A diff here orphans every stored result, so it
is only ever refreshed together with a ``SPEC_VERSION`` or
``FINGERPRINT_VERSION`` bump::

    PYTHONPATH=src python -c "
    import json
    from tests.serve.test_content_addresses import content_addresses
    open('tests/golden/content_addresses.json', 'w').write(
        json.dumps(content_addresses(), indent=2, sort_keys=True) + '\\n')
    "
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.bench.suites import EXAMPLES
from repro.dfg.fingerprint import library_fingerprint
from repro.io.jsonio import dfg_to_json
from repro.library.ncr import datapath_library
from repro.serve import jobs
from repro.serve.jobs import (
    cache_key,
    key_and_fingerprint,
    normalize_spec,
    spec_fingerprint,
)

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"

#: (algorithm, style) of every pinned job; ``None`` leaves style absent.
JOBS = (("mfs", None), ("mfsa", 1), ("mfsa", 2))


def example_bodies():
    """``(label, algorithm, body)`` for every pinned job."""
    for name, example in sorted(EXAMPLES.items()):
        body = {
            "dfg": json.loads(dfg_to_json(example.build())),
            "cs": example.mfsa_cs,
            "mul_latency": example.mfsa_mul_latency,
        }
        if example.mfsa_clock_ns is not None:
            body["clock_ns"] = example.mfsa_clock_ns
        for algorithm, style in JOBS:
            job_body = dict(body) if style is None else dict(body, style=style)
            label = f"{name}/{algorithm}" + ("" if style is None else f"/s{style}")
            yield label, algorithm, job_body


def content_addresses(between=lambda: None):
    """The pinned values, computed through the public serve API.

    ``between`` runs after each ``normalize_spec`` and before the keys
    are taken from its spec (the tests use it to empty the admission
    memo).
    """
    entries = {}
    for label, algorithm, body in example_bodies():
        spec = normalize_spec(algorithm, body)
        between()
        key = cache_key(spec)
        between()
        fingerprint = spec_fingerprint(spec)
        entries[label] = {
            "cache_key": key,
            "dfg_fingerprint": fingerprint,
            "dfg_json_sha256": hashlib.sha256(
                spec["dfg_json"].encode("utf-8")
            ).hexdigest(),
        }
    return {
        "jobs": entries,
        "library_fingerprint": library_fingerprint(datapath_library()),
    }


def golden():
    return json.loads((GOLDEN / "content_addresses.json").read_text())


class TestContentAddresses:
    def test_memo_cold(self):
        assert content_addresses(between=jobs._admitted.clear) == golden()

    def test_memo_warm(self):
        jobs._admitted.clear()
        assert content_addresses() == golden()

    def test_key_and_fingerprint_agrees_with_both_halves(self):
        pinned = golden()["jobs"]
        for label, algorithm, body in example_bodies():
            expected = (
                pinned[label]["cache_key"],
                pinned[label]["dfg_fingerprint"],
            )
            spec = normalize_spec(algorithm, body)
            assert key_and_fingerprint(spec) == expected
            jobs._admitted.clear()
            assert key_and_fingerprint(spec) == expected
