"""A journal written by an earlier build replays byte-identically.

``tests/golden/journal.jsonl`` is a shard's write-ahead journal as a
crash left it: admit and complete records of an MFS job, an MFSA job run
with ``verify=1`` and a failed MFS job (``ex1`` at ``cs`` 1), then the
admit record of an MFSA job that never completed.
``tests/golden/journal_pending.json`` holds the text an uninterrupted
run gave that pending job.  A shard booted on a copy of the journal must
answer every recorded job with the recorded bytes, hold each done job's
text as its cache entry, and recompute the pending job to the recorded
text: the bytes a journal stores are the bytes the service answers,
whichever build wrote them.

The files were recorded with the service itself; refresh them only
after a deliberate change of the answers, by booting a shard on a state
dir, submitting the three jobs, copying its journal and appending the
pending admit (``JobJournal.record_admit``).
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.serve import Client, ServeApp

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"


def recorded_completes():
    records = [
        json.loads(line)
        for line in (GOLDEN / "journal.jsonl").read_text().splitlines()
    ]
    return [record for record in records if record["event"] == "complete"]


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    state = tmp_path_factory.mktemp("replay")
    shutil.copy(GOLDEN / "journal.jsonl", state / "jobs.journal.jsonl")
    app = ServeApp(port=0, backend="serial", state_dir=str(state))
    with app.start_in_thread() as handle:
        yield app, Client(handle.url)


def test_the_golden_holds_each_kind_of_job():
    completes = recorded_completes()
    assert sorted(record["status"] for record in completes) == [
        "done",
        "done",
        "failed",
    ]
    payloads = [json.loads(record["text"]) for record in completes]
    assert {payload.get("algorithm") for payload in payloads} >= {"mfs", "mfsa"}
    assert any(payload.get("verified") is True for payload in payloads)
    assert sorted(json.loads((GOLDEN / "journal_pending.json").read_text())) == [
        "j-pending-ex3-mfsa-s2"
    ]


def test_recorded_results_answer_byte_identically(replayed):
    app, client = replayed
    for record in recorded_completes():
        info = client.job(record["id"])
        assert info["job"]["status"] == record["status"]
        assert client.result_text(record["id"]) == record["text"]
        if record["status"] == "done":
            assert app.cache.get(record["key"]) == record["text"]


def test_the_pending_job_recomputes_the_recorded_text(replayed):
    app, client = replayed
    expected = json.loads((GOLDEN / "journal_pending.json").read_text())
    for job_id, text in expected.items():
        info = client.wait_for(job_id, timeout=60)
        assert info["job"]["status"] == "done"
        assert client.result_text(job_id) == text
        assert app.cache.get(info["job"]["key"]) == text
