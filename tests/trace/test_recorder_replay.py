"""Recorder → JSONL → replay round-trip and schema validation."""

import pytest

from repro.core.grid import GridPosition
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.errors import TraceError
from repro.trace import (
    SCHEMA_VERSION,
    TraceRecorder,
    check_descent,
    descent_curve,
    node_energy_sequences,
    parse_jsonl,
    read_jsonl,
    split_runs,
    to_trajectory,
    validate_event,
    validate_events,
)


def traced_mfsa(dfg, timing, library, cs=None, **kwargs):
    from repro.dfg.analysis import critical_path_length

    trace = TraceRecorder()
    MFSAScheduler(
        dfg,
        timing,
        library,
        cs=cs or critical_path_length(dfg, timing),
        trace=trace,
        **kwargs,
    ).run()
    return trace


class TestRoundTrip:
    def test_events_survive_jsonl_identically(self, diamond_dfg, timing, alu_family):
        """emit → JSONL → load must reproduce the exact event stream."""
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        assert parse_jsonl(trace.to_jsonl()) == trace.events()

    def test_mfs_events_survive_jsonl_identically(self, diamond_dfg, timing):
        trace = TraceRecorder()
        MFSScheduler(diamond_dfg, timing, cs=4, trace=trace).run()
        assert parse_jsonl(trace.to_jsonl()) == trace.events()

    def test_write_and_read_file(self, tmp_path, diamond_dfg, timing, alu_family):
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        path = tmp_path / "run.trace.jsonl"
        trace.write_jsonl(path)
        assert read_jsonl(path) == trace.events()

    def test_header_carries_schema_version(self, diamond_dfg, timing, alu_family):
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        header = trace.events()[0]
        assert header["t"] == "trace.header"
        assert header["v"] == SCHEMA_VERSION

    def test_snapshot_is_headerless_and_picklable(
        self, diamond_dfg, timing, alu_family
    ):
        import pickle

        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        snapshot = trace.snapshot()
        assert all(event["t"] != "trace.header" for event in snapshot)
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot


class TestEventStream:
    def test_every_event_validates(self, diamond_dfg, timing, alu_family):
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        assert validate_events(trace.events()) == []

    def test_one_commit_per_operation(self, diamond_dfg, timing, alu_family):
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        commits = [e for e in trace.events() if e["t"] == "op.commit"]
        assert sorted(e["node"] for e in commits) == sorted(
            node.name for node in diamond_dfg
        )

    def test_mfsa_candidates_carry_energy_breakdown(
        self, diamond_dfg, timing, alu_family
    ):
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        cands = [e for e in trace.events() if e["t"] == "cand.eval"]
        assert cands
        for event in cands:
            assert event["e"] == pytest.approx(
                event["ft"] + event["fa"] + event["fm"] + event["fr"]
            )

    def test_mfs_emits_frames_and_run_summary(self, diamond_dfg, timing):
        trace = TraceRecorder()
        result = MFSScheduler(diamond_dfg, timing, cs=4, trace=trace).run()
        events = trace.events()
        assert any(e["t"] == "frame.built" for e in events)
        end = events[-1]
        assert end["t"] == "run.end"
        assert end["commits"] == len(diamond_dfg)
        assert end["fu_counts"] == result.fu_counts

    def test_counters_event_only_with_perf(self, diamond_dfg, timing, alu_family):
        from repro.perf import PerfCounters

        bare = traced_mfsa(diamond_dfg, timing, alu_family)
        assert not any(e["t"] == "perf.counters" for e in bare.events())
        withperf = TraceRecorder()
        MFSAScheduler(
            diamond_dfg,
            timing,
            alu_family,
            cs=4,
            trace=withperf,
            perf=PerfCounters(),
        ).run()
        snapshots = [
            e for e in withperf.events() if e["t"] == "perf.counters"
        ]
        assert len(snapshots) == 1
        assert snapshots[0]["counters"]["mfsa.candidates_evaluated"] > 0

    def test_tracing_does_not_change_the_schedule(
        self, diamond_dfg, timing, alu_family
    ):
        plain = MFSAScheduler(diamond_dfg, timing, alu_family, cs=4).run()
        trace = TraceRecorder()
        traced = MFSAScheduler(
            diamond_dfg, timing, alu_family, cs=4, trace=trace
        ).run()
        assert traced.schedule.starts == plain.schedule.starts
        assert traced.alu_labels() == plain.alu_labels()


class TestReplay:
    def test_replayed_trajectory_matches_the_live_one(
        self, diamond_dfg, timing, alu_family
    ):
        trace = TraceRecorder()
        result = MFSAScheduler(
            diamond_dfg,
            timing,
            alu_family,
            cs=4,
            trace=trace,
            record_alternatives=True,
        ).run()
        (run,) = split_runs(trace.events())
        replayed = to_trajectory(run)
        live = result.trajectory
        assert [e.node for e in replayed.events] == [e.node for e in live.events]
        for rep, orig in zip(replayed.events, live.events):
            assert rep.position == orig.position
            assert rep.energy == pytest.approx(orig.energy)
            assert dict(rep.alternatives) == pytest.approx(
                dict(orig.alternatives)
            )

    def test_check_descent_passes_on_real_runs(
        self, diamond_dfg, timing, alu_family
    ):
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        assert check_descent(trace.events()) == []

    def test_check_descent_flags_a_forged_energy(
        self, diamond_dfg, timing, alu_family
    ):
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        events = trace.events()
        commit = next(e for e in events if e["t"] == "op.commit")
        commit["e"] += 1000.0  # no longer the argmin of its frame
        violations = check_descent(events)
        assert violations
        assert any(v.code.startswith("liapunov.") for v in violations)

    def test_descent_curve_and_sequences(self, diamond_dfg, timing, alu_family):
        trace = traced_mfsa(diamond_dfg, timing, alu_family)
        (run,) = split_runs(trace.events())
        curve = descent_curve(run)
        assert len(curve) == len(diamond_dfg)
        sequences = node_energy_sequences(run)
        assert set(sequences) == {node.name for node in diamond_dfg}
        for energies in sequences.values():
            assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_split_runs_separates_two_runs(self, diamond_dfg, timing, alu_family):
        trace = TraceRecorder()
        MFSAScheduler(diamond_dfg, timing, alu_family, cs=4, trace=trace).run()
        MFSAScheduler(diamond_dfg, timing, alu_family, cs=5, trace=trace).run()
        runs = split_runs(trace.events())
        assert len(runs) == 2
        assert runs[0][0]["cs"] == 4
        assert runs[1][0]["cs"] == 5
        assert check_descent(trace.events()) == []


class TestMalformedInput:
    def test_bad_json_raises_trace_error(self):
        with pytest.raises(TraceError):
            parse_jsonl('{"t": "run.start"\n')

    def test_missing_required_field_raises(self):
        header = '{"t":"trace.header","v":1}\n'
        bad = '{"t":"cand.eval","i":0,"node":"n0"}\n'
        with pytest.raises(TraceError):
            parse_jsonl(header + bad)

    def test_future_schema_version_raises(self):
        with pytest.raises(TraceError):
            parse_jsonl('{"t":"trace.header","v":999}\n')

    def test_validate_event_reports_unknown_type(self):
        assert validate_event({"t": "no.such.event", "i": 0}) is not None

    def test_manual_candidate_event_roundtrips(self):
        trace = TraceRecorder()
        trace.run_start("mfs", "manual", 3)
        trace.candidate("n0", "add", 1, 0, 2.5)
        trace.candidates(
            "n0", "add", [(GridPosition("add", 1, 1), 3.5)]
        )
        trace.commit("n0", "add", "add", 1, 0, 2.5, 1)
        trace.run_end(commits=1)
        events = parse_jsonl(trace.to_jsonl())
        assert events == trace.events()
        assert validate_events(events) == []
