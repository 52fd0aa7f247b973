"""Tests for access-trace recording and persistence."""

import json

import pytest

from repro.fs import Trace, TraceRecord
from repro.fs.trace import ACCESS_TRACE_VERSION, TraceFormatError
from repro.traces import ReplayRecord, ReplayTrace, TraceMeta

from ..helpers import build_stack, user_read_many


def test_record_roundtrip_json():
    r = TraceRecord(time=1.5, node=3, block=42, outcome="miss", latency=30.2,
                    ref_index=7)
    assert TraceRecord.from_json(r.to_json()) == r


def test_trace_validates_outcome():
    trace = Trace()
    with pytest.raises(ValueError):
        trace.append(
            TraceRecord(time=0, node=0, block=0, outcome="banana", latency=0)
        )


def test_trace_container_basics():
    records = [
        TraceRecord(time=float(i), node=i % 2, block=i, outcome="miss",
                    latency=30.0)
        for i in range(4)
    ]
    trace = Trace(records)
    assert len(trace) == 4
    assert trace[2].block == 2
    assert trace.blocks() == [0, 1, 2, 3]
    assert len(trace.by_node(0)) == 2
    assert trace.outcome_counts() == {"ready": 0, "unready": 0, "miss": 4}


def test_trace_time_sorted():
    records = [
        TraceRecord(time=5.0, node=0, block=1, outcome="miss", latency=1.0),
        TraceRecord(time=1.0, node=1, block=2, outcome="ready", latency=1.0),
    ]
    out = Trace(records).time_sorted()
    assert [r.block for r in out] == [2, 1]


def test_trace_save_load(tmp_path):
    records = [
        TraceRecord(time=1.0, node=0, block=9, outcome="unready",
                    latency=12.5, ref_index=3),
        TraceRecord(time=2.0, node=1, block=10, outcome="ready", latency=0.9),
    ]
    path = tmp_path / "trace.jsonl"
    Trace(records).save(path)
    loaded = Trace.load(path)
    assert loaded.records == records


def test_save_stamps_version_header(tmp_path):
    path = tmp_path / "trace.jsonl"
    Trace([
        TraceRecord(time=0.0, node=0, block=1, outcome="miss", latency=1.0)
    ]).save(path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {
        "format": "rapid-transit-trace",
        "kind": "access",
        "version": ACCESS_TRACE_VERSION,
    }


def test_load_accepts_headerless_legacy_file(tmp_path):
    record = TraceRecord(
        time=0.0, node=0, block=1, outcome="miss", latency=1.0
    )
    path = tmp_path / "legacy.jsonl"
    path.write_text(record.to_json() + "\n")
    assert Trace.load(path).records == [record]


def test_load_tolerates_blank_and_trailing_lines(tmp_path):
    record = TraceRecord(
        time=0.0, node=0, block=1, outcome="miss", latency=1.0
    )
    path = tmp_path / "trace.jsonl"
    path.write_text("\n" + record.to_json() + "\n\n   \n")
    assert Trace.load(path).records == [record]


def test_load_rejects_unknown_field_with_line_number(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"time":0,"node":0,"block":1,"outcome":"miss","latency":1,'
        '"sparkle":2}\n'
    )
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert "sparkle" in str(err.value)
    assert ":1:" in str(err.value)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"time":0,"node":0}\n')
    with pytest.raises(TraceFormatError, match="missing required"):
        Trace.load(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"format":"rapid-transit-trace","kind":"access",'
                    '"version":1}\n{not json\n')
    with pytest.raises(TraceFormatError, match=":2:"):
        Trace.load(path)


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"format":"rapid-transit-trace","kind":"replay","version":1}\n'
    )
    with pytest.raises(TraceFormatError, match="expected 'access'"):
        Trace.load(path)


def test_load_of_a_replay_trace_names_the_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    meta = TraceMeta(workload="x", n_nodes=1, file_blocks=4)
    ReplayTrace(meta, [ReplayRecord(node=0, block=1)]).save(path)
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert str(err.value) == (
        f"{path}:1: trace file holds a 'replay' trace, expected 'access'"
    )


def test_load_rejects_future_version(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"format":"rapid-transit-trace","kind":"access","version":42}\n'
    )
    with pytest.raises(TraceFormatError, match="version"):
        Trace.load(path)


@pytest.mark.parametrize(
    "field, value",
    [("outcome", "bogus"), ("time", "x"), ("node", True), ("latency", None),
     ("block", 1.5)],
)
def test_load_rejects_mistyped_record(tmp_path, field, value):
    # Unchecked, an unknown outcome loads silently and a string time dies
    # later with a bare TypeError in time_sorted().
    record = {"time": 0.0, "node": 0, "block": 1, "outcome": "miss",
              "latency": 30.0, field: value}
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(TraceFormatError, match=f":1: .*{field}"):
        Trace.load(path)


def test_from_json_rejects_non_object():
    with pytest.raises(TraceFormatError, match="JSON object"):
        TraceRecord.from_json("[1, 2]")


def test_cache_records_trace():
    env, machine, file, cache, server, metrics = build_stack()
    trace = Trace()
    trace.tap(env)
    env.process(user_read_many(server, machine.nodes[0], [1, 1]))
    env.run()
    counts = trace.outcome_counts()
    assert counts["miss"] == 1
    assert counts["ready"] == 1
    # Latencies recorded per access.
    assert trace[0].latency > trace[1].latency
