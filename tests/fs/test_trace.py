"""Tests for the trace format's records, persistence and recording."""

import json

import pytest

from repro.fs.trace import (
    REPLAY_TRACE_VERSION,
    ReplayRecord,
    ReplayTrace,
    TraceFormatError,
    TraceMeta,
)

META = TraceMeta(workload="unit", n_nodes=2, file_blocks=20)


def header(**changes):
    return json.dumps({
        "format": "rapid-transit-trace", "kind": "replay", "version": 2,
        "meta": {"workload": "x", "n_nodes": 2, "file_blocks": 20},
        **changes,
    })


HEADER = header()


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n")


def test_record_roundtrip_json():
    r = ReplayRecord(node=3, block=42, compute=2.5, portion=1, op="w",
                     time=1.5, outcome="miss", latency=30.2, ref_index=7)
    assert ReplayRecord.from_json(r.to_json()) == r


def test_trace_container_basics():
    records = [ReplayRecord(node=i % 2, block=i) for i in range(4)]
    trace = ReplayTrace(META, records)
    assert len(trace) == 4
    assert trace[2].block == 2
    assert [r.block for r in trace] == [0, 1, 2, 3]
    assert [len(t) for t in trace.timelines()] == [2, 2]


def test_trace_time_sorted():
    # Analysis reads a timed trace in (time, node) order, whatever the
    # file order; an untimed one in file order.
    from repro.experiments.analysis import reuse_distances

    timed = ReplayTrace(META, [
        ReplayRecord(node=0, block=1, time=2.0),
        ReplayRecord(node=1, block=1, time=1.0),
        ReplayRecord(node=0, block=2, time=1.0),
    ])
    # Blocks 2, 1, 1: by time alone (stably) they would read 1, 2, 1.
    assert reuse_distances(timed) == [-1, -1, 0]
    timed.records.reverse()
    assert reuse_distances(timed) == [-1, -1, 0]
    untimed = ReplayTrace(META, [
        ReplayRecord(node=0, block=1),
        ReplayRecord(node=1, block=1),
        ReplayRecord(node=0, block=2),
    ])
    assert reuse_distances(untimed) == [-1, 0, -1]


def test_trace_save_load(tmp_path):
    # The recording run's provenance survives the round trip.
    records = [
        ReplayRecord(node=0, block=9, time=1.0, outcome="unready",
                     latency=12.5, ref_index=3),
        ReplayRecord(node=1, block=10, op="w", time=2.0, outcome="ready",
                     latency=0.9),
    ]
    path = tmp_path / "trace.jsonl"
    ReplayTrace(META, records).save(path)
    loaded = ReplayTrace.load(path)
    assert loaded.records == records
    assert loaded.meta == META


def test_save_stamps_version_header(tmp_path):
    path = tmp_path / "trace.jsonl"
    ReplayTrace(META, [ReplayRecord(node=0, block=1)]).save(path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first == {
        "format": "rapid-transit-trace",
        "kind": "replay",
        "version": REPLAY_TRACE_VERSION,
        "meta": META.to_dict(),
    }


def test_load_tolerates_blank_and_trailing_lines(tmp_path):
    record = ReplayRecord(node=0, block=1)
    path = tmp_path / "trace.jsonl"
    path.write_text("\n" + HEADER + "\n" + record.to_json() + "\n\n   \n")
    assert ReplayTrace.load(path).records == [record]


def test_load_rejects_unknown_field_with_line_number(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_lines(path, HEADER, '{"node":0,"block":1,"sparkle":2}')
    with pytest.raises(TraceFormatError) as err:
        ReplayTrace.load(path)
    assert "sparkle" in str(err.value)
    assert ":2:" in str(err.value)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_lines(path, HEADER, '{"node":0}')
    with pytest.raises(TraceFormatError, match="missing required"):
        ReplayTrace.load(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_lines(path, HEADER, "{not json")
    with pytest.raises(TraceFormatError, match=":2: invalid JSON"):
        ReplayTrace.load(path)


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_lines(path, header(kind="bogus"))
    with pytest.raises(TraceFormatError, match="expected 'replay'"):
        ReplayTrace.load(path)


def test_load_rejects_future_version(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_lines(path, header(version=REPLAY_TRACE_VERSION + 1))
    with pytest.raises(TraceFormatError, match="version"):
        ReplayTrace.load(path)


@pytest.mark.parametrize(
    "field, value",
    [("time", "x"), ("node", True), ("latency", None), ("block", 1.5)],
)
def test_load_rejects_mistyped_record(tmp_path, field, value):
    # Unchecked, a string time loads and dies later with a bare
    # TypeError when analysis sorts by time.
    record = {"node": 0, "block": 1, "time": 0.0, "latency": 30.0,
              field: value}
    path = tmp_path / "trace.jsonl"
    write_lines(path, HEADER, json.dumps(record))
    with pytest.raises(TraceFormatError, match=f":2: .*{field}"):
        ReplayTrace.load(path)


def test_from_json_rejects_non_object():
    with pytest.raises(TraceFormatError, match="JSON object"):
        ReplayRecord.from_json("[1, 2]")


def test_cache_records_trace():
    # One node reads block 1 twice: the recorder keeps the cache's
    # outcome and the latency of each access.
    from repro.traces import replay_config, run_replay

    trace = ReplayTrace(
        TraceMeta(workload="unit", n_nodes=1, file_blocks=4),
        [ReplayRecord(node=0, block=1)] * 2,
    )
    config = replay_config(trace).with_overrides(
        prefetch=False, n_disks=1, record_trace=True
    )
    recorded = run_replay(trace, config).trace
    assert [r.outcome for r in recorded] == ["miss", "ready"]
    # Latencies recorded per access.
    assert recorded[0].latency > recorded[1].latency > 0
