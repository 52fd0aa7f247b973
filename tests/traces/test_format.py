"""Replay-trace format: persistence, strictness, validation."""

import json

import pytest

from repro.fs.trace import TraceFormatError
from repro.traces import (
    REPLAY_TRACE_VERSION,
    ReplayRecord,
    ReplayTrace,
    TraceMeta,
)


def small_trace():
    meta = TraceMeta(workload="unit", n_nodes=2, file_blocks=10)
    records = [
        ReplayRecord(node=0, block=3, compute=1.5, portion=0),
        ReplayRecord(node=1, block=7, compute=0.0, portion=0, sync_joins=1),
        ReplayRecord(node=0, block=4, compute=2.0, portion=1),
    ]
    return ReplayTrace(meta, records)


def test_save_load_roundtrip(tmp_path):
    trace = small_trace()
    path = tmp_path / "t.jsonl"
    trace.save(path)
    back = ReplayTrace.load(path)
    assert back.meta == trace.meta
    assert back.records == trace.records


def test_save_writes_versioned_header(tmp_path):
    path = tmp_path / "t.jsonl"
    small_trace().save(path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["format"] == "rapid-transit-trace"
    assert header["kind"] == "replay"
    assert header["version"] == REPLAY_TRACE_VERSION
    assert header["meta"]["workload"] == "unit"


def test_load_tolerates_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    small_trace().save(path)
    lines = path.read_text().splitlines()
    lines.insert(1, "")
    lines.append("   ")
    lines.append("")
    path.write_text("\n".join(lines) + "\n")
    assert len(ReplayTrace.load(path)) == 3


def test_load_requires_header(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"node":0,"block":1}\n')
    with pytest.raises(TraceFormatError, match="header"):
        ReplayTrace.load(path)


def test_load_rejects_access_trace(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"format":"rapid-transit-trace","kind":"access","version":1}\n'
    )
    with pytest.raises(TraceFormatError, match="expected 'replay'"):
        ReplayTrace.load(path)


def test_load_rejects_future_version(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"format":"rapid-transit-trace","kind":"replay","version":99,'
        '"meta":{"workload":"x","n_nodes":1,"file_blocks":1}}\n'
    )
    with pytest.raises(TraceFormatError, match="version"):
        ReplayTrace.load(path)


def test_load_rejects_unknown_record_field(tmp_path):
    trace = small_trace()
    path = tmp_path / "t.jsonl"
    trace.save(path)
    with path.open("a") as fh:
        fh.write('{"node":0,"block":1,"bogus":3}\n')
    with pytest.raises(TraceFormatError) as err:
        ReplayTrace.load(path)
    assert "bogus" in str(err.value)
    assert ":5:" in str(err.value)  # header + 3 records + bad line


def test_load_rejects_missing_required_field(tmp_path):
    trace = small_trace()
    path = tmp_path / "t.jsonl"
    trace.save(path)
    with path.open("a") as fh:
        fh.write('{"node":0}\n')
    with pytest.raises(TraceFormatError, match="block"):
        ReplayTrace.load(path)


@pytest.mark.parametrize(
    "field, value",
    [("compute", "x"), ("block", "y"), ("node", 1.5), ("portion", None),
     ("sync_joins", True)],
)
def test_load_rejects_mistyped_record_field(tmp_path, field, value):
    # Unchecked, each of these reaches validate() as a wrong type and
    # dies with a bare TypeError (or, for a bool, loads as a number).
    trace = small_trace()
    path = tmp_path / "t.jsonl"
    trace.save(path)
    record = {"node": 0, "block": 5, field: value}
    with path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(TraceFormatError, match=f":5: .*'{field}'"):
        ReplayTrace.load(path)


def test_load_rejects_unknown_meta_field(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"format":"rapid-transit-trace","kind":"replay","version":1,'
        '"meta":{"workload":"x","n_nodes":1,"file_blocks":1,"zap":2}}\n'
        '{"node":0,"block":0}\n'
    )
    with pytest.raises(TraceFormatError, match="zap"):
        ReplayTrace.load(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("\n\n")
    with pytest.raises(TraceFormatError, match="empty"):
        ReplayTrace.load(path)


def test_load_names_the_file_on_a_header_error(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"format":"rapid-transit-trace","kind":"access","version":1}\n'
    )
    with pytest.raises(TraceFormatError) as err:
        ReplayTrace.load(path)
    assert str(err.value) == (
        f"{path}:1: trace file holds a 'access' trace, expected 'replay'"
    )


def test_load_names_the_file_on_a_validation_error(tmp_path):
    path = tmp_path / "t.jsonl"
    meta = TraceMeta(workload="x", n_nodes=3, file_blocks=10)
    ReplayTrace(meta, [ReplayRecord(node=9, block=0)]).save(path)
    with pytest.raises(TraceFormatError) as err:
        ReplayTrace.load(path)
    assert str(err.value) == f"{path}: record 0: node 9 outside 0..2"


def test_validate_node_out_of_range():
    meta = TraceMeta(workload="x", n_nodes=1, file_blocks=10)
    trace = ReplayTrace(meta, [ReplayRecord(node=5, block=0)])
    with pytest.raises(TraceFormatError, match="node 5"):
        trace.validate()


def test_validate_block_out_of_range():
    meta = TraceMeta(workload="x", n_nodes=1, file_blocks=10)
    trace = ReplayTrace(meta, [ReplayRecord(node=0, block=10)])
    with pytest.raises(TraceFormatError, match="block 10"):
        trace.validate()


def test_validate_negative_compute():
    meta = TraceMeta(workload="x", n_nodes=1, file_blocks=10)
    trace = ReplayTrace(meta, [ReplayRecord(node=0, block=0, compute=-1.0)])
    with pytest.raises(TraceFormatError, match="compute"):
        trace.validate()


def test_validate_decreasing_portions():
    meta = TraceMeta(workload="x", n_nodes=1, file_blocks=10)
    trace = ReplayTrace(
        meta,
        [
            ReplayRecord(node=0, block=0, portion=2),
            ReplayRecord(node=0, block=1, portion=1),
        ],
    )
    with pytest.raises(TraceFormatError, match="portion"):
        trace.validate()


def test_validate_empty_trace():
    meta = TraceMeta(workload="x", n_nodes=1, file_blocks=10)
    with pytest.raises(TraceFormatError, match="no records"):
        ReplayTrace(meta, []).validate()


def test_meta_rejects_bad_source():
    with pytest.raises(TraceFormatError, match="source"):
        TraceMeta(workload="x", n_nodes=1, file_blocks=1, source="dreamt")


def test_timelines_and_pattern():
    trace = small_trace()
    timelines = trace.timelines()
    assert [r.block for r in timelines[0]] == [3, 4]
    assert [r.block for r in timelines[1]] == [7]
    pattern = trace.to_pattern()
    assert pattern.scope == "local"
    assert pattern.name == "trace:unit"
    assert list(pattern.strings[0]) == [3, 4]
    assert list(pattern.portions[0]) == [0, 1]


def test_stats_shape():
    stats = small_trace().stats()
    assert stats["n_records"] == 3
    assert stats["reads_per_node"] == [2, 1]
    assert stats["sync_joins"] == 1
    assert stats["compute_total"] == pytest.approx(3.5)
    assert stats["sequentiality"] == pytest.approx(1.0)  # 3 -> 4
