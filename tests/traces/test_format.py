"""Replay-trace format: persistence, strictness, validation."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("field", ["compute", "time", "latency"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite(field, value):
    # NaN passed the negative-compute check, and nothing checked time or
    # latency at all.
    meta = TraceMeta(workload="x", n_nodes=1, file_blocks=10)
    trace = ReplayTrace(meta, [ReplayRecord(node=0, block=0, **{field: value})])
    with pytest.raises(TraceFormatError, match=f"record 0: {field} .* finite"):
        trace.validate()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_meta_rejects_non_finite_compute_mean(value):
    with pytest.raises(TraceFormatError, match="compute_mean must be finite"):
        TraceMeta(workload="x", n_nodes=1, file_blocks=10, compute_mean=value)


def test_load_rejects_infinity_naming_the_file(tmp_path):
    path = tmp_path / "t.jsonl"
    small_trace().save(path)
    with path.open("a") as fh:
        fh.write('{"node":0,"block":5,"compute":Infinity}\n')
    with pytest.raises(TraceFormatError, match=f"^{path}: record 3: compute"):
        ReplayTrace.load(path)


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


def write_header(path, version=2, **meta):
    """A header whose meta is a small valid one with ``meta`` on top,
    then one valid record."""
    header = {
        "format": "rapid-transit-trace", "kind": "replay",
        "version": version,
        "meta": {"workload": "x", "n_nodes": 2, "file_blocks": 4, **meta},
    }
    path.write_text(json.dumps(header) + '\n{"node":0,"block":1}\n')


@pytest.mark.parametrize(
    "field, value",
    [("n_nodes", "3"), ("file_blocks", None), ("n_nodes", 2.5),
     ("crosses_portions", "no"), ("workload", 5), ("extra", [1])],
)
def test_load_rejects_mistyped_meta_field(tmp_path, field, value):
    # Unchecked, the first three died with a bare TypeError, and the
    # rest loaded ("no" as a truthy crosses_portions).
    path = tmp_path / "t.jsonl"
    write_header(path, **{field: value})
    with pytest.raises(TraceFormatError) as err:
        ReplayTrace.load(path)
    assert str(err.value).startswith(
        f"{path}:1: trace meta field {field} must be "
    )


def test_load_rejects_bool_version(tmp_path):
    path = tmp_path / "t.jsonl"
    write_header(path, version=True)
    with pytest.raises(TraceFormatError) as err:
        ReplayTrace.load(path)
    assert str(err.value) == (
        f"{path}:1: unsupported replay trace version True "
        "(this build reads versions 1..2)"
    )


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "t.jsonl"
    small_trace().save(path)
    path.write_bytes(path.read_bytes() + b'{"node":0,"block":\xff}\n')
    with pytest.raises(TraceFormatError, match=f"^{path}:5: not UTF-8"):
        ReplayTrace.load(path)


@pytest.mark.parametrize(
    "value", ["[" * 100_000, "1" * 5000], ids=["deep", "long-int"]
)
def test_load_rejects_json_the_parser_cannot_hold(tmp_path, value):
    path = tmp_path / "t.jsonl"
    small_trace().save(path)
    with path.open("a") as fh:
        fh.write(f'{{"node":0,"block":{value}}}\n')
    with pytest.raises(TraceFormatError, match=f"^{path}:5: invalid JSON"):
        ReplayTrace.load(path)


#: Values a fuzzed field is retyped to.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_load_of_a_mutated_trace_is_valid_or_a_format_error(tmp_path, data):
    """Drop or retype a header, meta or record field, make a float field
    NaN or infinite, truncate or duplicate a line, or inject bytes: the
    loader returns a valid trace with finite numbers or raises
    TraceFormatError naming the file, nothing else."""
    path = tmp_path / "t.jsonl"
    small_trace().save(path)
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    mutation = data.draw(st.sampled_from(
        ["drop", "retype", "nonfinite", "truncate", "duplicate", "inject"]
    ))
    i = data.draw(st.integers(0, len(objs) - 1))
    if mutation in ("drop", "retype"):
        target = objs[i]
        if i == 0 and data.draw(st.booleans()):
            target = target["meta"]
        key = data.draw(st.sampled_from(sorted(target)))
        if mutation == "drop":
            del target[key]
        else:
            target[key] = data.draw(_JSON_VALUES)
    elif mutation == "nonfinite":
        target, keys = objs[i], ["compute", "time", "latency"]
        if i == 0:
            target, keys = target["meta"], ["compute_mean"]
        key = data.draw(st.sampled_from(keys))
        target[key] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
    lines = [json.dumps(obj).encode() for obj in objs]
    if mutation == "truncate":
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1))]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    blob = b"\n".join(lines) + b"\n"
    if mutation == "inject":
        at = data.draw(st.integers(0, len(blob)))
        blob = blob[:at] + data.draw(st.binary(min_size=1, max_size=4)) + (
            blob[at:]
        )
    path.write_bytes(blob)
    try:
        trace = ReplayTrace.load(path)
    except TraceFormatError as exc:
        assert str(path) in str(exc)
    else:
        trace.validate()
        assert math.isfinite(trace.meta.compute_mean)
        for r in trace.records:
            assert all(map(math.isfinite, (r.compute, r.time, r.latency)))
