"""CSV importer: normalization, derivation, and rejection paths."""

import pytest

from repro.fs.trace import TraceFormatError
from repro.traces import import_csv_trace, run_replay


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_basic_import(tmp_path):
    path = write(
        tmp_path,
        "time,node,block,compute,portion\n"
        "0.0,7,10,3.0,0\n"
        "4.0,7,11,2.0,0\n"
        "1.0,9,50,1.0,0\n",
    )
    trace = import_csv_trace(path, workload="ext")
    assert trace.meta.workload == "ext"
    assert trace.meta.source == "imported"
    assert trace.meta.n_nodes == 2
    assert trace.meta.file_blocks == 51
    # Arbitrary node ids remapped densely, first-appearance order.
    assert trace.meta.extra["node_map"] == {"7": 0, "9": 1}
    timelines = trace.timelines()
    assert [r.block for r in timelines[0]] == [10, 11]
    assert [r.compute for r in timelines[0]] == [3.0, 2.0]


def test_out_of_order_timestamps_are_sorted(tmp_path):
    path = write(
        tmp_path,
        "time,node,block\n"
        "9.0,a,3\n"
        "1.0,a,1\n"
        "5.0,a,2\n",
    )
    trace = import_csv_trace(path)
    assert [r.block for r in trace.timelines()[0]] == [1, 2, 3]
    assert trace.meta.extra["sorted"] is True


def test_compute_derived_from_inter_arrival(tmp_path):
    path = write(
        tmp_path,
        "time,node,block\n"
        "0.0,a,1\n"
        "10.0,a,2\n"
        "25.0,a,3\n",
    )
    trace = import_csv_trace(path)
    # Gap to the next read becomes this read's think time; last is 0.
    assert [r.compute for r in trace.timelines()[0]] == [10.0, 15.0, 0.0]
    assert trace.meta.extra["compute_derived"] is True


def test_portions_derived_from_sequential_runs(tmp_path):
    path = write(
        tmp_path,
        "time,node,block\n"
        "0,a,5\n1,a,6\n2,a,7\n3,a,90\n4,a,91\n5,a,3\n",
    )
    trace = import_csv_trace(path)
    assert [r.portion for r in trace.timelines()[0]] == [0, 0, 0, 1, 1, 2]


def test_unknown_column_rejected(tmp_path):
    path = write(tmp_path, "time,node,block,vibes\n0,a,1,9\n")
    with pytest.raises(TraceFormatError, match="vibes"):
        import_csv_trace(path)


def test_missing_column_rejected(tmp_path):
    path = write(tmp_path, "time,node\n0,a\n")
    with pytest.raises(TraceFormatError, match="block"):
        import_csv_trace(path)


def test_bad_number_names_line(tmp_path):
    path = write(tmp_path, "time,node,block\n0,a,1\nnope,a,2\n")
    with pytest.raises(TraceFormatError, match=":3:"):
        import_csv_trace(path)


def test_bad_number_after_a_multiline_field_names_its_line(tmp_path):
    path = write(tmp_path, 'time,node,block\n0,"a\nb",1\nx,a,2\n', "ml.csv")
    with pytest.raises(
        TraceFormatError,
        match=f"^{path}:4: column 'time': 'x' is not a number$",
    ):
        import_csv_trace(path)


def test_non_utf8_byte_names_the_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"time,node,block\n0,a,1\n1,\xff,2\n")
    with pytest.raises(TraceFormatError, match=f"^{path}:3: not UTF-8"):
        import_csv_trace(path)


@pytest.mark.parametrize("column", ["time", "compute"])
@pytest.mark.parametrize("raw", ["1e400", "nan", "-inf"])
def test_non_finite_number_rejected(tmp_path, column, raw):
    # Unchecked, a time of 1e400 imported as Infinity and replayed to an
    # infinite total time.
    row = {"time": "1", "compute": "2.0"}
    row[column] = raw
    path = write(
        tmp_path,
        "time,node,block,compute\n0,a,1,1.0\n"
        f"{row['time']},a,2,{row['compute']}\n",
    )
    with pytest.raises(TraceFormatError) as err:
        import_csv_trace(path)
    assert str(err.value) == (
        f"{path}:3: column {column!r}: {raw!r} is not finite"
    )


def test_negative_block_rejected(tmp_path):
    path = write(tmp_path, "time,node,block\n0,a,-4\n")
    with pytest.raises(TraceFormatError, match="negative block"):
        import_csv_trace(path)


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "time,node,block\n0,a\n")
    with pytest.raises(TraceFormatError, match="expected 3 fields"):
        import_csv_trace(path)


def test_empty_and_headerless_files(tmp_path):
    with pytest.raises(TraceFormatError, match="no header"):
        import_csv_trace(write(tmp_path, "", name="empty.csv"))
    with pytest.raises(TraceFormatError, match="no data rows"):
        import_csv_trace(write(tmp_path, "time,node,block\n\n"))


def test_declared_file_blocks_must_cover(tmp_path):
    path = write(tmp_path, "time,node,block\n0,a,99\n")
    with pytest.raises(TraceFormatError, match="outside"):
        import_csv_trace(path, file_blocks=50)
    trace = import_csv_trace(path, file_blocks=200)
    assert trace.meta.file_blocks == 200


def test_blank_lines_tolerated(tmp_path):
    path = write(tmp_path, "time,node,block\n\n0,a,1\n\n1,a,2\n")
    assert len(import_csv_trace(path)) == 2


def test_imported_trace_replays(tmp_path):
    path = write(
        tmp_path,
        "time,node,block\n"
        "0.0,a,0\n10.0,a,1\n20.0,a,2\n"
        "0.0,b,10\n10.0,b,11\n20.0,b,12\n",
    )
    trace = import_csv_trace(path)
    result = run_replay(trace)
    assert result.total_accesses == 6
