"""Exporters: Perfetto schema, CSV alignment, ASCII rendering."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.obs import (
    TimelineRegistry,
    render_ascii,
    run_with_obs,
    spans_to_csv,
    timelines_to_csv,
    to_perfetto,
    validate_perfetto,
)

TINY = dict(n_nodes=3, n_disks=2, file_blocks=120, total_reads=120)


@pytest.fixture(scope="module")
def observed():
    config = ExperimentConfig(
        pattern="grp", sync_style="none", seed=3, **TINY
    )
    return run_with_obs(config)


def test_perfetto_validates_and_round_trips_json(observed):
    _, data = observed
    payload = to_perfetto(data)
    assert validate_perfetto(payload) == []
    # Survives JSON serialization (what `obs export` writes).
    assert validate_perfetto(json.loads(json.dumps(payload))) == []
    assert payload["displayTimeUnit"] == "ms"
    assert payload["otherData"]["obs_digest"] == data.digest


def test_perfetto_one_thread_track_per_node_disk_daemon(observed):
    _, data = observed
    payload = to_perfetto(data)
    threads = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    names = set(threads.values())
    for node_id in range(TINY["n_nodes"]):
        assert f"node {node_id}" in names
        assert f"daemon {node_id}" in names
    for disk_id in range(TINY["n_disks"]):
        assert f"disk {disk_id}" in names


def test_validator_catches_violations():
    assert validate_perfetto([]) == ["top level: expected a JSON object"]
    assert validate_perfetto({}) == ["traceEvents: expected a list"]
    bad = {"traceEvents": [
        {"name": "x", "ph": "Z", "pid": 1},
        {"name": "", "ph": "C", "pid": 1, "ts": 0, "args": {"g": 1}},
        {"name": "x", "ph": "X", "pid": 1, "tid": 9, "ts": -5, "dur": 1},
    ]}
    errors = validate_perfetto(bad)
    assert any("unknown phase" in e for e in errors)
    assert any("missing event name" in e for e in errors)
    assert any("ts must be" in e for e in errors)
    assert any("no thread_name" in e for e in errors)


def test_timelines_csv_rows_align(observed):
    _, data = observed
    text = timelines_to_csv(data.timelines)
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "time_ms"
    assert "cache.occupancy" in header
    assert "reads.completed" in header
    widths = {len(line.split(",")) for line in lines}
    assert widths == {len(header)}
    assert len(lines) > 2  # at least a couple of sample rows


def test_timelines_csv_places_a_late_series_by_its_first_sample():
    registry = TimelineRegistry()
    registry.register_gauge("a", lambda: 1.0)
    registry.sample_all(50.0)
    registry.register_gauge("late", lambda: 7.0)
    registry.sample_all(100.0)
    assert timelines_to_csv(registry) == (
        "time_ms,a,late\n50.0,1.0,\n100.0,1.0,7.0\n"
    )


def test_spans_csv_has_every_span(observed):
    _, data = observed
    lines = spans_to_csv(data.spans).strip().splitlines()
    assert lines[0].startswith("track_kind,track_id,cat,name")
    assert len(lines) == 1 + len(data.spans.spans)


def test_ascii_render_has_one_lane_per_track(observed):
    _, data = observed
    text = render_ascii(data, width=40)
    lines = text.splitlines()
    assert len(lines) == 2 + len(data.spans.tracks())  # header + legend
    assert all("|" in lane for lane in lines[2:])
    node_only = render_ascii(data, width=40, kinds=("node",))
    assert len(node_only.splitlines()) == 2 + TINY["n_nodes"]
    with pytest.raises(ValueError):
        render_ascii(data, width=4)
