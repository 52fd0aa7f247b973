"""Round-trip fidelity: record a run, replay it, get the same run back.

The acceptance bar from the issue: replaying a recorded trace of any
paper pattern with the same seed and prefetching off reproduces the
per-node block sequence *exactly*, the hit ratio exactly, and total time
within 1%; and a replayed run passes the determinism audit.
"""

from dataclasses import replace

import pytest

from repro.analysis.audit import run_twice_and_diff
from repro.experiments.config import ExperimentConfig
from repro.traces import (
    ReplayTrace,
    make_synthetic_trace,
    record_run,
    replay_config,
    replay_pair,
    run_replay,
)

# record_trace: replays of these configs record too (per_node_blocks).
SMALL = dict(
    n_nodes=4, n_disks=4, file_blocks=400, total_reads=400, seed=11,
    record_trace=True,
)


def small_config(pattern, sync="none", **kw):
    return ExperimentConfig(
        pattern=pattern, sync_style=sync, prefetch=False, **{**SMALL, **kw}
    )


def per_node_blocks(result):
    out = {}
    for rec in result.trace.records:
        out.setdefault(rec.node, []).append(rec.block)
    return out


@pytest.mark.parametrize(
    "pattern,sync",
    [
        ("gw", "none"),
        ("gfp", "portion"),
        ("grp", "none"),
        ("lw", "per-proc"),
        ("lfp", "total"),
        ("lfp", "portion"),
        ("lrp", "none"),
        ("lfp-rw", "none"),
        ("wstream", "none"),
    ],
)
def test_record_replay_fidelity(pattern, sync):
    config = small_config(pattern, sync)
    original, trace = record_run(config)
    replayed = run_replay(trace, replay_config(trace, config))

    assert per_node_blocks(replayed) == per_node_blocks(original)
    assert replayed.total_writes == original.total_writes
    assert replayed.hit_ratio == original.hit_ratio
    assert replayed.total_time == pytest.approx(
        original.total_time, rel=0.01
    )


def test_recording_does_not_perturb_the_run():
    """A recorded run and a bare run of the same config are identical."""
    from repro.experiments.runner import run_experiment
    from repro.perf.serialize import result_to_dict

    config = small_config("gfp", "portion")
    bare = run_experiment(config.with_overrides(record_trace=False))
    recorded, _ = record_run(config)
    assert bare.trace is None
    assert result_to_dict(recorded) == result_to_dict(bare)


#: Ten pattern/sync cells, each recorded with prefetch off and on.
_RERECORD_CELLS = [
    ("gw", "none"), ("gw", "per-proc"), ("gfp", "portion"),
    ("grp", "total"), ("lw", "per-proc"), ("lfp", "portion"),
    ("lrp", "none"), ("gw-rw", "none"), ("lfp-rw", "per-proc"),
    ("wstream", "none"),
]


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize("pattern,sync", _RERECORD_CELLS)
def test_record_replay_record_reproduces_the_trace(pattern, sync, prefetch):
    """A replay records the workload it replayed: every node's accesses,
    gaps, portions and barrier visits come back.  With prefetch off the
    run itself comes back, so every record matches, with its time,
    outcome and latency."""
    config = small_config(pattern, sync).with_overrides(prefetch=prefetch)
    _, trace = record_run(config)
    again = run_replay(trace, replay_config(trace, config)).trace

    def workload(t):
        return [
            [(r.node, r.block, r.compute, r.portion, r.sync_joins, r.op)
             for r in timeline]
            for timeline in t.timelines()
        ]

    assert workload(again) == workload(trace)
    if not prefetch:
        # A replay's ref_index counts along the node's own timeline.
        assert [replace(r, ref_index=-1) for r in again] == [
            replace(r, ref_index=-1) for r in trace
        ]


def test_replay_survives_disk_roundtrip(tmp_path):
    config = small_config("lfp")
    original, trace = record_run(config)
    path = tmp_path / "t.jsonl"
    trace.save(path)
    replayed = run_replay(
        ReplayTrace.load(path), replay_config(trace, config)
    )
    assert replayed.total_time == pytest.approx(
        original.total_time, rel=0.01
    )
    assert per_node_blocks(replayed) == per_node_blocks(original)


def test_replay_with_prefetch_is_emergent():
    """Prefetching over a replayed workload behaves like the live run."""
    config = small_config("gfp", "portion")
    _, trace = record_run(config)
    pf, base = replay_pair(trace, replay_config(trace, config))
    assert base.hit_ratio == 0.0
    assert pf.hit_ratio > 0.5
    assert pf.total_time < base.total_time
    assert pf.blocks_prefetched > 0


def test_replay_passes_determinism_audit():
    config = small_config("lw", "per-proc")
    _, trace = record_run(config)
    report = run_twice_and_diff(
        replay_config(trace, config),
        sweep_interval=None,
        pattern=trace.to_pattern(),
    )
    assert report.identical


def _recorded(pattern, sync, file_blocks, prefetch=True):
    config = ExperimentConfig(
        pattern=pattern, sync_style=sync, prefetch=prefetch, n_nodes=4,
        n_disks=4, file_blocks=file_blocks, total_reads=file_blocks,
    )
    return record_run(config)[1]


def _synthesized(kind, write_fraction=0.0):
    return make_synthetic_trace(
        kind, n_nodes=4, file_blocks=200, reads_per_node=40,
        write_fraction=write_fraction,
    )


#: (events, trace digest) of both audited sides of ``trace replay
#: --audit`` at its defaults, for each trace CI's trace jobs replay.
_REPLAY_SCHEDULES = {
    "rec": (
        lambda: _recorded("gfp", "portion", 400, prefetch=False),
        (34310, "3d1728ff3ebb55c158be2d6c7d33c098"),
        (5162, "fc4d39b6057121ffed177e22bbec1c28"),
    ),
    "rec-rw": (
        lambda: _recorded("lfp-rw", "none", 200),
        (5010, "9bb4fe684c37fa0b38512ee7619d5299"),
        (2861, "9200dace24db9e9f2bd94d4b43871ebe"),
    ),
    "bursty": (
        lambda: _synthesized("bursty"),
        (8547, "615159a13c09c8091e1550edb08efd21"),
        (1951, "c356a108ccdb2e02b1ed11f56534b263"),
    ),
    "phased": (
        lambda: _synthesized("phased"),
        (7081, "73891cc0739caa4d86cd47f31a348bd0"),
        (1949, "82f60ebb375af4e33e421ffd02ac77d1"),
    ),
    "skewed": (
        lambda: _synthesized("skewed"),
        (25478, "4dc34d97f8d066184709d5d6fa370a6d"),
        (1785, "6040f2d303bb74faa6a2a37ab404e80a"),
    ),
    "mixed": (
        lambda: _synthesized("mixed"),
        (11906, "cc112baa6dd06aec249ef0d3542f5c79"),
        (1921, "4f1cd859526daa9ddb2622519fa11e1d"),
    ),
    "rw": (
        lambda: _synthesized("bursty", write_fraction=0.3),
        (8387, "fd648220412e025822b184a6b3698bdc"),
        (2481, "f52c512a61dc28a9ae0818682f6ac4f7"),
    ),
}


@pytest.mark.parametrize("name", sorted(_REPLAY_SCHEDULES))
def test_replay_schedules_are_pinned(name):
    """Each side of an audited replay runs its pinned event schedule, so
    a change that moves every replay alike still fails here."""
    build, prefetch_side, baseline_side = _REPLAY_SCHEDULES[name]
    trace = build()
    config = replay_config(trace, ExperimentConfig(n_disks=4))
    got = []
    for cell in (config, config.paired_baseline()):
        report = run_twice_and_diff(cell, pattern=trace.to_pattern())
        assert report.identical
        got.append((report.first.n_events, report.first.trace_digest))
    assert got == [prefetch_side, baseline_side]


def test_replay_rejects_node_count_mismatch():
    from repro.fs.trace import TraceFormatError

    config = small_config("gw")
    _, trace = record_run(config)
    bad = replay_config(trace, config).with_overrides(n_nodes=8)
    with pytest.raises(TraceFormatError, match="nodes"):
        run_replay(trace, bad)


def test_recorded_trace_carries_provenance():
    config = small_config("gfp", "portion")
    result, trace = record_run(config)
    assert trace.meta.source == "recorded"
    assert trace.meta.seed == config.seed
    assert trace.meta.sync_style == "portion"
    assert len(trace) == result.total_accesses
    # Observed outcomes and latencies travel along for offline analysis.
    assert all(r.outcome in ("ready", "unready", "miss") for r in trace)
    assert all(r.latency >= 0 for r in trace)
    assert all(r.time >= 0 for r in trace)
