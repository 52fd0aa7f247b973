"""Tests for offline trace analysis."""

import pytest

from repro.experiments.analysis import (
    lru_hit_ratio,
    opt_hit_ratio,
    outcome_counts,
    reuse_distances,
    run_lengths,
    sequentiality,
)
from repro.fs.trace import ReplayRecord, ReplayTrace, TraceMeta

META = TraceMeta(workload="unit", n_nodes=4, file_blocks=10_000)


def make_trace(accesses):
    """accesses: list of (time, node, block)."""
    return ReplayTrace(META, (
        ReplayRecord(node=n, block=b, time=float(t), outcome="miss",
                     latency=1.0)
        for t, n, b in accesses
    ))


def sequential_trace(n=20, node=0):
    return make_trace([(i, node, i) for i in range(n)])


def test_lru_validation():
    with pytest.raises(ValueError):
        lru_hit_ratio(sequential_trace(), 0)
    with pytest.raises(ValueError):
        opt_hit_ratio(sequential_trace(), 0)


def test_lru_sequential_no_reuse():
    """Disjoint sequential access gets nothing from caching alone — the
    paper's motivation for prefetching."""
    assert lru_hit_ratio(sequential_trace(), 10) == 0.0
    assert opt_hit_ratio(sequential_trace(), 10) == 0.0


def test_lru_repeated_block():
    trace = make_trace([(i, 0, 0) for i in range(10)])
    assert lru_hit_ratio(trace, 1) == 0.9


def test_lru_capacity_effect():
    # Cyclic access to 3 blocks with capacity 2: LRU always misses.
    trace = make_trace([(i, 0, i % 3) for i in range(30)])
    assert lru_hit_ratio(trace, 2) == 0.0
    assert lru_hit_ratio(trace, 3) == pytest.approx(27 / 30)


def test_opt_beats_lru():
    trace = make_trace([(i, 0, i % 3) for i in range(30)])
    assert opt_hit_ratio(trace, 2) > lru_hit_ratio(trace, 2)


def test_opt_known_value():
    # OPT with bypass on cyclic 3-block access with capacity 2: keep
    # blocks 0 and 1 resident forever and bypass every access to block 2.
    # 30 refs = 2 cold misses + 10 bypassed misses -> 18 hits.
    trace = make_trace([(i, 0, i % 3) for i in range(30)])
    assert opt_hit_ratio(trace, 2) == pytest.approx(18 / 30)


def test_empty_trace():
    trace = make_trace([])
    assert lru_hit_ratio(trace, 5) == 0.0
    assert opt_hit_ratio(trace, 5) == 0.0
    assert reuse_distances(trace) == []


def test_sequentiality_perfect():
    seq = sequentiality(sequential_trace())
    assert seq["successor_fraction"] == 1.0
    assert seq["monotone_fraction"] == 1.0


def test_sequentiality_random():
    # Scattered, non-repeating blocks: nothing is a successor of anything
    # in the recent window.
    blocks = [(i * 379 + 57) % 10_000 for i in range(64)]
    trace = make_trace([(i, 0, b) for i, b in enumerate(blocks)])
    seq = sequentiality(trace)
    assert seq["successor_fraction"] < 0.2


def test_sequentiality_interleaved_global():
    """Round-robin reads by 4 nodes are globally sequential."""
    trace = make_trace([(i, i % 4, i) for i in range(40)])
    seq = sequentiality(trace)
    assert seq["successor_fraction"] == 1.0


def test_run_lengths_per_node():
    trace = make_trace(
        [(0, 0, 10), (1, 0, 11), (2, 0, 12), (3, 0, 50), (4, 0, 51),
         (5, 1, 7)]
    )
    runs = run_lengths(trace)
    assert runs[0] == [3, 2]
    assert runs[1] == [1]


def test_reuse_distances():
    trace = make_trace([(0, 0, 1), (1, 0, 2), (2, 0, 1), (3, 0, 1)])
    assert reuse_distances(trace) == [-1, -1, 1, 0]


def test_outcome_counts():
    trace = ReplayTrace(META, [
        ReplayRecord(node=0, block=0, outcome="miss"),
        ReplayRecord(node=0, block=1, op="w", outcome="ready"),
        ReplayRecord(node=1, block=2),
        ReplayRecord(node=1, block=0, outcome="miss"),
    ])
    assert outcome_counts(trace) == {
        "ready": 0, "unready": 0, "miss": 2, "write-ready": 1,
        "unrecorded": 1,
    }


def test_untimed_trace_is_read_in_file_order():
    # A synthetic trace has no times: node 0's timeline, then node 1's.
    trace = ReplayTrace(META, [
        ReplayRecord(node=0, block=0), ReplayRecord(node=0, block=1),
        ReplayRecord(node=1, block=5), ReplayRecord(node=1, block=6),
    ])
    assert reuse_distances(trace) == [-1] * 4
    assert run_lengths(trace) == {0: [2], 1: [2]}
    assert sequentiality(trace)["successor_fraction"] == pytest.approx(2 / 3)


def test_analysis_on_simulated_run():
    """End-to-end: run lw (strong reuse) and confirm the offline tools see
    the locality."""
    from repro.experiments import ExperimentConfig, run_experiment

    r = run_experiment(
        ExperimentConfig(
            pattern="lw", n_nodes=4, n_disks=4, file_blocks=100,
            total_reads=80, compute_mean=0.0, record_trace=True,
            prefetch=False,
        )
    )
    trace = r.trace
    assert trace is not None
    # Every block is read by all 4 nodes: reuse exists.
    assert lru_hit_ratio(trace, 80) > 0.5
    runs = run_lengths(trace)
    assert all(max(rs) >= 5 for rs in runs.values())
