"""Tests for the ProgressTracker."""

import pytest

from repro.workload import ProgressTracker, make_pattern


def test_local_tracker_per_node_cursors():
    pattern = make_pattern("lfp", n_nodes=2, total_reads=20)
    tracker = ProgressTracker(pattern, 2)
    i0, b0 = tracker.next_ref(0)
    assert (i0, b0) == (0, int(pattern.strings[0][0]))
    # Node 1 has its own cursor.
    i1, b1 = tracker.next_ref(1)
    assert i1 == 0
    assert b1 == int(pattern.strings[1][0])
    assert tracker.frontier(0) == 0
    assert tracker.frontier(1) == 0


def test_global_tracker_self_scheduling():
    pattern = make_pattern("gw", n_nodes=3, total_reads=10, file_blocks=10)
    tracker = ProgressTracker(pattern, 3)
    assert tracker.next_ref(0) == (0, 0)
    assert tracker.next_ref(2) == (1, 1)
    assert tracker.next_ref(1) == (2, 2)
    # The frontier is shared.
    assert tracker.frontier(0) == 2


def test_exhaustion_returns_none():
    pattern = make_pattern("gw", n_nodes=2, total_reads=3, file_blocks=3)
    tracker = ProgressTracker(pattern, 2)
    for _ in range(3):
        assert tracker.next_ref(0) is not None
    assert tracker.next_ref(0) is None
    assert tracker.next_ref(1) is None


def test_consumed_accounting_and_all_done():
    pattern = make_pattern("gw", n_nodes=2, total_reads=2, file_blocks=2)
    tracker = ProgressTracker(pattern, 2)
    i0, _ = tracker.next_ref(0)
    i1, _ = tracker.next_ref(1)
    assert not tracker.all_done()
    tracker.mark_consumed(0, i0)
    tracker.mark_consumed(1, i1)
    assert tracker.all_done()
    assert tracker.total_consumed == 2
    assert tracker.total_issued == 2


def test_consume_before_issue_rejected():
    pattern = make_pattern("gw", n_nodes=2, total_reads=5, file_blocks=5)
    tracker = ProgressTracker(pattern, 2)
    with pytest.raises(ValueError):
        tracker.mark_consumed(0, 0)


def test_remaining_counts():
    pattern = make_pattern("lw", n_nodes=2, total_reads=10, file_blocks=100)
    tracker = ProgressTracker(pattern, 2)
    assert tracker.remaining(0) == 5
    tracker.next_ref(0)
    assert tracker.remaining(0) == 4
    assert tracker.remaining(1) == 5  # independent


def test_node_id_validation():
    pattern = make_pattern("gw", n_nodes=2, total_reads=5, file_blocks=5)
    tracker = ProgressTracker(pattern, 2)
    with pytest.raises(ValueError):
        tracker.next_ref(5)


def test_string_count_mismatch_rejected():
    pattern = make_pattern("lfp", n_nodes=4, total_reads=40)
    with pytest.raises(ValueError):
        ProgressTracker(pattern, 8)


def test_frontier_starts_at_minus_one():
    pattern = make_pattern("gw", n_nodes=2, total_reads=5, file_blocks=5)
    tracker = ProgressTracker(pattern, 2)
    assert tracker.frontier(0) == -1
    assert tracker.frontier(1) == -1
