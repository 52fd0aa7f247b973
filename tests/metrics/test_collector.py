"""Tests for RunMetrics: what it counts from each probe point, and its
derived quantities."""

import pytest

from repro.metrics import RunMetrics
from repro.sim import Environment


def make_metrics(n_nodes=2):
    env = Environment()
    return env, RunMetrics(env, n_nodes)


def emit(env, point, *args):
    """One emission of probe ``point``, as the model makes it."""
    for fn in env.probe(point):
        fn(*args)


def read(env, node_id, outcome, latency=1.0):
    emit(env, "fs.read", node_id, 0, outcome, latency, -1)


def test_empty_ratios():
    env, m = make_metrics()
    assert m.hit_ratio == 0.0
    assert m.miss_ratio == 1.0
    assert m.ready_hit_fraction == 0.0
    assert m.avg_read_time == 0.0
    assert m.total_accesses == 0


def test_hit_ratio_generous_definition():
    """Unready hits count as hits (the paper's definition)."""
    env, m = make_metrics()
    read(env, 0, "ready")
    read(env, 1, "unready")
    read(env, 0, "miss")
    read(env, 1, "miss")
    assert m.total_accesses == 4
    assert m.hit_ratio == 0.5
    assert m.ready_hit_fraction == 0.25
    assert m.unready_hit_fraction == 0.25
    assert m.misses == 2


def test_per_node_counters():
    """Each node's mean read time counts that node's reads only, of
    every outcome."""
    env, m = make_metrics()
    read(env, 0, "ready", 2.0)
    read(env, 0, "miss", 40.0)
    read(env, 1, "unready", 9.0)
    assert (m.hits_ready, m.hits_unready, m.misses) == (1, 1, 1)
    assert m.per_node_mean_read_times() == [21.0, 9.0]


def test_read_time_tracking():
    env, m = make_metrics()
    read(env, 0, "miss", 10.0)
    read(env, 1, "miss", 30.0)
    assert m.avg_read_time == 20.0
    assert m.per_node_mean_read_times() == [10.0, 30.0]


def test_node_without_reads_has_zero_mean():
    env, m = make_metrics(n_nodes=3)
    read(env, 2, "ready", 4.0)
    assert m.per_node_mean_read_times() == [0.0, 0.0, 4.0]


def test_benefit_imbalance():
    env, m = make_metrics()
    read(env, 0, "ready", 10.0)
    read(env, 1, "miss", 30.0)
    # (30 - 10) / 20 = 1.0
    assert m.benefit_imbalance() == pytest.approx(1.0)


def test_benefit_imbalance_even():
    env, m = make_metrics()
    read(env, 0, "ready", 10.0)
    read(env, 1, "ready", 10.0)
    assert m.benefit_imbalance() == 0.0


def test_prefetch_action_partitioning():
    env, m = make_metrics()
    assert m.prefetch_action_mean == 0.0
    emit(env, "prefetch.action", 0, 0.0, 3.0, "success")
    emit(env, "prefetch.action", 0, 3.0, 4.0, "no_buffer")
    emit(env, "prefetch.action", 1, 0.0, 1.0, "budget_full")
    emit(env, "prefetch.action", 1, 1.0, 6.0, "success")
    emit(env, "writeback.action", 0, 4.0, 11.0, "success")
    emit(env, "writeback.action", 1, 6.0, 6.5, "clean")
    assert m.prefetch_action_mean == 4.0
    assert m.failed_action_count == 2
    assert m.prefetch_outcomes == {
        "success": 2, "no_buffer": 1, "budget_full": 1,
    }
    # Writeback actions never reach the prefetch counts.
    assert m.flush_outcomes == {"success": 1, "clean": 1}


def test_total_time_requires_run_markers():
    env = Environment()
    m = RunMetrics(env, 1)
    with pytest.raises(RuntimeError):
        _ = m.total_time
    m.begin_run()

    def advance():
        yield env.timeout(100.0)

    env.process(advance())
    env.run()
    m.end_run()
    assert m.total_time == 100.0


def test_total_fetches():
    """Each miss is one demand fetch and each successful prefetch action
    one prefetch."""
    env, m = make_metrics()
    read(env, 0, "miss")
    read(env, 1, "ready")
    emit(env, "prefetch.action", 0, 0.0, 1.0, "success")
    emit(env, "prefetch.action", 1, 0.0, 1.0, "success")
    emit(env, "prefetch.action", 1, 1.0, 2.0, "already_cached")
    assert m.misses + m.blocks_prefetched == 3


def test_avg_hit_wait_all_hits_definition():
    """The paper's definition: zeros for ready hits are included."""
    env, m = make_metrics()
    read(env, 0, "ready")
    read(env, 0, "ready")
    read(env, 1, "ready")
    emit(env, "fs.hit_wait", 1, 20.0)
    read(env, 1, "unready")
    # Unready-only mean is 20; all-hits mean is 20/4 = 5.
    assert m.avg_hit_wait == 20.0
    assert m.avg_hit_wait_all_hits == pytest.approx(5.0)


def test_avg_hit_wait_all_hits_empty():
    env, m = make_metrics()
    assert m.avg_hit_wait_all_hits == 0.0
    read(env, 0, "miss")
    assert m.avg_hit_wait_all_hits == 0.0


def test_write_outcomes_stay_apart_from_reads():
    env, m = make_metrics()
    emit(env, "fs.write", 0, 3, "miss", 2.0, -1)
    emit(env, "fs.write", 0, 3, "ready", 4.0, -1)
    emit(env, "fs.write", 1, 5, "unready", 12.0, -1)
    assert (m.write_misses, m.write_hits, m.total_writes) == (1, 2, 3)
    assert m.avg_write_time == 6.0
    assert m.total_accesses == 0


def test_only_throttle_stalls_are_counted():
    env, m = make_metrics()
    emit(env, "fs.throttle", 0, 10.0, 42.5, "throttle")
    emit(env, "fs.throttle", 1, 10.0, 40.0, "write-through")
    assert m.throttle_stalls.count == 1
    assert m.throttle_stall_time == 32.5


def test_unused_prefetch_reasons():
    env, m = make_metrics()
    emit(env, "fs.unused_prefetch", 0, 7, "evicted")
    emit(env, "fs.unused_prefetch", 1, 8, "fetch_failed")
    emit(env, "fs.unused_prefetch", 1, 9, "evicted")
    assert m.prefetch_unused_evictions == 2
    assert m.prefetch_write_offs == 1


def test_fault_signals_per_disk():
    env, m = make_metrics()
    for kind, disk in [
        ("error", 0), ("retry", 0), ("error", 0), ("timeout", 2),
        ("retry", 2), ("breaker-open", 0), ("breaker-half-open", 0),
        ("breaker-close", 0), ("fail-slow", 2), ("fail-slow-clear", 2),
    ]:
        emit(env, "faults.signal", kind, disk)
    assert m.disk_errors == {0: 2}
    assert m.disk_retries == {0: 1, 2: 1}
    assert m.disk_timeouts == {2: 1}
    assert (m.total_disk_errors, m.total_retries, m.total_timeouts) == (
        2, 2, 1,
    )
    assert m.breaker_opens == 1
    assert m.failslow_detections == 1
