"""Tests for RunMetrics derived quantities."""

import pytest

from repro.metrics import RunMetrics
from repro.sim import Environment


def make_metrics(n_nodes=2):
    return Environment(), RunMetrics(Environment(), n_nodes)


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
    m.record_ready_hit(0)
    m.record_unready_hit(1)
    m.record_miss(0)
    m.record_miss(1)
    assert m.total_accesses == 4
    assert m.hit_ratio == 0.5
    assert m.ready_hit_fraction == 0.25
    assert m.unready_hit_fraction == 0.25
    assert m.blocks_demand_fetched == 2


def test_per_node_counters():
    env, m = make_metrics()
    m.record_ready_hit(0)
    m.record_ready_hit(0)
    m.record_miss(1)
    assert m.hits_ready_by_node == [2, 0]
    assert m.misses_by_node == [0, 1]


def test_read_time_tracking():
    env, m = make_metrics()
    m.record_read(0, 10.0)
    m.record_read(1, 30.0)
    assert m.avg_read_time == 20.0
    assert m.per_node_mean_read_times() == [10.0, 30.0]


def test_benefit_imbalance():
    env, m = make_metrics()
    m.record_read(0, 10.0)
    m.record_read(1, 30.0)
    # (30 - 10) / 20 = 1.0
    assert m.benefit_imbalance() == pytest.approx(1.0)


def test_benefit_imbalance_even():
    env, m = make_metrics()
    m.record_read(0, 10.0)
    m.record_read(1, 10.0)
    assert m.benefit_imbalance() == 0.0


def test_prefetch_action_partitioning():
    env, m = make_metrics()
    assert m.prefetch_action_mean == 0.0
    m.record_daemon_action("prefetch", 3.0, "success")
    m.record_daemon_action("prefetch", 1.0, "no_buffer")
    m.record_daemon_action("prefetch", 1.0, "budget_full")
    m.record_daemon_action("prefetch", 5.0, "success")
    m.record_daemon_action("writeback", 7.0, "success")
    m.record_daemon_action("writeback", 0.5, "clean")
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
    env, m = make_metrics()
    m.record_miss(0)
    m.record_prefetch_issued()
    m.record_prefetch_issued()
    assert m.total_fetches == 3


def test_avg_hit_wait_all_hits_definition():
    """The paper's definition: zeros for ready hits are included."""
    env, m = make_metrics()
    m.record_ready_hit(0)
    m.record_ready_hit(0)
    m.record_ready_hit(1)
    m.record_unready_hit(1)
    m.record_hit_wait(20.0)
    # Unready-only mean is 20; all-hits mean is 20/4 = 5.
    assert m.avg_hit_wait == 20.0
    assert m.avg_hit_wait_all_hits == pytest.approx(5.0)


def test_avg_hit_wait_all_hits_empty():
    env, m = make_metrics()
    assert m.avg_hit_wait_all_hits == 0.0
    m.record_miss(0)
    assert m.avg_hit_wait_all_hits == 0.0
