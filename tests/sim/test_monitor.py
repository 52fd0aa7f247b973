"""Tests for Tally and TimeWeighted monitors."""

import pytest

from repro.sim import Environment, Tally, TimeWeighted


# ------------------------------------------------------------------- Tally


def test_tally_empty():
    t = Tally("empty")
    assert t.count == 0
    assert t.mean == 0.0
    assert t.min is None and t.max is None
    assert t.percentile(50) == 0.0


def test_tally_basic_stats():
    t = Tally()
    t.extend([1.0, 2.0, 3.0, 4.0])
    assert t.count == 4
    assert t.mean == pytest.approx(2.5)
    assert t.min == 1.0
    assert t.max == 4.0


def test_tally_median_and_percentiles():
    t = Tally()
    t.extend([10.0, 20.0, 30.0, 40.0, 50.0])
    assert t.median == 30.0
    assert t.percentile(0) == 10.0
    assert t.percentile(100) == 50.0
    assert t.percentile(25) == 20.0


def test_tally_single_sample():
    t = Tally()
    t.record(7.0)
    assert t.median == 7.0


# ------------------------------------------------------------ TimeWeighted


def test_time_weighted_average():
    env = Environment()
    tw = TimeWeighted(env, initial=0.0)

    def proc():
        yield env.timeout(10.0)
        tw.set(4.0)  # value 0 for [0,10)
        yield env.timeout(10.0)
        tw.set(2.0)  # value 4 for [10,20)
        yield env.timeout(10.0)  # value 2 for [20,30)

    env.process(proc())
    env.run()
    assert tw.time_average() == pytest.approx((0 * 10 + 4 * 10 + 2 * 10) / 30)
    assert tw.max == 4.0


def test_time_weighted_add():
    env = Environment()
    tw = TimeWeighted(env, initial=1.0)

    def proc():
        yield env.timeout(5.0)
        tw.add(2.0)
        yield env.timeout(5.0)
        tw.add(-3.0)

    env.process(proc())
    env.run()
    assert tw.value == 0.0
    assert tw.time_average() == pytest.approx((1 * 5 + 3 * 5) / 10)


def test_time_weighted_zero_span():
    env = Environment()
    tw = TimeWeighted(env, initial=5.0)
    assert tw.time_average() == 5.0


def test_time_weighted_until():
    env = Environment()
    tw = TimeWeighted(env, initial=2.0)

    def proc():
        yield env.timeout(4.0)
        tw.set(0.0)

    env.process(proc())
    env.run()
    assert tw.time_average(until=8.0) == pytest.approx((2 * 4 + 0 * 4) / 8)
