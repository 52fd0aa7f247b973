"""Tests for the Environment scheduler."""

import math

import pytest

from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(10.0)
    env.run()
    assert env.now == 10.0


def test_run_until_time():
    env = Environment()
    env.timeout(100.0)
    env.run(until=40.0)
    assert env.now == 40.0


def test_run_until_past_time_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3.0)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"
    assert env.now == 3.0


def test_run_empty_returns_none():
    env = Environment()
    assert env.run() is None


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == math.inf


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0
    env.run(until=5.0)  # pops the 3.0 timeout, stops at the 5.0 one
    assert env.peek() == 7.0
    env.run()
    assert env.peek() == math.inf


def test_events_processed_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(5.0, "b"))
    env.process(proc(1.0, "a"))
    env.process(proc(9.0, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    env.run()  # processes ev
    assert env.run(until=ev) == 42


def test_run_until_never_fired_event_raises():
    env = Environment()
    ev = env.event()  # never triggered
    env.timeout(1.0)
    with pytest.raises(RuntimeError, match="never fired"):
        env.run(until=ev)


@pytest.mark.parametrize("error", [ValueError, IndexError])
def test_unhandled_process_failure_crashes_run(error):
    # IndexError too: the run loop reads an IndexError from the heap pop
    # as "queue empty", and one raised by the model must not end the run
    # quietly.
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise error("bang")

    env.process(boom())
    env.timeout(2.0)
    with pytest.raises(error, match="bang"):
        env.run()
    assert env.now == 1.0


def test_nested_process_spawning():
    env = Environment()
    results = []

    def child(n):
        yield env.timeout(n)
        return n * 2

    def parent():
        a = yield env.process(child(2))
        b = yield env.process(child(3))
        results.append(a + b)

    env.process(parent())
    env.run()
    assert results == [10]
    assert env.now == 5.0


def test_active_process_tracking():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1.0)
        seen.append(env.active_process)

    p = env.process(proc())
    assert env.active_process is None
    env.run()
    assert seen == [p, p]
    assert env.active_process is None


def test_event_count_counts_scheduled_events():
    env = Environment()
    assert env.event_count == 0
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.event_count == 2
    env.run()
    # event_count is a schedule total, not a queue length.
    assert env.event_count == 2
