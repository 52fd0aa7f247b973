"""Tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store


# ---------------------------------------------------------------- Resource


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_lock_mutual_exclusion():
    env = Environment()
    lock = Resource(env, capacity=1)
    holding = []
    max_holding = []

    def user(i):
        req = lock.request()
        yield req
        holding.append(i)
        max_holding.append(len(holding))
        yield env.timeout(5.0)
        holding.remove(i)
        lock.release(req)

    for i in range(4):
        env.process(user(i))
    env.run()
    assert max(max_holding) == 1
    assert env.now == 20.0  # fully serialized


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    grant_order = []

    def user(i):
        yield env.timeout(float(i))  # stagger arrival
        req = res.request()
        yield req
        grant_order.append(i)
        yield env.timeout(10.0)
        res.release(req)

    for i in range(3):
        env.process(user(i))
    env.run()
    assert grant_order == [0, 1, 2]


def test_resource_capacity_two_parallelism():
    env = Environment()
    res = Resource(env, capacity=2)

    def user():
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    for _ in range(4):
        env.process(user())
    env.run()
    assert env.now == 20.0  # two waves of two


def test_release_without_hold_raises():
    env = Environment()
    res = Resource(env)
    req = res.request()
    env.run()
    res.release(req)
    with pytest.raises(RuntimeError):
        res.release(req)


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)
    observed = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(5.0)
        observed.append((res.count, res.waiting))
        res.release(req)

    def waiter():
        yield env.timeout(1.0)
        req = res.request()
        yield req
        res.release(req)

    env.process(holder())
    env.process(waiter())
    env.run()
    assert observed == [(1, 1)]


def test_resource_wait_statistics():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    env.process(user())
    env.process(user())
    env.run()
    assert res.grants == 2
    assert res.total_wait == pytest.approx(10.0)
    assert res.busy_time == pytest.approx(20.0)


def test_on_the_spot_grant_resumes_after_events_already_queued():
    # B's t=1 timeout is queued before A's, and B's request for the free
    # slot after both: the grant must not overtake A's timeout.
    env = Environment()
    res = Resource(env, capacity=1)
    order = []
    granted = []

    def b():
        yield env.timeout(1.0)
        req = res.request()
        yield req
        order.append("B granted")
        granted.append(req)

    def a():
        yield env.timeout(1.0)
        order.append("A")

    env.process(b())
    env.process(a())
    env.run()
    assert order == ["A", "B granted"]
    assert granted[0].usage_since == 1.0
    assert res.grants == 1
    assert res.total_wait == 0.0


def test_release_schedules_only_the_next_grant():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    env.run()
    assert not second.triggered
    before = env.event_count
    res.release(first)  # grants the waiter: one event, its Request
    assert second.triggered
    assert env.event_count == before + 1
    env.run()
    before = env.event_count
    res.release(second)  # nobody waiting: nothing to schedule
    assert env.event_count == before


# ------------------------------------------------------------------- Store


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in ("a", "b", "c"):
            store.put(item)
            yield env.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == ["a", "b", "c"]


def test_store_get_blocks_when_empty():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(7.0)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(7.0, "late")]


def test_put_to_waiting_getter_schedules_only_the_get():
    env = Environment()
    store = Store(env)
    store.put("kept")  # no getter waiting: queued, nothing scheduled
    assert env.event_count == 0
    assert store.get().value == "kept"
    get = store.get()
    before = env.event_count
    store.put("handed")
    assert env.event_count == before + 1
    assert get.value == "handed"
    assert len(store) == 0


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put("x")
    store.put("y")
    assert len(store) == 2
