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
        with lock.request() as req:
            yield req
            holding.append(i)
            max_holding.append(len(holding))
            yield env.timeout(5.0)
            holding.remove(i)

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
        with res.request() as req:
            yield req
            grant_order.append(i)
            yield env.timeout(10.0)

    for i in range(3):
        env.process(user(i))
    env.run()
    assert grant_order == [0, 1, 2]


def test_resource_capacity_two_parallelism():
    env = Environment()
    res = Resource(env, capacity=2)

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

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
        with res.request() as req:
            yield req
            yield env.timeout(5.0)
            observed.append((res.count, res.waiting))

    def waiter():
        yield env.timeout(1.0)
        with res.request() as req:
            yield req

    env.process(holder())
    env.process(waiter())
    env.run()
    assert observed == [(1, 1)]


def test_resource_wait_statistics():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    env.process(user())
    env.process(user())
    env.run()
    assert res.grants == 2
    assert res.total_wait == pytest.approx(10.0)
    assert res.busy_time == pytest.approx(20.0)


def test_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    def impatient():
        yield env.timeout(1.0)
        req = res.request()
        yield env.timeout(2.0)
        req.cancel()
        granted.append("cancelled")

    def patient():
        yield env.timeout(2.0)
        with res.request() as req:
            yield req
            granted.append("patient")

    env.process(holder())
    env.process(impatient())
    env.process(patient())
    env.run()
    assert granted == ["cancelled", "patient"]


# ------------------------------------------------------------------- Store


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in ("a", "b", "c"):
            yield store.put(item)
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
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(7.0, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put(1)
        times.append(env.now)
        yield store.put(2)
        times.append(env.now)

    def consumer():
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [0.0, 5.0]


def test_store_len():
    env = Environment()
    store = Store(env)

    def producer():
        yield store.put("x")
        yield store.put("y")

    env.process(producer())
    env.run()
    assert len(store) == 2
