"""Tests for Node: CPU sharing, idle accounting, overrun."""

import pytest

from repro.machine import CostModel, IdleEstimator, IdleKind, Node
from repro.sim import Environment


def make_node():
    env = Environment()
    return env, Node(env, node_id=0, costs=CostModel())


def test_acquire_release_cpu():
    env, node = make_node()
    held = []

    def proc():
        req = yield from node.acquire_cpu()
        held.append(node.cpu.count)
        node.release_cpu(req)
        held.append(node.cpu.count)

    env.process(proc())
    env.run()
    assert held == [1, 0]


def test_idle_wait_opens_and_closes_gate():
    env, node = make_node()
    states = []

    def user():
        req = yield from node.acquire_cpu()
        wake = env.timeout(10.0)
        _, req = yield from node.idle_wait(req, wake, IdleKind.SELF_IO)
        states.append(("after", node.user_idle, node.idle_kind))
        node.release_cpu(req)

    def observer():
        yield env.timeout(5.0)
        states.append(("during", node.user_idle, node.idle_kind))

    env.process(user())
    env.process(observer())
    env.run()
    assert ("during", True, IdleKind.SELF_IO) in states
    assert ("after", False, None) in states


def test_idle_wait_returns_event_value():
    env, node = make_node()
    values = []

    def user():
        req = yield from node.acquire_cpu()
        wake = env.timeout(5.0, value="block-data")
        value, req = yield from node.idle_wait(req, wake, IdleKind.REMOTE_IO)
        values.append(value)
        node.release_cpu(req)

    env.process(user())
    env.run()
    assert values == ["block-data"]


def test_idle_period_recorded_without_overrun():
    env, node = make_node()

    def user():
        req = yield from node.acquire_cpu()
        _, req = yield from node.idle_wait(
            req, env.timeout(10.0), IdleKind.SYNC
        )
        node.release_cpu(req)

    env.process(user())
    env.run()
    assert len(node.idle_periods) == 1
    p = node.idle_periods[0]
    assert p.kind is IdleKind.SYNC
    assert p.necessary == pytest.approx(10.0)
    assert p.overrun == pytest.approx(0.0)


def test_overrun_when_daemon_holds_cpu():
    """A 'daemon' that grabs the CPU during idle delays user resumption;
    the delay is recorded as overrun."""
    env, node = make_node()

    def user():
        req = yield from node.acquire_cpu()
        _, req = yield from node.idle_wait(
            req, env.timeout(10.0), IdleKind.SELF_IO
        )
        node.release_cpu(req)

    def daemon():
        yield node.idle_gate.wait()
        req = yield from node.acquire_cpu()
        yield env.timeout(14.0)  # action runs past the user's wake at t=10
        node.release_cpu(req)

    env.process(user())
    env.process(daemon())
    env.run()
    p = node.idle_periods[0]
    assert p.necessary == pytest.approx(10.0)
    assert p.overrun == pytest.approx(4.0)
    assert p.actual == pytest.approx(14.0)


def test_idle_elapsed_and_summary():
    env, node = make_node()
    elapsed = []

    def user():
        req = yield from node.acquire_cpu()
        _, req = yield from node.idle_wait(
            req, env.timeout(8.0), IdleKind.SYNC
        )
        _, req = yield from node.idle_wait(
            req, env.timeout(4.0), IdleKind.SELF_IO
        )
        node.release_cpu(req)

    def observer():
        yield env.timeout(3.0)
        elapsed.append(node.idle_elapsed())

    env.process(user())
    env.process(observer())
    env.run()
    assert elapsed == [pytest.approx(3.0)]
    summary = [(p.kind, p.necessary) for p in node.idle_periods]
    assert summary == [
        (IdleKind.SYNC, pytest.approx(8.0)),
        (IdleKind.SELF_IO, pytest.approx(4.0)),
    ]


def test_idle_elapsed_zero_when_not_idle():
    env, node = make_node()
    assert node.idle_elapsed() == 0.0
    assert node.estimated_idle_remaining() == 0.0


# ------------------------------------------------------------ IdleEstimator


def test_estimator_validation():
    with pytest.raises(ValueError):
        IdleEstimator(alpha=0.0)
    with pytest.raises(ValueError):
        IdleEstimator(alpha=1.5)


def test_estimator_first_observation():
    est = IdleEstimator(alpha=0.5)
    assert est.estimate(IdleKind.SYNC) is None
    est.observe(IdleKind.SYNC, 10.0)
    assert est.estimate(IdleKind.SYNC) == 10.0


def test_estimator_ewma():
    est = IdleEstimator(alpha=0.5)
    est.observe(IdleKind.SYNC, 10.0)
    est.observe(IdleKind.SYNC, 20.0)
    assert est.estimate(IdleKind.SYNC) == pytest.approx(15.0)


def test_estimator_remaining_optimistic_without_history():
    est = IdleEstimator()
    assert est.estimate_remaining(IdleKind.SELF_IO, 5.0) == float("inf")


def test_estimator_remaining_clamped():
    est = IdleEstimator(alpha=1.0)
    est.observe(IdleKind.SELF_IO, 30.0)
    assert est.estimate_remaining(IdleKind.SELF_IO, 10.0) == pytest.approx(20.0)
    assert est.estimate_remaining(IdleKind.SELF_IO, 50.0) == 0.0


def test_node_estimator_integration():
    env, node = make_node()

    def user():
        req = yield from node.acquire_cpu()
        for _ in range(3):
            _, req = yield from node.idle_wait(
                req, env.timeout(30.0), IdleKind.SELF_IO
            )
        node.release_cpu(req)

    env.process(user())
    env.run()
    assert node.idle_estimator.estimate(IdleKind.SELF_IO) == pytest.approx(30.0)
