"""CircuitBreaker state machine: closed -> open -> half-open -> closed."""

from repro.faults import (
    BreakerState,
    CircuitBreaker,
    FaultEventLog,
    ResiliencePolicy,
)
from repro.sim import Environment


def make_breaker(threshold=3, cooldown=100.0):
    env = Environment()
    log = FaultEventLog(env)
    policy = ResiliencePolicy(
        breaker_threshold=threshold, breaker_cooldown=cooldown
    )
    return env, CircuitBreaker(env, 0, policy, log), log


def transitions(log):
    """The breaker transitions the fault event log holds, in order."""
    return [e.detail for e in log.events if e.kind == "breaker"]


def test_trips_only_on_consecutive_failures():
    env, breaker, _ = make_breaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # resets the streak
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.opened_count == 1
    assert not breaker.allow()


def _sleep(env, delay):
    yield env.timeout(delay)


def test_cooldown_then_half_open_probe_then_close():
    env, breaker, log = make_breaker(threshold=1, cooldown=100.0)
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()
    env.process(_sleep(env, 100.0))
    env.run()
    assert env.now == 100.0
    # Past the cooldown: allow() lazily transitions to HALF_OPEN and
    # admits the probe.
    assert breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.allow()  # further probes admitted too
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert transitions(log) == [
        "closed->open",
        "open->half-open",
        "half-open->closed",
    ]
    assert breaker.opened_count == 1


def test_half_open_failure_reopens_with_fresh_cooldown():
    env, breaker, _ = make_breaker(threshold=1, cooldown=100.0)
    breaker.record_failure()
    env.process(_sleep(env, 100.0))
    env.run()
    assert breaker.allow()  # -> HALF_OPEN
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.opened_count == 2
    assert not breaker.allow()  # new cooldown runs from the reopen


def test_open_intervals_cover_non_closed_spans():
    env, breaker, _ = make_breaker(threshold=1, cooldown=50.0)
    env.process(_sleep(env, 10.0))
    env.run()
    breaker.record_failure()  # open at t=10
    env.process(_sleep(env, 60.0))
    env.run()
    assert breaker.allow()  # half-open at t=70
    breaker.record_success()  # closed at t=70
    env.process(_sleep(env, 30.0))
    env.run()
    breaker.record_failure()  # open again at t=100, never closes
    assert breaker.open_intervals(end=120.0) == [(10.0, 70.0), (100.0, 120.0)]


def test_success_in_closed_is_a_no_op_transitionwise():
    env, breaker, log = make_breaker()
    breaker.record_success()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert transitions(log) == []
