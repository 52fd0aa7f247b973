"""The supervised fetch path: retries, backoff, timeouts, exhaustion."""

from repro.faults import (
    FailStop,
    FaultPlan,
    ReadFailedError,
    ResilienceLayer,
    ResiliencePolicy,
    TransientErrors,
)
from repro.sim.rng import RandomStreams

from ..helpers import build_stack, user_read


def faulted_stack(plan, seed=1, **kwargs):
    env, machine, file, cache, server, metrics = build_stack(**kwargs)
    layer = ResilienceLayer(env, plan, machine, RandomStreams(seed))
    cache.resilience = layer
    return env, machine, cache, server, metrics, layer


def test_transient_error_retried_to_success():
    # Disk 0 errors every completion before t=35; the first attempt
    # completes (with an error) at t=30, the retry lands after the
    # window and succeeds.
    plan = FaultPlan(
        faults=(
            TransientErrors(disk=0, probability=1.0, start=0.0, end=35.0),
        ),
        resilience=ResiliencePolicy(max_retries=3, backoff_jitter=0.0),
    )
    env, machine, cache, server, metrics, layer = faulted_stack(plan)
    results = []
    env.process(user_read(server, machine.nodes[0], 0, results))
    env.run()
    assert len(results) == 1
    assert metrics.disk_errors == {0: 1}
    assert metrics.disk_retries == {0: 1}
    assert machine.disks[0].errors == 1
    assert layer.log.counts() == {"error": 1, "retry": 1}


def test_exhaustion_surfaces_read_failed_error_to_application():
    plan = FaultPlan(
        faults=(TransientErrors(disk=0, probability=1.0),),
        resilience=ResiliencePolicy(
            max_retries=1, backoff_base=1.0, backoff_max=1.0,
            backoff_jitter=0.0,
        ),
    )
    env, machine, cache, server, metrics, layer = faulted_stack(plan)
    caught = []

    def proc():
        node = machine.nodes[0]
        cpu = yield from node.acquire_cpu()
        try:
            yield from server.read_block(node, cpu, 0)
        except ReadFailedError as exc:
            caught.append(exc)

    env.process(proc())
    env.run()
    assert len(caught) == 1
    message = str(caught[0])
    # Context from the file server wrapper and from the supervisor.
    assert "node 0" in message and "block 0" in message
    assert "after 2 attempts" in message
    assert layer.log.counts()["exhausted"] == 1
    # The failed buffer was recycled: the cache stays consistent.
    cache.check_invariants()


def test_failed_block_is_rereadable_after_recovery():
    # Exhaust on the first read (error window), then read again after
    # the window: the aborted buffer must not poison the cache.
    plan = FaultPlan(
        faults=(
            TransientErrors(disk=0, probability=1.0, start=0.0, end=70.0),
        ),
        resilience=ResiliencePolicy(
            max_retries=0, backoff_jitter=0.0,
        ),
    )
    env, machine, cache, server, metrics, layer = faulted_stack(plan)
    outcomes = []

    def proc():
        node = machine.nodes[0]
        cpu = yield from node.acquire_cpu()
        try:
            cpu = yield from server.read_block(node, cpu, 0)
            outcomes.append("first-ok")
        except ReadFailedError:
            outcomes.append("first-failed")
            yield env.timeout(100.0)
            cpu = yield from node.acquire_cpu()
            cpu = yield from server.read_block(node, cpu, 0)
            outcomes.append("second-ok")
        node.release_cpu(cpu)

    env.process(proc())
    env.run()
    assert outcomes == ["first-failed", "second-ok"]
    cache.check_invariants()


def test_timeout_cancels_queued_request_and_retries():
    # Disk 0 is dead from the start and recovers at t=300.  The first
    # attempt stalls in service; the timeout abandons it and hedges.
    plan = FaultPlan(
        faults=(FailStop(disk=0, at=0.0, recover=300.0),),
        resilience=ResiliencePolicy(
            timeout=50.0, max_retries=30, backoff_base=5.0,
            backoff_max=20.0, backoff_jitter=0.0,
        ),
    )
    env, machine, cache, server, metrics, layer = faulted_stack(plan)
    results = []
    env.process(user_read(server, machine.nodes[0], 0, results))
    env.run()
    assert len(results) == 1
    assert results[0][2] >= 300.0  # could not finish before recovery
    assert metrics.disk_timeouts[0] >= 1
    assert metrics.disk_retries[0] >= 1
    counts = layer.log.counts()
    assert counts["timeout"] == counts["retry"]  # every timeout re-issued
    cache.check_invariants()


def test_unrecovered_fail_stop_times_out_to_exhaustion():
    plan = FaultPlan(
        faults=(FailStop(disk=0, at=0.0),),  # never recovers
        resilience=ResiliencePolicy(
            timeout=40.0, max_retries=2, backoff_base=5.0,
            backoff_jitter=0.0,
        ),
    )
    env, machine, cache, server, metrics, layer = faulted_stack(plan)
    caught = []

    def proc():
        node = machine.nodes[0]
        cpu = yield from node.acquire_cpu()
        try:
            yield from server.read_block(node, cpu, 0)
        except ReadFailedError as exc:
            caught.append(exc)

    env.process(proc())
    env.run()
    assert len(caught) == 1
    assert "timeout" in str(caught[0])
    assert metrics.disk_timeouts == {0: 3}  # 1 + max_retries attempts


def test_backoff_is_deterministic_and_bounded():
    plan = FaultPlan(
        faults=(TransientErrors(disk=0, probability=1.0),),
        resilience=ResiliencePolicy(
            max_retries=6, backoff_base=4.0, backoff_factor=2.0,
            backoff_max=20.0, backoff_jitter=0.25,
        ),
    )

    def delays(seed):
        env, machine, cache, server, metrics, layer = faulted_stack(
            plan, seed=seed
        )
        out = []
        for attempt in range(1, 7):
            out.append(layer._backoff(attempt, 0))
        return out

    a, b = delays(5), delays(5)
    assert a == b  # same seed, same jitter draws
    assert delays(5) != delays(6)
    policy = plan.resilience
    for attempt, delay in enumerate(a, start=1):
        raw = min(
            policy.backoff_max,
            policy.backoff_base * policy.backoff_factor ** (attempt - 1),
        )
        assert raw * 0.75 <= delay <= raw * 1.25
    # The ceiling binds from attempt 4 on (4 * 2^3 = 32 > 20).
    assert all(d <= 20.0 * 1.25 for d in a[3:])


def test_fault_event_log_digest_is_stable_across_runs():
    plan = FaultPlan(
        faults=(
            TransientErrors(disk=0, probability=0.5),
            TransientErrors(disk=1, probability=0.5),
        ),
        resilience=ResiliencePolicy(max_retries=10),
    )

    def run_once():
        env, machine, cache, server, metrics, layer = faulted_stack(plan)
        for node in machine.nodes:
            for i in range(5):
                env.process(
                    user_read(server, node, node.node_id + 2 * i, [])
                )
        env.run()
        return layer.log.hexdigest(), len(layer.log)

    first, second = run_once(), run_once()
    assert first == second
    assert first[1] > 0
