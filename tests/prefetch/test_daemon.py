"""Tests for the idle-time prefetch daemon."""

import pytest

from repro.machine import IdleKind
from repro.prefetch import DaemonConfig, OraclePolicy, PrefetchDaemon
from repro.sim import RandomStreams
from repro.workload import ProgressTracker, make_pattern

from ..helpers import build_stack


def daemon_stack(pattern_name="gw", n_nodes=2, total=20, file_blocks=20,
                 daemon_config=DaemonConfig(), lead=0):
    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=n_nodes, n_disks=n_nodes, file_blocks=file_blocks
    )
    pattern = make_pattern(
        pattern_name, n_nodes=n_nodes, total_reads=total,
        file_blocks=file_blocks, rng=RandomStreams(1),
    )
    tracker = ProgressTracker(pattern, n_nodes)
    policy = OraclePolicy(pattern, tracker, lead=lead)
    policy.bind(cache)
    daemons = [
        PrefetchDaemon(node, cache, policy, metrics, daemon_config)
        for node in machine.nodes
    ]
    return env, machine, cache, server, metrics, tracker, policy, daemons


def test_daemon_config_validation():
    with pytest.raises(ValueError):
        DaemonConfig(min_prefetch_time=-1.0)
    with pytest.raises(ValueError):
        DaemonConfig(max_consecutive_failures=0)


def test_daemon_idle_only():
    """No prefetching happens while the user never goes idle."""
    env, machine, cache, server, metrics, *_ = daemon_stack()

    def busy_user(node):
        cpu = yield from node.acquire_cpu()
        yield env.timeout(100.0)
        node.release_cpu(cpu)

    env.process(busy_user(machine.nodes[0]))
    env.run(until=100.0)
    assert metrics.blocks_prefetched == 0


def test_daemon_prefetches_during_idle():
    env, machine, cache, server, metrics, tracker, policy, daemons = (
        daemon_stack()
    )
    node = machine.nodes[0]

    def user():
        cpu = yield from node.acquire_cpu()
        _, cpu = yield from node.idle_wait(
            cpu, env.timeout(50.0), IdleKind.SYNC
        )
        node.release_cpu(cpu)

    env.process(user())
    env.run(until=200.0)
    assert metrics.blocks_prefetched > 0
    assert metrics.prefetch_action_times.count > 0


def test_daemon_overrun_measured():
    """An action started just before wake-up delays the user: overrun > 0."""
    env, machine, cache, server, metrics, *_ = daemon_stack()
    node = machine.nodes[0]

    def user():
        cpu = yield from node.acquire_cpu()
        # Wake at a time that is very likely mid-action.
        _, cpu = yield from node.idle_wait(
            cpu, env.timeout(4.0), IdleKind.SYNC
        )
        node.release_cpu(cpu)

    env.process(user())
    env.run(until=100.0)
    assert node.idle_periods[0].overrun > 0.0


def test_daemon_stops_when_policy_exhausted():
    env, machine, cache, server, metrics, tracker, policy, daemons = (
        daemon_stack(total=4, file_blocks=4)
    )
    node = machine.nodes[0]

    def user():
        cpu = yield from node.acquire_cpu()
        _, cpu = yield from node.idle_wait(
            cpu, env.timeout(500.0), IdleKind.SYNC
        )
        node.release_cpu(cpu)

    env.process(user())
    env.run(until=600.0)
    # 4 blocks prefetched, then node 0's daemon terminated.  (Node 1's
    # daemon never woke: its user never idled, so it never checked.)
    assert metrics.blocks_prefetched == 4
    assert not daemons[0].process.is_alive


def test_daemon_stop_method():
    env, machine, cache, server, metrics, tracker, policy, daemons = (
        daemon_stack()
    )
    node = machine.nodes[0]
    daemons[0].stop()
    daemons[1].stop()

    def user():
        cpu = yield from node.acquire_cpu()
        _, cpu = yield from node.idle_wait(
            cpu, env.timeout(50.0), IdleKind.SYNC
        )
        node.release_cpu(cpu)

    env.process(user())
    env.run(until=100.0)
    assert metrics.blocks_prefetched == 0


def test_min_prefetch_time_throttles():
    """With an estimate shorter than min_prefetch_time, the daemon sits
    out the idle period."""
    env, machine, cache, server, metrics, *_ = daemon_stack(
        daemon_config=DaemonConfig(min_prefetch_time=100.0)
    )
    node = machine.nodes[0]

    def user():
        cpu = yield from node.acquire_cpu()
        # First idle period trains the estimator (inf estimate: actions run).
        _, cpu = yield from node.idle_wait(
            cpu, env.timeout(10.0), IdleKind.SYNC
        )
        # Second idle period: estimate ~10 ms < 100 ms: no new actions.
        _, cpu = yield from node.idle_wait(
            cpu, env.timeout(10.0), IdleKind.SYNC
        )
        node.release_cpu(cpu)

    env.process(user())
    env.run(until=200.0)
    # Daemon 0 ran at most during the first window; far fewer actions than
    # an unthrottled daemon would do in 20 ms of idle.
    total_actions = sum(daemons_actions(machine))
    assert total_actions <= 10


def daemons_actions(machine):
    out = []
    for node in machine.nodes:
        if node.daemon is not None:
            out.append(node.daemon.action_times.count)
    return out


def test_failure_cap_bounds_spinning():
    """With an exhausted... non-exhausted policy that always fails, the cap
    stops the daemon within one idle period."""
    from repro.prefetch import OBLPolicy

    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=1, n_disks=1, file_blocks=4
    )
    policy = OBLPolicy(4)
    policy.bind(cache)
    # OBL with no observations: peek always None, never exhausted.
    daemon = PrefetchDaemon(
        machine.nodes[0], cache, policy, metrics,
        DaemonConfig(max_consecutive_failures=5),
    )
    node = machine.nodes[0]

    def user():
        cpu = yield from node.acquire_cpu()
        _, cpu = yield from node.idle_wait(
            cpu, env.timeout(1000.0), IdleKind.SYNC
        )
        node.release_cpu(cpu)

    env.process(user())
    env.run(until=1500.0)
    assert daemon.outcomes.get("no_candidate", 0) == 5
