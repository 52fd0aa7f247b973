"""Tests for the idle daemon, run as the prefetcher."""

from repro.machine import IdleKind
from repro.prefetch import OraclePolicy, prefetch_daemon
from repro.prefetch.daemon import MAX_CONSECUTIVE_FAILURES
from repro.sim import RandomStreams
from repro.workload import ProgressTracker, make_pattern

from ..helpers import build_stack


def daemon_stack(pattern_name="gw", n_nodes=2, total=20, file_blocks=20,
                 min_idle=0.0, lead=0):
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
        prefetch_daemon(node, cache, policy, min_idle)
        for node in machine.nodes
    ]
    return env, machine, cache, server, metrics, tracker, policy, daemons


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
    assert metrics.prefetch_outcomes.get("success", 0) > 0


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


def test_min_prefetch_time_throttles():
    """With an estimate shorter than min_prefetch_time, the daemon sits
    out the idle period."""
    env, machine, cache, server, metrics, *_ = daemon_stack(min_idle=100.0)
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
    total_actions = sum(metrics.prefetch_outcomes.values())
    assert total_actions <= 10


def test_failure_cap_bounds_spinning():
    """With a non-exhausted policy that always fails, the cap stops the
    daemon within one idle period."""
    from repro.prefetch import OBLPolicy

    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=1, n_disks=1, file_blocks=4
    )
    policy = OBLPolicy(4)
    policy.bind(cache)
    # OBL with no observations: peek always None, never exhausted.
    node = machine.nodes[0]
    prefetch_daemon(node, cache, policy)

    def user():
        cpu = yield from node.acquire_cpu()
        # Each failed action costs 0.62 ms on one uncontended node (0.12
        # ms of references plus the 0.5 ms failed-action cost), so the
        # cap is reached at 6,200 ms, well inside this window.
        _, cpu = yield from node.idle_wait(
            cpu, env.timeout(10_000.0), IdleKind.SYNC
        )
        node.release_cpu(cpu)

    env.process(user())
    env.run(until=15_000.0)
    assert metrics.prefetch_outcomes == {
        "no_candidate": MAX_CONSECUTIVE_FAILURES
    }
