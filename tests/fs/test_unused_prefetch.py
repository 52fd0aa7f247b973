"""Tests for the unused-prefetch accounting (the ``fs.unused_prefetch``
probe and the run metrics' counters fed from it)."""

from repro.fs.buffer import BufferState, RequestKind
from repro.prefetch import OraclePolicy
from repro.sim.rng import RandomStreams
from repro.workload.patterns import make_pattern
from repro.workload.progress import ProgressTracker

from ..helpers import build_stack, user_read


def _oracle_for(cache, n_nodes=2, file_blocks=100):
    pattern = make_pattern(
        "gw",
        n_nodes=n_nodes,
        file_blocks=file_blocks,
        total_reads=file_blocks,
        rng=RandomStreams(1),
    )
    tracker = ProgressTracker(pattern, n_nodes)
    policy = OraclePolicy(pattern, tracker)
    policy.bind(cache)
    return policy


def _prefetch_one(env, machine, cache, policy):
    def daemon_once():
        cpu = yield from machine.nodes[0].acquire_cpu()
        yield from cache.prefetch_action(0, policy)
        machine.nodes[0].release_cpu(cpu)

    env.process(daemon_once())
    env.run()


def test_eviction_counts_unused_prefetch():
    env, machine, file, cache, server, metrics = build_stack()
    policy = _oracle_for(cache)
    events = []
    env.subscribe(
        "fs.unused_prefetch",
        lambda node, block, reason: events.append((node, block, reason)),
    )
    _prefetch_one(env, machine, cache, policy)
    buf = cache.buffer_for(0)
    assert buf is not None and buf.read_count == 0

    cache._evict(buf)
    assert metrics.prefetch_unused_evictions == 1
    assert metrics.prefetch_write_offs == 0
    assert events == [(0, 0, "evicted")]


def test_fetch_failed_mid_flight_prefetch_is_written_off():
    # Regression: a prefetch killed by a fail-stopped disk must be
    # booked as a write-off (reason "fetch_failed"), not as an ordinary
    # unused eviction — and must not linger as a phantom commitment.
    env, machine, file, cache, server, metrics = build_stack()
    events = []
    env.subscribe(
        "fs.unused_prefetch",
        lambda node, block, reason: events.append((node, block, reason)),
    )

    def scenario():
        buf = cache.prefetch_sets[0][0]
        buf.start_fetch(7, RequestKind.PREFETCH, 0)
        cache.table[7] = buf
        cache.unused_prefetched += 1
        cache._budget_holders.add(buf.index)
        assert buf.state is BufferState.FETCHING
        cache.fetch_failed(buf, RuntimeError("disk died"))
        yield env.timeout(0)

    env.process(scenario())
    env.run()
    assert metrics.prefetch_write_offs == 1
    assert metrics.prefetch_unused_evictions == 0
    assert events == [(0, 7, "fetch_failed")]
    assert cache.unused_prefetched == 0  # budget returned


def test_consumed_prefetch_is_not_counted():
    env, machine, file, cache, server, metrics = build_stack()
    policy = _oracle_for(cache)

    def scenario():
        cpu = yield from machine.nodes[0].acquire_cpu()
        yield from cache.prefetch_action(0, policy)
        machine.nodes[0].release_cpu(cpu)
        yield env.timeout(60.0)  # let the I/O complete
        yield env.process(user_read(server, machine.nodes[1], 0))

    env.process(scenario())
    env.run()
    buf = cache.buffer_for(0)
    assert buf is not None and buf.read_count > 0
    cache._evict(buf)
    assert metrics.prefetch_unused_evictions == 0


def test_demand_fetch_failure_is_not_counted():
    env, machine, file, cache, server, metrics = build_stack()

    def scenario():
        buf = cache.demand_rusets[0][0]
        buf.start_fetch(7, RequestKind.DEMAND, 0)
        cache.table[7] = buf
        cache.fetch_failed(buf, RuntimeError("disk died"))
        yield env.timeout(0)

    env.process(scenario())
    env.run()
    assert metrics.prefetch_unused_evictions == 0


def test_observer_is_optional():
    """With no subscriber at all, not even the run's metrics, a wasted
    prefetch still leaves the cache consistent and counts nothing."""
    env, machine, file, cache, server, metrics = build_stack()
    env.unsubscribe_all()
    policy = _oracle_for(cache)
    assert env.probe("fs.unused_prefetch") == []
    _prefetch_one(env, machine, cache, policy)
    cache._evict(cache.buffer_for(0))
    assert metrics.prefetch_unused_evictions == 0
    assert cache.unused_prefetched == 0
    cache.check_invariants()
