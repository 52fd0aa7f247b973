"""Tests for the block cache: demand path, hit types, budget, eviction."""

import pytest

from repro.fs import BufferState, CacheConfig
from repro.prefetch import OraclePolicy
from repro.sim import RandomStreams
from repro.workload import ProgressTracker, make_pattern

from ..helpers import build_stack, user_read, user_read_many


# ------------------------------------------------------------- CacheConfig


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(demand_buffers_per_node=0)
    with pytest.raises(ValueError):
        CacheConfig(prefetch_buffers_per_node=-1)
    with pytest.raises(ValueError):
        CacheConfig(prefetch_unused_limit=-1)
    with pytest.raises(ValueError):
        CacheConfig(replacement="mru")


def test_cache_config_default_unused_limit():
    cfg = CacheConfig(prefetch_buffers_per_node=3)
    assert cfg.unused_limit_for(20) == 60
    assert CacheConfig(prefetch_unused_limit=7).unused_limit_for(20) == 7


def test_cache_buffer_counts_match_paper():
    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=20, n_disks=20, file_blocks=2000
    )
    # 20 demand + 60 prefetch = 80 buffers, the paper's cache size.
    assert cache.n_buffers == 80
    assert cache.unused_limit == 60


# ------------------------------------------------------------ demand path


def test_cold_miss_takes_disk_time():
    env, machine, file, cache, server, metrics = build_stack()
    results = []
    env.process(user_read(server, machine.nodes[0], 5, results))
    env.run()
    assert metrics.misses == 1
    assert metrics.hits_ready == 0
    # Read took at least the disk access time.
    assert metrics.read_times.mean >= 30.0
    assert cache.buffer_for(5) is not None
    assert cache.buffer_for(5).state is BufferState.READY


def test_signal_freed_without_parked_read_schedules_nothing():
    env, machine, file, cache, server, metrics = build_stack()
    env.process(user_read(server, machine.nodes[0], 5))
    env.run()
    before = env.event_count
    cache._signal_freed()
    assert env.event_count == before


def test_reread_same_block_is_ready_hit():
    env, machine, file, cache, server, metrics = build_stack()
    node = machine.nodes[0]
    env.process(user_read_many(server, node, [5, 5]))
    env.run()
    assert metrics.misses == 1
    assert metrics.hits_ready == 1
    # Hit time is tiny compared to the miss.
    assert metrics.read_times.min < 5.0


def test_concurrent_same_block_gives_unready_hit():
    env, machine, file, cache, server, metrics = build_stack()

    def second_reader():
        yield env.timeout(5.0)  # after the first has started fetching
        yield env.process(user_read(server, machine.nodes[1], 7))

    env.process(user_read(server, machine.nodes[0], 7))
    env.process(second_reader())
    env.run()
    assert metrics.misses == 1
    assert metrics.hits_unready == 1
    assert metrics.hit_wait.count == 1
    # The second reader waited out the remaining I/O: < 30 ms.
    assert 0 < metrics.hit_wait.mean < 30.0


def test_toss_immediately_demand_replacement():
    """With RU-set size 1, a node's next miss evicts its own previous block."""
    env, machine, file, cache, server, metrics = build_stack()
    node = machine.nodes[0]
    env.process(user_read_many(server, node, [1, 2]))
    env.run()
    assert cache.buffer_for(2) is not None
    assert cache.buffer_for(1) is None  # tossed
    assert metrics.misses == 2


def test_nodes_have_independent_demand_buffers():
    env, machine, file, cache, server, metrics = build_stack()
    env.process(user_read(server, machine.nodes[0], 1))
    env.process(user_read(server, machine.nodes[1], 2))
    env.run()
    assert cache.buffer_for(1) is not None
    assert cache.buffer_for(2) is not None


def test_check_invariants_after_traffic():
    env, machine, file, cache, server, metrics = build_stack()
    for node, blocks in ((0, [1, 3, 5]), (1, [2, 3, 6])):
        env.process(user_read_many(server, machine.nodes[node], blocks))
    env.run()
    cache.check_invariants()
    assert metrics.total_accesses == 6


def test_access_probe_fires_per_demand_access():
    env, machine, file, cache, server, metrics = build_stack()
    seen = []
    env.subscribe("fs.access", lambda node, block: seen.append((node, block)))
    env.process(user_read_many(server, machine.nodes[0], [4, 4, 9]))
    env.run()
    assert seen == [(0, 4), (0, 4), (0, 9)]


# --------------------------------------------------------- prefetch path


def _oracle_for(cache, pattern_name="gw", n_nodes=2, file_blocks=100,
                total_reads=None):
    pattern = make_pattern(
        pattern_name,
        n_nodes=n_nodes,
        file_blocks=file_blocks,
        total_reads=total_reads or file_blocks,
        rng=RandomStreams(1),
    )
    tracker = ProgressTracker(pattern, n_nodes)
    policy = OraclePolicy(pattern, tracker)
    policy.bind(cache)
    return pattern, tracker, policy


def test_prefetch_action_success_fills_buffer():
    env, machine, file, cache, server, metrics = build_stack()
    pattern, tracker, policy = _oracle_for(cache)
    outcomes = []

    def daemon_once():
        cpu = yield from machine.nodes[0].acquire_cpu()
        outcome = yield from cache.prefetch_action(0, policy)
        machine.nodes[0].release_cpu(cpu)
        outcomes.append(outcome)

    env.process(daemon_once())
    env.run()
    assert outcomes == ["success"]
    assert cache.unused_prefetched == 1
    buf = cache.buffer_for(0)  # gw oracle prefetches block 0 first
    assert buf is not None
    assert buf.state is BufferState.READY


def test_prefetched_block_hit_releases_budget():
    env, machine, file, cache, server, metrics = build_stack()
    pattern, tracker, policy = _oracle_for(cache)

    def scenario():
        cpu = yield from machine.nodes[0].acquire_cpu()
        yield from cache.prefetch_action(0, policy)
        machine.nodes[0].release_cpu(cpu)
        yield env.timeout(60.0)  # let the I/O complete
        assert cache.unused_prefetched == 1
        yield env.process(user_read(server, machine.nodes[1], 0))
        assert cache.unused_prefetched == 0

    env.process(scenario())
    env.run()
    assert metrics.hits_ready == 1
    cache.check_invariants()


def test_budget_full_blocks_prefetch():
    env, machine, file, cache, server, metrics = build_stack(
        unused_limit=2, prefetch_buffers=3
    )
    pattern, tracker, policy = _oracle_for(cache)
    outcomes = []

    def daemon():
        cpu = yield from machine.nodes[0].acquire_cpu()
        for _ in range(3):
            outcome = yield from cache.prefetch_action(0, policy)
            outcomes.append(outcome)
        machine.nodes[0].release_cpu(cpu)

    env.process(daemon())
    env.run()
    assert outcomes == ["success", "success", "budget_full"]
    assert cache.unused_prefetched == 2


def test_no_buffer_when_all_prefetch_buffers_busy():
    env, machine, file, cache, server, metrics = build_stack(
        prefetch_buffers=1, unused_limit=10
    )
    pattern, tracker, policy = _oracle_for(cache)
    outcomes = []

    def daemon():
        cpu = yield from machine.nodes[0].acquire_cpu()
        for _ in range(3):
            outcome = yield from cache.prefetch_action(0, policy)
            outcomes.append(outcome)
        machine.nodes[0].release_cpu(cpu)

    env.process(daemon())
    env.run()
    # 2 buffers machine-wide (1/node); the third attempt finds none
    # evictable (both hold prefetched-unused blocks).
    assert outcomes == ["success", "success", "no_buffer"]


def test_consumed_prefetch_buffer_is_reused():
    env, machine, file, cache, server, metrics = build_stack(
        prefetch_buffers=1, unused_limit=10
    )
    pattern, tracker, policy = _oracle_for(cache)

    def scenario():
        cpu = yield from machine.nodes[0].acquire_cpu()
        for _ in range(2):
            yield from cache.prefetch_action(0, policy)
        machine.nodes[0].release_cpu(cpu)
        yield env.timeout(100.0)
        # Consume block 0; its buffer becomes evictable.
        yield env.process(user_read(server, machine.nodes[1], 0))
        cpu = yield from machine.nodes[0].acquire_cpu()
        outcome = yield from cache.prefetch_action(0, policy)
        machine.nodes[0].release_cpu(cpu)
        assert outcome == "success"

    env.process(scenario())
    env.run()
    # The third prefetch took block 0's buffer once a demand hit had
    # consumed block 0: blocks 1 and 2 now hold the budget.
    assert sorted(cache.table) == [1, 2]
    assert cache.unused_prefetched == 2
    cache.check_invariants()


def test_prefetch_no_candidate_with_null_view():
    """Oracle exhausted when the whole string is claimed."""
    env, machine, file, cache, server, metrics = build_stack(file_blocks=2)
    pattern, tracker, policy = _oracle_for(cache, file_blocks=2)
    outcomes = []

    def daemon():
        cpu = yield from machine.nodes[0].acquire_cpu()
        for _ in range(3):
            outcome = yield from cache.prefetch_action(0, policy)
            outcomes.append(outcome)
        machine.nodes[0].release_cpu(cpu)

    env.process(daemon())
    env.run()
    assert outcomes == ["success", "success", "no_candidate"]
    assert policy.exhausted(0)


def test_global_lru_replacement_option():
    env, machine, file, cache, server, metrics = build_stack(
        replacement="global-lru"
    )
    node = machine.nodes[0]
    env.process(user_read_many(server, node, [1, 2, 3]))
    env.run()
    # With 2 demand buffers total (1/node) and global LRU, node 0's reads
    # cycle through both buffers.
    assert metrics.misses == 3
    cache.check_invariants()
