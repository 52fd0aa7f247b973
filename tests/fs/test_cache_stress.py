"""Stress tests for the cache's rare paths: allocation waits when every
demand buffer is pinned, and table re-checks after waiting."""

from repro.sim import RandomStreams

from ..helpers import build_stack, user_read


def test_demand_allocation_waits_when_all_buffers_pinned():
    """Three concurrent misses with only two demand buffers: the third
    must wait for a buffer release, then complete."""
    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=2, n_disks=2, file_blocks=100
    )
    results = []

    # Two real misses pin both demand buffers during their fetches.
    env.process(user_read(server, machine.nodes[0], 1, results))
    env.process(user_read(server, machine.nodes[1], 2, results))

    # A third reader (cohabiting node 0) arrives while both buffers are
    # pinned and must wait on the freed signal.
    def third():
        yield env.timeout(5.0)
        yield env.process(user_read(server, machine.nodes[0], 3, results))

    env.process(third())
    env.run()
    assert len(results) == 3
    assert metrics.misses == 3
    # The third read's allocation stalled for a measurable time.
    assert cache.alloc_waits.max > 1.0
    cache.check_invariants()


def test_waiter_recheck_finds_block_fetched_by_other():
    """While waiting for a free buffer, the wanted block is fetched by
    another node: the waiter must convert to a hit, not double-fetch."""
    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=2, n_disks=2, file_blocks=100
    )
    results = []

    # Node 0 misses block 1; node 1 misses block 2: both buffers pinned.
    env.process(user_read(server, machine.nodes[0], 1, results))
    env.process(user_read(server, machine.nodes[1], 2, results))

    # Late reader on node 0 wants block 2 — already FETCHING: unready hit,
    # no allocation involved.
    def late_same_block():
        yield env.timeout(5.0)
        yield env.process(user_read(server, machine.nodes[0], 2, results))

    env.process(late_same_block())
    env.run()
    assert metrics.misses == 2  # block 2 fetched exactly once
    assert metrics.hits_unready == 1
    assert machine.disks[0].blocks_served + machine.disks[1].blocks_served == 2
    cache.check_invariants()


def test_randomized_read_storm_conserves_counts():
    """A randomized storm of reads (one in-flight read per node, the
    paper's model) terminates with conserved counts."""
    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=4, n_disks=4, file_blocks=50
    )
    rng = RandomStreams(11)
    reads_per_node = 15
    done = []

    def node_driver(node):
        for j in range(reads_per_node):
            yield env.timeout(
                rng.uniform(f"gap/{node.node_id}/{j}", 0.0, 5.0)
            )
            block = rng.uniform_int(f"block/{node.node_id}/{j}", 0, 49)
            yield env.process(user_read(server, node, block, done))

    for node in machine.nodes:
        env.process(node_driver(node))
    env.run()
    n_reads = 4 * reads_per_node
    assert len(done) == n_reads
    assert metrics.total_accesses == n_reads
    assert metrics.hits_ready + metrics.hits_unready + metrics.misses == n_reads
    cache.check_invariants()


def test_prefetch_storm_respects_budget():
    """Hammer prefetch actions from every node; the unused budget is never
    exceeded (checked continuously via invariants)."""
    from repro.prefetch import OraclePolicy
    from repro.workload import ProgressTracker, make_pattern

    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=4, n_disks=4, file_blocks=200, prefetch_buffers=2,
        unused_limit=5,
    )
    pattern = make_pattern("gw", n_nodes=4, file_blocks=200, total_reads=200)
    tracker = ProgressTracker(pattern, 4)
    policy = OraclePolicy(pattern, tracker)
    policy.bind(cache)
    peak = []

    def hammer(node):
        cpu = yield from node.acquire_cpu()
        for _ in range(10):
            yield from cache.prefetch_action(node.node_id, policy)
            peak.append(cache.unused_prefetched)
        node.release_cpu(cpu)

    for node in machine.nodes:
        env.process(hammer(node))
    env.run()
    assert max(peak) <= 5
    cache.check_invariants()
