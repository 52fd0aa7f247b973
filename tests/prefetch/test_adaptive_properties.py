"""Property-based test of the adaptive policy's peek memo.

Random interleavings of every input the policy reads drive a policy
bound to a :class:`FakeCache`.  After every step each node's daemon
polls once, as idle daemons do.  Whenever a poll is answered from the
memo (no full scan ran), a full scan run right after must also come back
empty and change nothing.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.prefetch import AdaptivePolicy

from .test_adaptive import count_scans, make_policy

FILE_BLOCKS = 64
#: Clock steps (ms) taken before each poll: 40 reaches the breaker
#: cooldown, 251 the write-off age too.
ADVANCES = (0.0, 1.0, 40.0, 251.0)
#: Proposals are committed twice as often as settled any other way.
SETTLES = ("commit", "commit", "abort", "mark_covered", "suspend")
BREAKER_FEEDS = ("fail", "fail", "succeed", "allow")
SIGNALS = ("error", "timeout", "retry", "fail-slow")
#: Demand accesses and idle steps, where only the clock moves, are
#: drawn twice as often as any other step.
ACTIONS = (
    "observe",
    "observe",
    "idle",
    "idle",
    "unused",
    "pressure",
    "breaker",
    "signal",
    "insert",
    "evict",
)

#: (nodes, disks, faulted, max distance, degree cap).
SETUP = st.tuples(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.booleans(),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
)
#: (action, node modulo the node count, argument, clock step, settle).
STEP = st.tuples(
    st.sampled_from(ACTIONS),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=63),
    st.sampled_from(ADVANCES),
    st.sampled_from(SETTLES),
)


#: A step in which only the daemons poll.
IDLE = ("idle", 0, 0, 0.0, "commit")


@given(setup=SETUP, steps=st.lists(STEP, min_size=5, max_size=60))
@settings(max_examples=200, deadline=None)
# One example per memo exit, each failing without that exit, all on two
# nodes at distance 2 and degree 1.  Once idle polls have filled both
# scopes, a demand access frees a slot and moves the stream (epoch):
@example(setup=(2, 1, False, 2, 1), steps=[IDLE] * 3 + [
    ("observe", 0, 1, 0.0, "commit")])
# A predicted block that a demand fetch cached leaves again (departures):
@example(setup=(2, 1, False, 2, 1), steps=[
    ("insert", 0, 4, 0.0, "commit"), IDLE, ("evict", 0, 1, 0.0, "commit")])
# Only the clock passes the write-off age of the committed heads:
@example(setup=(2, 1, False, 2, 1), steps=[IDLE] * 3 + [
    ("idle", 0, 0, 251.0, "commit")])
# Only the clock passes the cooldown of the one disk's open breaker:
@example(setup=(2, 1, True, 2, 1), steps=[
    ("breaker", 0, 0, 0.0, "commit"), ("idle", 0, 0, 40.0, "commit")])
def test_memoized_empty_peek_matches_a_full_scan(setup, steps):
    n_nodes, n_disks, faulted, max_distance, degree_cap = setup
    policy, cache = make_policy(
        n_nodes=n_nodes,
        file_blocks=FILE_BLOCKS,
        n_disks=n_disks,
        breaker_cooldown=40.0 if faulted else None,
        initial_distance=max_distance,
        max_distance=max_distance,
        degree_cap=degree_cap,
    )
    scans = count_scans(policy)
    cursors = [node * FILE_BLOCKS // n_nodes for node in range(n_nodes)]
    shared = 0
    committed = []
    # Every node starts inside a sequential run, so it predicts.
    for node in range(n_nodes):
        for _ in range(3):
            cursors[node] += 1
            cache.emit("fs.access", node, cursors[node])
            cache.blocks.add(cursors[node])
    for action, node, arg, advance, settle in steps:
        node %= n_nodes
        if action == "observe":
            # A short run on the node's own stream, now and then after a
            # jump, or now and then the next block of a shared stream.
            if arg % 8 == 0:
                shared += 1
                blocks = [shared]
            else:
                start = cursors[node] + (17 if arg % 8 == 7 else 0)
                blocks = [start + k for k in range(1, 2 + arg % 3)]
                cursors[node] = blocks[-1]
            for block in blocks:
                # The demand access, then the fetch a miss starts.
                cache.emit("fs.access", node, block % FILE_BLOCKS)
                cache.blocks.add(block % FILE_BLOCKS)
        elif action == "unused":
            live = sorted(b for b in set(committed) if b in cache.blocks)
            if live:
                block = live[arg % len(live)]
                cache.evict(block)
                reason = "fetch_failed" if arg % 2 else "evicted"
                cache.emit("fs.unused_prefetch", node, block, reason)
        elif action == "pressure":
            cache.emit("fs.write_pressure", node, arg % 20, 10)
        elif action == "breaker":
            _breaker(cache, BREAKER_FEEDS[arg % 4], arg // 4)
        elif action == "signal":
            cache.emit("faults.signal", SIGNALS[arg % len(SIGNALS)], 0)
        elif action == "insert":
            # Demand fetches just ahead of a stream, where predictions go.
            base = shared if arg % 8 == 0 else cursors[node]
            for k in range(1, 2 + arg % 5):
                cache.blocks.add((base + k) % FILE_BLOCKS)
        elif action == "evict":
            # Blocks leave; unconsumed prefetches are protected, as in the
            # real cache.  Usually, for each stream, the nearest block
            # ahead of it, where its predictions go; else any one block.
            for cursor in cursors if arg % 4 else cursors[:1]:
                live = sorted(
                    (b for b in cache.blocks if b not in policy._issuer),
                    key=lambda b: (b - cursor - 1) % FILE_BLOCKS,
                )
                if live:
                    cache.evict(live[0] if arg % 4 else live[arg % len(live)])
        if advance:
            cache.env.run(until=cache.env.now + advance)

        for poller in range(n_nodes):
            before = len(scans)
            answer = policy.peek(poller)
            if answer is None:
                if len(scans) == before:
                    epoch = policy._epoch
                    assert AdaptivePolicy._scan(policy, poller) is None
                    assert policy._epoch == epoch
            elif _settle(policy, cache, poller, answer[1], settle) == "commit":
                committed.append(answer[1])


def _settle(policy, cache, node, block, how):
    """Settle a proposal the way ``BlockCache.prefetch_action`` does;
    returns how it was settled."""
    layer = cache.resilience
    if layer is not None and not layer.allow_prefetch(
        block % len(layer.breakers)
    ):
        how = "suspend"
    if how == "commit":
        cache.blocks.add(block)
        policy.commit(node, -1, block)
    elif how == "mark_covered":
        cache.blocks.add(block)
        policy.mark_covered(node, -1, block)
    elif how == "abort":
        policy.abort(node, -1, block)
    else:
        policy.suspend(node, -1, block)
    return how


def _breaker(cache, feed, disk):
    """Feed one result to a breaker; its transitions emit signals."""
    layer = cache.resilience
    if layer is None:
        return
    breaker = layer.breakers[disk % len(layer.breakers)]
    if feed == "fail":
        breaker.record_failure()
    elif feed == "succeed":
        breaker.record_success()
    else:
        breaker.allow()
