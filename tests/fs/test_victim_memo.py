"""The failed prefetch-victim memo against a fresh scan.

When a prefetch-victim search finds no buffer, ``BlockCache`` answers
the next searches None without scanning until ``_signal_freed`` runs
again.  These tests drive a small write-back cache through its real
entry points: demand reads with their copy-out, writes, background
flushes, prefetch actions, and prefetch fetches that complete or fail.
Every search answered None must also find nothing in a fresh scan, and
``check_invariants``, run before every event, checks a holding memo the
same way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import InvariantViolation
from repro.faults.errors import ReadFailedError
from repro.fs import RUSetPolicy, WritebackConfig
from repro.machine import RequestKind
from repro.prefetch import PrefetchPolicy

from ..helpers import build_stack

#: Demand reads and writes touch blocks 0..7; prefetches also propose
#: blocks 8..11, and only those may fail, so no reader waits on a
#: failed fetch.
DEMAND_BLOCKS = 8
FILE_BLOCKS = 12


class CountingRUSet(RUSetPolicy):
    """The paper's replacement policy, counting prefetch-victim scans."""

    scans = 0

    def prefetch_victim(self, cache, node_id):
        self.scans += 1
        return super().prefetch_victim(cache, node_id)


class FlakyLayer:
    """Resilience-layer stand-in: every transfer takes ``delay`` ms, and
    a prefetch of a block in ``doomed`` fails instead of completing."""

    def __init__(self, env, delay, doomed):
        self.env = env
        self.delay = delay
        self.doomed = doomed

    def allow_prefetch(self, disk_id):
        return True

    def fetch(self, disk, block, kind, node_id, on_success, on_failure):
        def transfer():
            yield self.env.timeout(self.delay)
            if kind is RequestKind.PREFETCH and block in self.doomed:
                on_failure(ReadFailedError(f"block {block} lost"))
            else:
                on_success()

        self.env.process(transfer())


class OneBlock(PrefetchPolicy):
    """Proposes ``block``; at every failed victim search, checks a fresh
    scan and counts the searches the memo answered."""

    def __init__(self, cache):
        super().__init__()
        self.cache = cache
        self.block = 0
        self.failed_searches = 0
        self.memo_answers = 0
        self._scans_before = 0

    def peek(self, node_id):
        self._scans_before = self.cache.replacement.scans
        return -1, self.block

    def commit(self, node_id, ref_index, block):
        pass

    def mark_covered(self, node_id, ref_index, block):
        pass

    def abort(self, node_id, ref_index, block):
        cache = self.cache
        if cache.unused_prefetched >= cache.unused_limit:
            return  # budget_full: no victim search ran
        self.failed_searches += 1
        if cache.replacement.scans == self._scans_before:
            self.memo_answers += 1
        assert RUSetPolicy().prefetch_victim(cache, node_id) is None

    def exhausted(self, node_id):
        return False


def memo_stack(n_nodes=2, prefetch_buffers=1, delay=5.0, doomed=(),
               unused_limit=FILE_BLOCKS, dirty_ratio=0.5):
    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=n_nodes, n_disks=2, file_blocks=FILE_BLOCKS,
        prefetch_buffers=prefetch_buffers, unused_limit=unused_limit,
    )
    cache.configure_writeback(
        WritebackConfig(
            dirty_ratio=dirty_ratio, dirty_background_ratio=0.25
        )
    )
    cache.replacement = CountingRUSet()
    cache.resilience = FlakyLayer(env, delay, set(doomed))
    return env, machine, cache, server


def node_ops(env, node, cache, server, policy, ops):
    """One node's process: ``ops`` in order, each after its gap, each
    holding the node's CPU (one demand access in flight per node)."""
    for gap, op, block in ops:
        yield env.timeout(gap)
        cpu = yield from node.acquire_cpu()
        if op == "read":
            cpu = yield from server.read_block(node, cpu, block)
        elif op == "write":
            cpu = yield from server.write_block(node, cpu, block)
        elif op == "flush":
            yield from cache.flush_action(node.node_id)
        else:
            policy.block = block
            yield from cache.prefetch_action(node.node_id, policy)
        node.release_cpu(cpu)


OP = st.one_of(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 7.0, 40.0]),
        st.sampled_from(["read", "write", "flush"]),
        st.integers(min_value=0, max_value=DEMAND_BLOCKS - 1),
    ),
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 7.0, 40.0]),
        st.just("prefetch"),
        st.integers(min_value=0, max_value=FILE_BLOCKS - 1),
    ),
)


@given(
    n_nodes=st.integers(min_value=1, max_value=3),
    prefetch_buffers=st.integers(min_value=1, max_value=2),
    delay=st.sampled_from([2.0, 30.0]),
    unused_limit=st.sampled_from([1, 2, FILE_BLOCKS]),
    dirty_ratio=st.sampled_from([0.5, 1.0]),
    doomed=st.sets(st.integers(min_value=DEMAND_BLOCKS,
                               max_value=FILE_BLOCKS - 1)),
    scripts=st.lists(st.lists(OP, max_size=25), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_memo_answers_match_a_fresh_scan(
    n_nodes, prefetch_buffers, delay, unused_limit, dirty_ratio, doomed,
    scripts
):
    env, machine, cache, server = memo_stack(
        n_nodes, prefetch_buffers, delay, doomed, unused_limit, dirty_ratio
    )
    env.add_step_observer(lambda *event: cache.check_invariants())
    policy = OneBlock(cache)
    for node, ops in zip(machine.nodes, scripts):
        env.process(node_ops(env, node, cache, server, policy, ops))
    env.run()
    cache.check_invariants()


def test_memo_holds_until_a_buffer_is_freed():
    env, machine, cache, server = memo_stack(n_nodes=1)
    policy = OneBlock(cache)
    ops = [
        (0.0, "prefetch", 3),  # fills the one prefetch buffer, unused
        (10.0, "prefetch", 4),  # no buffer: a scan
        (0.0, "prefetch", 5),  # no buffer: the memo, no scan
        (0.0, "read", 3),  # the copy-out frees the prefetched buffer
        (0.0, "prefetch", 5),  # a scan finds it
    ]
    env.process(node_ops(env, machine.nodes[0], cache, server, policy, ops))
    env.run()
    assert (policy.failed_searches, policy.memo_answers) == (2, 1)
    assert cache.replacement.scans == 3
    assert cache.buffer_for(5) is cache.prefetch_sets[0][0]


def test_a_failed_prefetch_frees_its_buffer_for_the_next_search():
    env, machine, cache, server = memo_stack(n_nodes=1, doomed={9})
    policy = OneBlock(cache)
    ops = [
        (0.0, "prefetch", 9),  # its fetch fails after 5 ms
        (0.0, "prefetch", 4),  # buffer still fetching: a scan fails
        (10.0, "prefetch", 4),  # the failure freed it: a scan finds it
    ]
    env.process(node_ops(env, machine.nodes[0], cache, server, policy, ops))
    env.run()
    assert (policy.failed_searches, policy.memo_answers) == (1, 0)
    assert cache.buffer_for(4) is cache.prefetch_sets[0][0]


def test_a_clean_writeback_frees_a_dirtied_prefetch_buffer():
    # One dirty block stays under the throttle limit of two.
    env, machine, cache, server = memo_stack(n_nodes=1, dirty_ratio=1.0)
    policy = OneBlock(cache)
    ops = [
        (0.0, "prefetch", 3),
        (10.0, "read", 3),  # used: the prefetch buffer is evictable
        (0.0, "write", 3),  # dirty: it is not
        (0.0, "flush", 0),  # writing back for 5 ms
        (0.0, "prefetch", 4),  # a scan fails
        (10.0, "prefetch", 4),  # the clean writeback freed it
    ]
    env.process(node_ops(env, machine.nodes[0], cache, server, policy, ops))
    env.run()
    assert (policy.failed_searches, policy.memo_answers) == (1, 0)
    assert cache.buffer_for(4) is cache.prefetch_sets[0][0]


def test_invariants_catch_a_buffer_freed_without_the_signal():
    env, machine, cache, server = memo_stack(n_nodes=1)
    policy = OneBlock(cache)
    ops = [(0.0, "prefetch", 3), (10.0, "prefetch", 4)]
    env.process(node_ops(env, machine.nodes[0], cache, server, policy, ops))
    env.run()
    cache.check_invariants()  # the memo holds, and no buffer is free
    cache.prefetch_sets[0][0].record_use()  # freed, with no signal
    with pytest.raises(InvariantViolation, match="_signal_freed"):
        cache.check_invariants()
