"""Tests for the write path: dirty buffers, flushing, and the daemon.

The model under test is docs/writes.md: whole-block overwrites dirty a
buffer with no read-modify-write, write-through flushes synchronously,
write-back relies on the background flusher, the dirty-ratio throttle,
and clean-before-reclaim eviction flushes.
"""

import pytest

from repro.fs import WRITE_MODES, BufferState, WritebackConfig
from repro.prefetch import writeback_daemon

from ..helpers import build_stack, user_read, user_write, user_write_many

DISK_MS = 30.0


def armed_stack(write_mode="write-back", dirty_ratio=0.5,
                dirty_background_ratio=0.25, **kwargs):
    env, machine, file, cache, server, metrics = build_stack(**kwargs)
    cache.configure_writeback(
        WritebackConfig(
            write_mode=write_mode,
            dirty_ratio=dirty_ratio,
            dirty_background_ratio=dirty_background_ratio,
        )
    )
    return env, machine, file, cache, server, metrics


# --------------------------------------------------------------- config


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="write mode"):
        WritebackConfig(write_mode="journal")


def test_config_rejects_bad_ratios():
    with pytest.raises(ValueError):
        WritebackConfig(dirty_ratio=0.0)
    with pytest.raises(ValueError):
        WritebackConfig(dirty_ratio=1.5)
    with pytest.raises(ValueError):
        WritebackConfig(dirty_ratio=0.2, dirty_background_ratio=0.4)


def test_config_limits_in_blocks():
    config = WritebackConfig(dirty_ratio=0.5, dirty_background_ratio=0.25)
    assert config.dirty_limit_for(8) == 4
    assert config.background_limit_for(8) == 2
    # The foreground limit never rounds down to zero.
    assert config.dirty_limit_for(1) == 1
    assert "write-back" in WRITE_MODES and "write-through" in WRITE_MODES


# ----------------------------------------------------------- write-back


def test_write_back_buffers_dirty_without_disk_io():
    env, machine, file, cache, server, metrics = armed_stack()
    results = []
    env.process(user_write(server, machine.nodes[0], 3, results))
    env.run()
    assert cache.dirty_count == 1
    assert cache.table[3].state is BufferState.DIRTY
    assert metrics.write_misses == 1
    assert cache.dirty_peak == 1
    # Buffered write: no disk access on the application's path.
    assert metrics.write_times.mean < DISK_MS
    assert machine.disks[0].blocks_served + machine.disks[1].blocks_served == 0


def test_rewrite_of_dirty_block_is_a_hit_and_not_recounted():
    env, machine, file, cache, server, metrics = armed_stack()
    env.process(user_write_many(server, machine.nodes[0], [3, 3]))
    env.run()
    assert cache.dirty_count == 1
    assert metrics.write_misses == 1
    assert metrics.write_hits == 1
    assert cache.dirty_peak == 1


def test_write_hit_on_cached_block_dirties_it():
    env, machine, file, cache, server, metrics = armed_stack()

    def read_then_write():
        yield env.process(user_read(server, machine.nodes[0], 5))
        yield env.process(user_write(server, machine.nodes[0], 5))

    env.process(read_then_write())
    env.run()
    assert cache.table[5].state is BufferState.DIRTY
    assert metrics.write_hits == 1
    assert cache.dirty_count == 1


def test_write_to_unready_buffer_waits_for_the_fetch():
    """A write landing on a block mid-fetch waits the read I/O out, then
    overwrites — the buffer ends dirty, not clean."""
    env, machine, file, cache, server, metrics = armed_stack()

    def late_writer():
        yield env.timeout(10.0)
        yield env.process(user_write(server, machine.nodes[1], 3))

    env.process(user_read(server, machine.nodes[0], 3))
    env.process(late_writer())
    env.run()
    assert cache.table[3].state is BufferState.DIRTY
    assert metrics.write_hits == 1
    # The writer waited out the remaining ~20 ms of the fetch.
    assert metrics.write_times.mean > 15.0


# --------------------------------------------------------- write-through


def test_write_through_flushes_synchronously():
    env, machine, file, cache, server, metrics = armed_stack(
        write_mode="write-through"
    )
    env.process(user_write(server, machine.nodes[0], 3))
    env.run()
    assert cache.dirty_count == 0
    assert cache.table[3].state is BufferState.READY
    assert cache.flushes_by_reason == {"write-through": 1}
    assert sum(d.write_response.count for d in machine.disks) == 1
    # Durable-side latency includes the disk write.
    assert metrics.write_times.mean >= DISK_MS


# ------------------------------------------------------------- throttle


def test_dirty_ratio_throttle_bounds_dirty_growth():
    env, machine, file, cache, server, metrics = armed_stack(
        dirty_ratio=0.25, dirty_background_ratio=0.0
    )
    # 8 buffers -> throttle at 2 dirty; five distinct-block writes must
    # stall and flush rather than dirty the whole cache.
    env.process(user_write_many(server, machine.nodes[0], [0, 1, 2, 3, 4]))
    env.run()
    assert metrics.throttle_stalls.count > 0
    assert cache.flushes_by_reason.get("throttle", 0) > 0
    assert cache.dirty_peak <= cache.dirty_limit
    # Each stall paid (at least) a disk write.
    assert metrics.throttle_stalls.mean >= DISK_MS


def test_no_throttle_below_the_limit():
    # A demand pool wide enough that no eviction flush interferes.
    env, machine, file, cache, server, metrics = armed_stack(
        demand_buffers=4
    )
    env.process(user_write_many(server, machine.nodes[0], [0, 1, 2]))
    env.run()
    assert metrics.throttle_stalls.count == 0
    assert cache.flushes_by_reason == {}
    assert cache.dirty_count == 3


# ------------------------------------------------- eviction-forced flush


def test_reclaim_flushes_dirty_blocks_rather_than_deadlocking():
    """A cache full of dirty data must clean-before-reclaim: the read
    that needs a buffer forces the oldest dirty block out synchronously
    (and completes) instead of waiting forever."""
    env, machine, file, cache, server, metrics = armed_stack(
        dirty_ratio=1.0, dirty_background_ratio=1.0
    )
    results = []

    def write_fill_then_read():
        # Dirty every buffer this node can reach, then demand a miss.
        yield env.process(
            user_write_many(server, machine.nodes[0], list(range(8)))
        )
        yield env.process(user_read(server, machine.nodes[0], 90, results))

    env.process(write_fill_then_read())
    env.run()
    assert results, "the read never completed: reclaim deadlocked"
    assert cache.flushes_by_reason.get("eviction", 0) >= 1
    cache.check_invariants()


# ----------------------------------------------------------- the daemon


def test_daemon_flushes_during_idle_time():
    env, machine, file, cache, server, metrics = armed_stack(
        dirty_background_ratio=0.0
    )
    node = machine.nodes[0]
    daemon = writeback_daemon(node, cache)

    def write_then_idle():
        # Three dirty blocks, then a miss: the ~30 ms SELF_IO idle
        # period is the flusher's window.
        yield env.process(user_write_many(server, node, [0, 1, 2]))
        yield env.process(user_read(server, node, 50))

    env.process(write_then_idle())
    env.run()
    assert metrics.flush_outcomes.get("success", 0) >= 1
    assert cache.flushes_by_reason.get("background", 0) >= 1
    assert sum(d.write_response.count for d in machine.disks) >= 1
    assert cache.dirty_count < 3
    assert node.daemons["writeback"] is daemon


def test_daemon_sits_out_below_background_threshold():
    env, machine, file, cache, server, metrics = armed_stack(
        dirty_ratio=0.75, dirty_background_ratio=0.5
    )
    node = machine.nodes[0]
    writeback_daemon(node, cache)

    def write_then_idle():
        yield env.process(user_write(server, node, 0))  # 1 < limit of 4
        yield env.process(user_read(server, node, 50))

    env.process(write_then_idle())
    env.run()
    assert metrics.flush_outcomes.get("success", 0) == 0
    assert metrics.flush_outcomes.get("clean", 0) >= 1
    assert cache.dirty_count == 1


def test_daemon_action_probe_fires():
    env, machine, file, cache, server, metrics = armed_stack(
        dirty_background_ratio=0.0
    )
    node = machine.nodes[0]
    writeback_daemon(node, cache)
    seen = []
    env.subscribe(
        "writeback.action",
        lambda nid, s, e, out: seen.append((nid, s, e, out)),
    )

    def write_then_idle():
        yield env.process(user_write(server, node, 0))
        yield env.process(user_read(server, node, 50))

    env.process(write_then_idle())
    env.run()
    assert seen
    assert all(nid == 0 and e >= s for nid, s, e, _ in seen)
    assert any(out == "success" for _, _, _, out in seen)


# ------------------------------------------------------ pressure signal


def test_write_pressure_probe_sees_dirty_crossings():
    env, machine, file, cache, server, metrics = armed_stack(
        dirty_ratio=1.0, dirty_background_ratio=0.1, demand_buffers=6
    )
    seen = []
    env.subscribe(
        "fs.write_pressure",
        lambda nid, dirty, limit: seen.append((nid, dirty, limit)),
    )
    env.process(user_write_many(server, machine.nodes[0], [0, 1, 2, 3]))
    env.run()
    assert len(seen) == 4
    assert [dirty for _, dirty, _ in seen] == [1, 2, 3, 4]
    assert all(limit == cache.dirty_background_limit for _, _, limit in seen)
    # The crossing the adaptive policy latches on: above background.
    assert any(dirty > limit for _, dirty, limit in seen)


# ----------------------------------------------------------- invariants


def test_invariants_hold_after_mixed_traffic():
    env, machine, file, cache, server, metrics = armed_stack(
        dirty_ratio=0.5, dirty_background_ratio=0.0
    )
    node0, node1 = machine.nodes[0], machine.nodes[1]
    writeback_daemon(node0, cache)
    writeback_daemon(node1, cache)

    def traffic(node, blocks):
        for block in blocks:
            if block % 3 == 0:
                yield env.process(user_write(server, node, block))
            else:
                yield env.process(user_read(server, node, block))

    env.process(traffic(node0, list(range(0, 12))))
    env.process(traffic(node1, list(range(6, 18))))
    env.run()
    cache.check_invariants()
    assert machine.memory.active == 0
    assert metrics.write_misses + metrics.write_hits > 0
