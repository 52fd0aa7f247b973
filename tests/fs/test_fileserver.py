"""Tests for the FileServer read path timing anatomy."""

import pytest

from repro.machine import IdleKind

from ..helpers import build_stack, user_read, user_read_many


def test_miss_is_self_io_idle():
    env, machine, file, cache, server, metrics = build_stack()
    node = machine.nodes[0]
    env.process(user_read(server, node, 3))
    env.run()
    assert len(node.idle_periods) == 1
    assert node.idle_periods[0].kind is IdleKind.SELF_IO
    # Necessary wait approx the disk time.
    assert node.idle_periods[0].necessary == pytest.approx(30.0, abs=1.0)


def test_unready_hit_is_remote_io_idle():
    env, machine, file, cache, server, metrics = build_stack()

    def late_reader():
        yield env.timeout(10.0)
        yield env.process(user_read(server, machine.nodes[1], 3))

    env.process(user_read(server, machine.nodes[0], 3))
    env.process(late_reader())
    env.run()
    node1 = machine.nodes[1]
    assert len(node1.idle_periods) == 1
    assert node1.idle_periods[0].kind is IdleKind.REMOTE_IO
    # Waited out the remaining ~20 ms of the first reader's I/O.
    assert metrics.hit_wait.mean == pytest.approx(
        node1.idle_periods[0].necessary
    )
    assert metrics.hit_wait.mean < 25.0


def test_ready_hit_has_no_idle_period():
    env, machine, file, cache, server, metrics = build_stack()
    node = machine.nodes[0]
    env.process(user_read_many(server, node, [3, 3]))
    env.run()
    # Only the miss produced an idle period.
    assert len(node.idle_periods) == 1
    assert metrics.hits_ready == 1


def test_read_latency_recorded_per_node():
    env, machine, file, cache, server, metrics = build_stack()
    env.process(user_read(server, machine.nodes[0], 1))
    env.process(user_read(server, machine.nodes[1], 2))
    env.run()
    assert metrics.read_times.count == 2
    # One read per node: each node's mean is that read's latency.
    means = metrics.per_node_mean_read_times()
    assert sorted(means) == sorted(metrics.read_times.samples)


def test_memory_system_balanced_after_reads():
    env, machine, file, cache, server, metrics = build_stack()
    env.process(user_read_many(server, machine.nodes[0], [1, 2, 3]))
    env.run()
    assert machine.memory.active == 0


def test_miss_latency_includes_queueing():
    """Two nodes missing blocks on the same disk serialize."""
    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=2, n_disks=2
    )
    # blocks 0 and 2 both live on disk 0 (round-robin over 2 disks).
    env.process(user_read(server, machine.nodes[0], 0))
    env.process(user_read(server, machine.nodes[1], 2))
    env.run()
    assert metrics.read_times.max >= 60.0
    assert machine.disks[0].blocks_served == 2
    assert machine.disks[1].blocks_served == 0
