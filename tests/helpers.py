"""Shared test fixtures: small machine/cache stacks."""

from repro.fs import BlockCache, CacheConfig, File, FileServer
from repro.machine import CostModel, Machine, MachineConfig
from repro.metrics import RunMetrics
from repro.sim import Environment


def build_stack(
    n_nodes=2,
    n_disks=2,
    file_blocks=100,
    demand_buffers=1,
    prefetch_buffers=3,
    unused_limit=None,
    replacement="ru-set",
    costs=None,
    disk_access_time=30.0,
):
    """A small but complete machine + cache stack for unit tests.

    Returns ``(env, machine, file, cache, server, metrics)``.
    """
    env = Environment()
    costs = costs or CostModel(disk_access_time=disk_access_time)
    machine = Machine(
        env, MachineConfig(n_nodes=n_nodes, n_disks=n_disks, costs=costs)
    )
    file = File.interleaved("test", file_blocks, n_disks)
    metrics = RunMetrics(env, n_nodes)
    cache = BlockCache(
        env,
        machine,
        file,
        CacheConfig(
            demand_buffers_per_node=demand_buffers,
            prefetch_buffers_per_node=prefetch_buffers,
            prefetch_unused_limit=unused_limit,
            replacement=replacement,
        ),
    )
    server = FileServer(cache)
    return env, machine, file, cache, server, metrics


def user_read(server, node, block, results=None, ref_index=-1):
    """Generator: a minimal user process performing one read."""

    def proc():
        cpu = yield from node.acquire_cpu()
        cpu = yield from server.read_block(node, cpu, block, ref_index)
        node.release_cpu(cpu)
        if results is not None:
            results.append((node.node_id, block, node.env.now))

    return proc()


def user_read_many(server, node, blocks, results=None):
    """Generator: a user process reading ``blocks`` in order."""

    def proc():
        cpu = yield from node.acquire_cpu()
        for block in blocks:
            cpu = yield from server.read_block(node, cpu, block)
            if results is not None:
                results.append((node.node_id, block, node.env.now))
        node.release_cpu(cpu)

    return proc()


def user_write(server, node, block, results=None, ref_index=-1):
    """Generator: a minimal user process performing one write."""

    def proc():
        cpu = yield from node.acquire_cpu()
        cpu = yield from server.write_block(node, cpu, block, ref_index)
        node.release_cpu(cpu)
        if results is not None:
            results.append((node.node_id, block, node.env.now))

    return proc()


def user_write_many(server, node, blocks, results=None):
    """Generator: a user process writing ``blocks`` in order."""

    def proc():
        cpu = yield from node.acquire_cpu()
        for block in blocks:
            cpu = yield from server.write_block(node, cpu, block)
            if results is not None:
                results.append((node.node_id, block, node.env.now))
        node.release_cpu(cpu)

    return proc()
