"""Tests for sync styles and the DynamicBarrier."""

import pytest

from repro.sim import Environment, RandomStreams
from repro.workload import (
    DynamicBarrier,
    NoSync,
    PerProcessCountSync,
    PortionSync,
    ReplaySync,
    TotalCountSync,
    make_pattern,
    make_sync,
)


# --------------------------------------------------------- DynamicBarrier


def test_dynamic_barrier_validation():
    env = Environment()
    with pytest.raises(ValueError):
        DynamicBarrier(env, 0)


def test_dynamic_barrier_basic_release():
    env = Environment()
    barrier = DynamicBarrier(env, 2)
    released = []

    def worker(delay):
        yield env.timeout(delay)
        gen = yield barrier.wait()
        released.append((env.now, gen))

    env.process(worker(1.0))
    env.process(worker(4.0))
    env.run()
    assert released == [(4.0, 0), (4.0, 0)]
    assert sorted(barrier.wait_times) == [0.0, 3.0]


def test_dynamic_barrier_departure_releases_waiters():
    env = Environment()
    barrier = DynamicBarrier(env, 3)
    released = []

    def worker():
        yield barrier.wait()
        released.append(env.now)

    def quitter():
        yield env.timeout(5.0)
        barrier.depart()

    env.process(worker())
    env.process(worker())
    env.process(quitter())
    env.run()
    assert released == [5.0, 5.0]
    assert barrier.active == 2


def test_dynamic_barrier_departure_below_zero_rejected():
    env = Environment()
    barrier = DynamicBarrier(env, 1)
    barrier.depart()
    with pytest.raises(RuntimeError):
        barrier.depart()


def test_dynamic_barrier_wait_after_all_departed_rejected():
    env = Environment()
    barrier = DynamicBarrier(env, 1)
    barrier.depart()
    with pytest.raises(RuntimeError):
        barrier.wait()


# --------------------------------------------------------------- styles


def make_env_pattern(name="gw", n_nodes=4, total=40, file_blocks=40):
    env = Environment()
    pattern = make_pattern(
        name, n_nodes=n_nodes, total_reads=total, file_blocks=file_blocks,
        rng=RandomStreams(3),
    )
    return env, pattern


def test_no_sync_never_owes():
    env, pattern = make_env_pattern()
    sync = NoSync(env, 4)
    for i in range(100):
        sync.after_read(0, i, 0)
    assert not sync.owes(0)


def test_per_proc_count_owes_every_k():
    env, pattern = make_env_pattern()
    sync = PerProcessCountSync(env, 4, k=3)
    for i in range(2):
        sync.after_read(1, i, 0)
    assert not sync.owes(1)
    sync.after_read(1, 2, 0)
    assert sync.owes(1)
    sync.join(1)
    assert not sync.owes(1)
    # Other nodes unaffected.
    assert not sync.owes(0)


def test_total_count_owes_globally():
    env, pattern = make_env_pattern()
    sync = TotalCountSync(env, 4, k=5)
    for node in range(4):
        sync.after_read(node, 0, 0)
    assert not sync.owes(0)
    sync.after_read(0, 1, 0)  # 5th read in total
    for node in range(4):
        assert sync.owes(node)
    sync.join(2)
    assert not sync.owes(2)
    assert sync.owes(3)


def test_portion_sync_local():
    env, pattern = make_env_pattern("lfp", total=40)
    sync = PortionSync(env, 4, pattern)
    assert not sync.owes(0)
    sync.note_portion_complete(0)
    assert sync.owes(0)
    assert not sync.owes(1)
    sync.join(0)
    assert not sync.owes(0)


def test_portion_sync_global_in_order_completion():
    env, pattern = make_env_pattern("gfp", total=40)
    sync = PortionSync(env, 4, pattern)
    portions = pattern.portions[0]
    # Consume all refs of portion 0 (10 refs with default length 10).
    for idx in range(10):
        sync.after_read(idx % 4, idx, int(portions[idx]))
    for node in range(4):
        assert sync.owes(node)


def test_portion_sync_global_out_of_order_completion():
    """Portion 1 finishing before portion 0 does not credit an epoch."""
    env, pattern = make_env_pattern("gfp", total=40)
    sync = PortionSync(env, 4, pattern)
    portions = pattern.portions[0]
    # Consume all of portion 1 but only part of portion 0.
    for idx in range(10, 20):
        sync.after_read(0, idx, int(portions[idx]))
    assert not sync.owes(0)
    for idx in range(0, 10):
        sync.after_read(0, idx, int(portions[idx]))
    # Both portions now complete: two epochs due.
    assert sync.owes(0)
    sync.join(0)
    assert sync.owes(0)


def test_sync_validation():
    env, pattern = make_env_pattern()
    with pytest.raises(ValueError):
        PerProcessCountSync(env, 4, k=0)
    with pytest.raises(ValueError):
        TotalCountSync(env, 4, k=0)
    with pytest.raises(ValueError):
        make_sync("lockstep", env, 4, pattern)


def test_make_sync_factory():
    env, pattern = make_env_pattern()
    assert isinstance(make_sync("none", env, 4, pattern), NoSync)
    assert isinstance(
        make_sync("per-proc", env, 4, pattern), PerProcessCountSync
    )
    assert isinstance(make_sync("total", env, 4, pattern), TotalCountSync)
    assert isinstance(make_sync("portion", env, 4, pattern), PortionSync)
    # "replay" replays a trace's recorded visits; other patterns have none.
    from repro.traces import make_synthetic_trace

    trace = make_synthetic_trace("bursty", n_nodes=4, reads_per_node=5)
    assert isinstance(
        make_sync("replay", env, 4, trace.to_pattern()), ReplaySync
    )
    with pytest.raises(ValueError, match="pattern 'gw'"):
        make_sync("replay", env, 4, pattern)


def test_depart_is_idempotent():
    env, pattern = make_env_pattern()
    sync = NoSync(env, 4)
    sync.depart(0)
    sync.depart(0)  # no error, no double-decrement
    assert sync.barrier.active == 3
