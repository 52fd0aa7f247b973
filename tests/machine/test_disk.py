"""Tests for the disk model and FIFO service."""

import pytest

from repro.analysis.invariants import InvariantViolation
from repro.machine import Disk, FixedDiskModel, RequestKind, SeekDiskModel
from repro.sim import Environment


def test_fixed_model_validation():
    with pytest.raises(ValueError):
        FixedDiskModel(access_time=0.0)


def test_single_request_takes_access_time():
    env = Environment()
    disk = Disk(env, 0, FixedDiskModel(30.0))
    done = []

    def proc():
        req = disk.submit(block=5, kind=RequestKind.DEMAND, node_id=1)
        result = yield req.done
        done.append((env.now, result.block))

    env.process(proc())
    env.run()
    assert done == [(30.0, 5)]


def test_fifo_queueing_and_response_time():
    env = Environment()
    disk = Disk(env, 0, FixedDiskModel(30.0))
    responses = []

    def proc(block):
        req = disk.submit(block=block, kind=RequestKind.DEMAND, node_id=0)
        result = yield req.done
        responses.append((result.block, result.response_time))

    for b in range(3):
        env.process(proc(b))
    env.run()
    # All enqueued at t=0; service is serialized.
    assert responses == [(0, 30.0), (1, 60.0), (2, 90.0)]
    assert disk.blocks_served == 3
    assert env.now == 90.0


def test_response_time_excludes_preenqueue_delay():
    env = Environment()
    disk = Disk(env, 0, FixedDiskModel(30.0))
    out = []

    def proc():
        yield env.timeout(100.0)
        req = disk.submit(block=0, kind=RequestKind.DEMAND, node_id=0)
        result = yield req.done
        out.append(result.response_time)

    env.process(proc())
    env.run()
    assert out == [30.0]


def test_kind_partitioned_stats():
    env = Environment()
    disk = Disk(env, 0, FixedDiskModel(10.0))

    def proc(kind):
        req = disk.submit(block=0, kind=kind, node_id=0)
        yield req.done

    env.process(proc(RequestKind.DEMAND))
    env.process(proc(RequestKind.PREFETCH))
    env.process(proc(RequestKind.PREFETCH))
    env.run()
    assert disk.demand_response.count == 1
    assert disk.prefetch_response.count == 2
    assert disk.response_times.count == 3


def test_utilization():
    env = Environment()
    disk = Disk(env, 0, FixedDiskModel(10.0))

    def proc():
        req = disk.submit(block=0, kind=RequestKind.DEMAND, node_id=0)
        yield req.done
        yield env.timeout(10.0)  # idle tail

    env.process(proc())
    env.run()
    assert disk.utilization() == pytest.approx(0.5)


def test_pending_counts_waiting_only():
    env = Environment()
    disk = Disk(env, 0, FixedDiskModel(10.0))
    observed = []

    def submitter():
        for b in range(3):
            disk.submit(block=b, kind=RequestKind.DEMAND, node_id=0)
        yield env.timeout(1.0)
        observed.append(disk.pending)

    env.process(submitter())
    env.run()
    # One in service, two waiting at t=1.
    assert observed == [2]


def test_request_properties_before_completion_raise():
    env = Environment()
    disk = Disk(env, 0, FixedDiskModel(10.0))
    req = disk.submit(block=0, kind=RequestKind.DEMAND, node_id=0)
    with pytest.raises(InvariantViolation, match="block 0"):
        _ = req.response_time
    with pytest.raises(InvariantViolation, match="node 0"):
        _ = req.service_time
    env.run()
    assert req.service_time == 10.0


def test_seek_model_head_movement():
    model = SeekDiskModel(
        blocks_per_cylinder=10,
        transfer_time=2.0,
        seek_per_cylinder=1.0,
        rotation_time=10.0,
    )
    env = Environment()
    Disk(env, 0, model)

    # Direct model check: block 0 (cyl 0) then block 95 (cyl 9).
    from repro.machine.disk import DiskRequest
    from repro.sim import Event

    r1 = DiskRequest(block=0, kind=RequestKind.DEMAND, node_id=0,
                     enqueue_time=0.0, done=Event(env))
    r2 = DiskRequest(block=95, kind=RequestKind.DEMAND, node_id=0,
                     enqueue_time=0.0, done=Event(env))
    t1 = model.service_time(r1)
    t2 = model.service_time(r2)
    assert t1 == pytest.approx(2.0 + 0.0 + 5.0)
    assert t2 == pytest.approx(2.0 + 9.0 + 5.0)


def test_seek_model_validation():
    with pytest.raises(ValueError):
        SeekDiskModel(blocks_per_cylinder=0)


def test_parallel_disks_are_independent():
    env = Environment()
    disks = [Disk(env, i, FixedDiskModel(30.0)) for i in range(4)]
    finish = []

    def proc(disk):
        req = disk.submit(block=0, kind=RequestKind.DEMAND, node_id=0)
        yield req.done
        finish.append(env.now)

    for d in disks:
        env.process(proc(d))
    env.run()
    assert finish == [30.0, 30.0, 30.0, 30.0]


def test_jittered_model_validation():
    from repro.machine import JitteredDiskModel

    with pytest.raises(ValueError):
        JitteredDiskModel(mean_time=0)
    with pytest.raises(ValueError):
        JitteredDiskModel(jitter=1.0)
    with pytest.raises(ValueError):
        JitteredDiskModel(jitter=-0.1)


def test_jittered_model_bounds_and_determinism():
    from repro.machine import JitteredDiskModel
    from repro.machine.disk import DiskRequest
    from repro.sim import Event

    env = Environment()
    req = DiskRequest(block=0, kind=RequestKind.DEMAND, node_id=0,
                      enqueue_time=0.0, done=Event(env))
    a = JitteredDiskModel(mean_time=30.0, jitter=0.3, seed=7)
    b = JitteredDiskModel(mean_time=30.0, jitter=0.3, seed=7)
    times_a = [a.service_time(req) for _ in range(50)]
    times_b = [b.service_time(req) for _ in range(50)]
    assert times_a == times_b
    assert all(21.0 <= t <= 39.0 for t in times_a)
    assert len(set(round(t, 6) for t in times_a)) > 10  # actually varies


def test_jittered_model_different_seeds_differ():
    from repro.machine import JitteredDiskModel
    from repro.machine.disk import DiskRequest
    from repro.sim import Event

    env = Environment()
    req = DiskRequest(block=0, kind=RequestKind.DEMAND, node_id=0,
                      enqueue_time=0.0, done=Event(env))
    a = JitteredDiskModel(seed=1).service_time(req)
    b = JitteredDiskModel(seed=2).service_time(req)
    assert a != b
