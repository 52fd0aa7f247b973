"""Tests for Machine assembly and MachineConfig."""

import pytest

from repro.machine import (
    FixedDiskModel,
    Machine,
    MachineConfig,
    RequestKind,
    SeekDiskModel,
)
from repro.sim import Environment


def test_config_defaults_match_paper():
    cfg = MachineConfig()
    assert cfg.n_nodes == 20
    assert cfg.n_disks == 20
    assert cfg.costs.disk_access_time == 30.0
    assert cfg.replicated_structures


def test_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(n_nodes=0)
    with pytest.raises(ValueError):
        MachineConfig(n_disks=-1)
    with pytest.raises(ValueError):
        MachineConfig(disk_model="quantum")


def test_disk_model_factory():
    assert isinstance(MachineConfig().make_disk_model(), FixedDiskModel)
    assert isinstance(
        MachineConfig(disk_model="seek").make_disk_model(), SeekDiskModel
    )
    # Fresh state per disk: two calls give distinct objects.
    cfg = MachineConfig(disk_model="seek")
    assert cfg.make_disk_model() is not cfg.make_disk_model()


def test_machine_builds_nodes_and_disks():
    env = Environment()
    m = Machine(env, MachineConfig(n_nodes=4, n_disks=4))
    assert len(m.nodes) == 4
    assert len(m.disks) == 4
    assert m.nodes[2].disk is m.disks[2]
    assert m.n_nodes == 4 and m.n_disks == 4


def test_more_nodes_than_disks_wraps():
    env = Environment()
    m = Machine(env, MachineConfig(n_nodes=4, n_disks=2))
    assert m.nodes[0].disk is m.disks[0]
    assert m.nodes[2].disk is m.disks[0]
    assert m.nodes[3].disk is m.disks[1]


def test_aggregate_stats_empty():
    env = Environment()
    m = Machine(env, MachineConfig(n_nodes=2, n_disks=2))
    assert m.aggregate_disk_response() == 0.0
    assert m.total_blocks_served() == 0


def test_aggregate_disk_response():
    env = Environment()
    m = Machine(env, MachineConfig(n_nodes=2, n_disks=2))

    def proc(disk_idx, block):
        req = m.disk_for_block(disk_idx).submit(
            block=block, kind=RequestKind.DEMAND, node_id=0
        )
        yield req.done

    env.process(proc(0, 0))
    env.process(proc(1, 1))
    env.run()
    assert m.aggregate_disk_response() == pytest.approx(30.0)
    assert m.total_blocks_served() == 2
    assert m.aggregate_disk_utilization() == pytest.approx(1.0)
