"""Tests for the NUMA memory model."""

import pytest

from repro.machine import CostModel, MemorySystem
from repro.sim import Environment


def make_memory(replicated=True, **cost_overrides):
    env = Environment()
    costs = CostModel().with_overrides(**cost_overrides)
    return env, MemorySystem(env, costs, replicated_structures=replicated)


def test_enter_exit_tracking():
    env, mem = make_memory()
    assert mem.active == 0
    mem.enter()
    mem.enter()
    assert mem.active == 2
    mem.exit()
    assert mem.active == 1


def test_exit_without_enter_raises():
    env, mem = make_memory()
    with pytest.raises(RuntimeError):
        mem.exit()


def test_reference_time_uncontended():
    env, mem = make_memory(local_ref_time=0.05, remote_ref_time=0.2)
    mem.enter()  # one active: no *others*
    assert mem.reference_time(local_refs=2, remote_refs=3) == pytest.approx(
        2 * 0.05 + 3 * 0.2
    )


def test_reference_time_inflates_with_contention():
    env, mem = make_memory(
        local_ref_time=0.05, remote_ref_time=0.2, contention_factor=0.5
    )
    mem.enter()
    solo = mem.reference_time(remote_refs=1)
    for _ in range(4):
        mem.enter()
    crowded = mem.reference_time(remote_refs=1)
    assert crowded == pytest.approx(solo * (1 + 0.5 * 4))
    # Local references are NOT inflated in the replicated layout.
    assert mem.reference_time(local_refs=1) == pytest.approx(0.05)


def test_naive_layout_charges_everything_remote():
    env, mem = make_memory(
        replicated=False, local_ref_time=0.05, remote_ref_time=0.2
    )
    mem.enter()
    assert mem.reference_time(local_refs=4) == pytest.approx(4 * 0.2)


def test_negative_refs_rejected():
    env, mem = make_memory()
    with pytest.raises(ValueError):
        mem.reference_time(local_refs=-1)


def test_contention_multiplier():
    env, mem = make_memory(contention_factor=0.1)
    assert mem.contention_multiplier() == 1.0
    mem.enter()
    mem.enter()
    mem.enter()
    assert mem.contention_multiplier() == pytest.approx(1.2)
