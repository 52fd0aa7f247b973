"""Tests for hybrid access patterns."""

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.workload import ProgressTracker, make_hybrid


def test_hybrid_assignment_must_cover_all_nodes():
    with pytest.raises(ValueError, match="cover"):
        make_hybrid({"lw": [0, 1]}, n_nodes=4)
    with pytest.raises(ValueError, match="cover"):
        make_hybrid({"lw": [0, 1], "seq": [1, 2, 3]}, n_nodes=4)


def test_hybrid_unknown_style_rejected():
    with pytest.raises(ValueError, match="unknown constituent"):
        make_hybrid({"zigzag": [0, 1]}, n_nodes=2)


def test_hybrid_lrp_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        make_hybrid({"lrp": [0], "lw": [1]}, n_nodes=2)


def test_hybrid_builds_per_node_strings():
    pattern = make_hybrid(
        {"lw": [0, 2], "seq": [1, 3]},
        n_nodes=4,
        file_blocks=400,
        reads_per_node=50,
    )
    assert pattern.scope == "local"
    assert pattern.n_strings == 4
    assert pattern.total_reads == 200
    # lw nodes share the region.
    assert np.array_equal(pattern.strings[0], pattern.strings[2])
    assert np.array_equal(pattern.strings[0], np.arange(50))
    # seq nodes read private contiguous slices.
    assert pattern.strings[1][0] == 50
    assert pattern.strings[3][0] == 150


def test_hybrid_crossing_flags_follow_constituents():
    pattern = make_hybrid(
        {"lrp": [0], "lfp": [1], "lw": [2]},
        n_nodes=3,
        file_blocks=300,
        reads_per_node=30,
        rng=RandomStreams(1),
    )
    assert pattern.crosses_for(0) is False  # lrp: irregular portions
    assert pattern.crosses_for(1) is True
    assert pattern.crosses_for(2) is True


def test_hybrid_name_and_tracker_integration():
    pattern = make_hybrid(
        {"lw": [0], "seq": [1]}, n_nodes=2, file_blocks=100,
        reads_per_node=10,
    )
    assert "hybrid" in pattern.name
    tracker = ProgressTracker(pattern, 2)
    idx, block = tracker.next_ref(1)
    assert (idx, block) == (0, 10)


def test_hybrid_runs_end_to_end():
    from repro.experiments import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig(
        pattern="lw",  # placeholder; materialized pattern wins
        sync_style="per-proc",
        per_proc_k=5,
        n_nodes=4,
        n_disks=4,
        file_blocks=200,
        compute_mean=5.0,
    )
    rng = RandomStreams(1)
    pattern = make_hybrid(
        {"lw": [0, 1], "lfp": [2, 3]},
        n_nodes=4,
        file_blocks=200,
        reads_per_node=40,
        rng=rng,
    )
    result = run_experiment(config, pattern=pattern)
    assert result.total_accesses == 160
    assert result.blocks_prefetched > 0


def test_crosses_by_string_validation():
    from repro.workload.patterns import AccessPattern

    with pytest.raises(ValueError, match="crosses_by_string"):
        AccessPattern(
            name="x", scope="local", file_blocks=10,
            strings=[np.array([0]), np.array([1])],
            portions=[np.array([0]), np.array([0])],
            crosses_portions=True,
            crosses_by_string=[True],
        )
