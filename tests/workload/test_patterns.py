"""Tests for access-pattern generation."""

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.workload import PATTERN_NAMES, make_pattern


def rng():
    return RandomStreams(7)


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        make_pattern("zigzag", n_nodes=4)


def test_random_patterns_require_rng():
    with pytest.raises(ValueError):
        make_pattern("lrp", n_nodes=4)
    with pytest.raises(ValueError):
        make_pattern("grp", n_nodes=4)


def test_all_patterns_standard_sizing():
    """Paper standard: total reads 2000 over 20 nodes and 2000 blocks."""
    for name in PATTERN_NAMES:
        pattern = make_pattern(name, n_nodes=20, rng=rng())
        assert pattern.total_reads == 2000, name
        if pattern.scope == "local":
            assert pattern.n_strings == 20
            assert all(len(s) == 100 for s in pattern.strings)
        else:
            assert pattern.n_strings == 1
            assert len(pattern.strings[0]) == 2000


def test_scope_classification():
    for name, scope in [
        ("lfp", "local"), ("lrp", "local"), ("lw", "local"),
        ("gfp", "global"), ("grp", "global"), ("gw", "global"),
    ]:
        assert make_pattern(name, n_nodes=4, rng=rng()).scope == scope


def test_crossing_classification():
    for name, crosses in [
        ("lfp", True), ("lrp", False), ("lw", True),
        ("gfp", True), ("grp", False), ("gw", True),
    ]:
        assert (
            make_pattern(name, n_nodes=4, rng=rng()).crosses_portions
            is crosses
        ), name


def test_gw_reads_whole_file_once():
    pattern = make_pattern("gw", n_nodes=20, file_blocks=2000)
    s = pattern.strings[0]
    assert np.array_equal(s, np.arange(2000))
    assert np.array_equal(pattern.portions[0], np.zeros(2000))


def test_lw_everyone_reads_same_region():
    pattern = make_pattern("lw", n_nodes=4, total_reads=400, file_blocks=2000)
    for s in pattern.strings:
        assert np.array_equal(s, np.arange(100))


def test_lfp_portions_regular_and_distinct_bases():
    pattern = make_pattern(
        "lfp", n_nodes=4, total_reads=80, file_blocks=2000,
        portion_length=5, portion_stride=13,
    )
    for node, (s, p) in enumerate(zip(pattern.strings, pattern.portions)):
        assert len(s) == 20
        # Portions of length 5: ids 0,0,0,0,0,1,1,...
        assert list(p[:6]) == [0, 0, 0, 0, 0, 1]
        # Each portion is a consecutive run.
        for i in range(1, len(s)):
            if p[i] == p[i - 1]:
                assert s[i] == (s[i - 1] + 1) % 2000
    # Different nodes start at different places.
    starts = {int(s[0]) for s in pattern.strings}
    assert len(starts) == 4


def test_lrp_portions_are_sequential_runs():
    pattern = make_pattern("lrp", n_nodes=3, total_reads=300, rng=rng())
    for s, p in zip(pattern.strings, pattern.portions):
        for i in range(1, len(s)):
            if p[i] == p[i - 1]:
                assert s[i] == (s[i - 1] + 1) % pattern.file_blocks
            else:
                assert p[i] == p[i - 1] + 1


def test_grp_deterministic_from_seed():
    a = make_pattern("grp", n_nodes=4, rng=RandomStreams(5))
    b = make_pattern("grp", n_nodes=4, rng=RandomStreams(5))
    assert np.array_equal(a.strings[0], b.strings[0])
    c = make_pattern("grp", n_nodes=4, rng=RandomStreams(6))
    assert not np.array_equal(a.strings[0], c.strings[0])


def test_gfp_covers_total_reads():
    pattern = make_pattern("gfp", n_nodes=4, total_reads=500)
    assert len(pattern.strings[0]) == 500
    assert pattern.portions[0][-1] == 49  # 500 reads / 10-block portions


def test_string_for_and_portions_for():
    local = make_pattern("lfp", n_nodes=3, total_reads=30)
    assert local.string_for(2) is local.strings[2]
    glob = make_pattern("gw", n_nodes=3, total_reads=100, file_blocks=100)
    assert glob.string_for(2) is glob.strings[0]
    assert glob.portions_for(1) is glob.portions[0]


def test_validation_catches_bad_data():
    from repro.workload.patterns import AccessPattern

    with pytest.raises(ValueError):
        AccessPattern(
            name="x", scope="sideways", file_blocks=10,
            strings=[np.array([0])], portions=[np.array([0])],
            crosses_portions=True,
        )
    with pytest.raises(ValueError):
        AccessPattern(
            name="x", scope="local", file_blocks=10,
            strings=[np.array([11])], portions=[np.array([0])],
            crosses_portions=True,
        )
    with pytest.raises(ValueError):
        AccessPattern(
            name="x", scope="local", file_blocks=10,
            strings=[np.array([0, 1])], portions=[np.array([1, 0])],
            crosses_portions=True,
        )
    # Recorded gaps and visits run parallel to the strings.
    for field_name, per_ref in (("computes", [1.0]), ("joins", [0])):
        for bad in ([per_ref, per_ref], [per_ref[:0]]):
            with pytest.raises(ValueError, match=field_name):
                AccessPattern(
                    name="x", scope="local", file_blocks=10,
                    strings=[np.array([0])], portions=[np.array([0])],
                    crosses_portions=True, **{field_name: bad},
                )
