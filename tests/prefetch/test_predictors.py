"""Tests for on-the-fly predictor policies."""

import pytest

from repro.prefetch import GlobalSequentialPolicy, OBLPolicy, PortionPolicy
from repro.sim import Environment


class FakeCache:
    def __init__(self):
        self.blocks = set()
        self.env = Environment()

    def contains(self, block):
        return block in self.blocks


def bind(policy):
    cache = FakeCache()
    policy.bind(cache)
    return cache


# ---------------------------------------------------------------- OBL


def test_obl_validation():
    with pytest.raises(ValueError):
        OBLPolicy(0)
    with pytest.raises(ValueError):
        OBLPolicy(100, depth=0)


def test_obl_needs_observation():
    policy = OBLPolicy(100)
    bind(policy)
    assert policy.peek(0) is None


def test_obl_proposes_next_block():
    policy = OBLPolicy(100)
    bind(policy)
    policy.observe(0, 10)
    assert policy.peek(0) == (-1, 11)


def test_obl_per_node_state():
    policy = OBLPolicy(100)
    bind(policy)
    policy.observe(0, 10)
    policy.observe(1, 50)
    assert policy.peek(1) == (-1, 51)


def test_obl_respects_file_end():
    policy = OBLPolicy(100)
    bind(policy)
    policy.observe(0, 99)
    assert policy.peek(0) is None


def test_obl_skips_cached_and_claimed():
    policy = OBLPolicy(100, depth=3)
    cache = bind(policy)
    policy.observe(0, 10)
    cache.blocks.add(11)
    assert policy.peek(0) == (-1, 12)
    policy.commit(0, -1, 12)
    assert policy.peek(0) == (-1, 13)


def test_obl_reservation_and_abort():
    policy = OBLPolicy(100)
    bind(policy)
    policy.observe(0, 10)
    assert policy.peek(0) == (-1, 11)
    # Reserved: another node's peek can't propose it.
    policy.observe(1, 10)
    assert policy.peek(1) is None
    policy.abort(0, -1, 11)
    assert policy.peek(1) == (-1, 11)


def test_obl_never_exhausted():
    policy = OBLPolicy(100)
    bind(policy)
    assert not policy.exhausted(0)


# ------------------------------------------------------------- Portion


def test_portion_validation():
    with pytest.raises(ValueError):
        PortionPolicy(100, min_run=0)
    with pytest.raises(ValueError):
        PortionPolicy(100, max_ahead=0)


def test_portion_waits_for_min_run():
    policy = PortionPolicy(100, min_run=3)
    bind(policy)
    policy.observe(0, 10)
    assert policy.peek(0) is None
    policy.observe(0, 11)
    assert policy.peek(0) is None
    policy.observe(0, 12)
    assert policy.peek(0) == (-1, 13)


def test_portion_learns_run_length():
    policy = PortionPolicy(100, min_run=2, max_ahead=5)
    bind(policy)
    # Two completed runs of length 4: 10-13, 30-33.
    for b in (10, 11, 12, 13, 30, 31, 32, 33, 50, 51):
        policy.observe(0, b)
    # Current run 50..51 (len 2); predicted length 4: propose 52, 53 only.
    assert policy.peek(0) == (-1, 52)
    policy.commit(0, -1, 52)
    assert policy.peek(0) == (-1, 53)
    policy.commit(0, -1, 53)
    # Position 5 > predicted length 4 and stride irregular: nothing.
    assert policy.peek(0) is None


def test_portion_predicts_next_portion_with_regular_stride():
    policy = PortionPolicy(200, min_run=2, max_ahead=3)
    bind(policy)
    # Runs of length 3 with stride 20: starts 0, 20, 40, 60.
    for start in (0, 20, 40, 60):
        for j in range(3):
            policy.observe(0, start + j)
    # Current run 60..62 complete per prediction; next portion at 80.
    policy.commit(0, -1, 63) if False else None
    candidate = policy.peek(0)
    assert candidate == (-1, 80)


def test_portion_per_node_independence():
    policy = PortionPolicy(100, min_run=2)
    bind(policy)
    policy.observe(0, 10)
    policy.observe(0, 11)
    assert policy.peek(1) is None
    assert policy.peek(0) == (-1, 12)


# ------------------------------------------------------ GlobalSequential


def test_global_seq_validation():
    with pytest.raises(ValueError):
        GlobalSequentialPolicy(100, density_threshold=0.0)
    with pytest.raises(ValueError):
        GlobalSequentialPolicy(100, warmup=0)


def test_global_seq_warms_up():
    policy = GlobalSequentialPolicy(100, warmup=5)
    bind(policy)
    for b in range(4):
        policy.observe(b % 2, b)
    assert policy.peek(0) is None
    policy.observe(0, 4)
    assert policy.peek(0) == (-1, 5)


def test_global_seq_rejects_sparse_streams():
    policy = GlobalSequentialPolicy(1000, warmup=5, density_threshold=0.75)
    bind(policy)
    for b in (0, 100, 200, 300, 400):  # sparse: density 5/401
        policy.observe(0, b)
    assert policy.peek(0) is None


def test_global_seq_merges_nodes():
    policy = GlobalSequentialPolicy(100, warmup=6)
    bind(policy)
    # Interleaved accesses from three nodes, globally sequential.
    for i, b in enumerate(range(6)):
        policy.observe(i % 3, b)
    assert policy.peek(2) == (-1, 6)


def test_global_seq_respects_file_end():
    policy = GlobalSequentialPolicy(10, warmup=5, max_ahead=5)
    bind(policy)
    for b in range(10):
        policy.observe(0, b)
    assert policy.peek(0) is None


# ------------------------------------------------------ GlobalPortion


def test_global_portion_validation():
    from repro.prefetch import GlobalPortionPolicy

    with pytest.raises(ValueError):
        GlobalPortionPolicy(100, max_ahead=0)
    with pytest.raises(ValueError):
        GlobalPortionPolicy(100, min_portions=1)


def test_global_portion_leads_current_portion():
    from repro.prefetch import GlobalPortionPolicy

    policy = GlobalPortionPolicy(1000)
    bind(policy)
    for b in (100, 101, 102):
        policy.observe(0, b)
    # No learned geometry yet: lead the current portion's high mark.
    assert policy.peek(0) == (-1, 103)


def test_global_portion_learns_geometry_and_crosses():
    from repro.prefetch import GlobalPortionPolicy

    policy = GlobalPortionPolicy(1000, max_ahead=4, min_portions=3)
    bind(policy)
    # Portions of length 5 at stride 20: 0-4, 20-24, 40-44, 60-64.
    for start in (0, 20, 40, 60):
        for j in range(5):
            policy.observe(j % 3, start + j)
    # Geometry learned from completed portions (0,20,40); current portion
    # is 60-64, predicted complete -> next portion candidate at 80.
    candidate = policy.peek(0)
    assert candidate == (-1, 80)


def test_global_portion_respects_predicted_length():
    from repro.prefetch import GlobalPortionPolicy

    policy = GlobalPortionPolicy(1000, max_ahead=4, min_portions=3)
    bind(policy)
    for start in (0, 20, 40):
        for j in range(5):
            policy.observe(0, start + j)
    # Current portion 60 just began (length 1 of predicted 5).
    policy.observe(0, 60)
    i, b = policy.peek(0)
    assert 61 <= b <= 64  # within the predicted portion, not past it
    policy.commit(0, i, b)
    # Exhaust the predicted portion: candidates stop at 64 then cross.
    seen = {b}
    for _ in range(5):
        nxt = policy.peek(0)
        if nxt is None:
            break
        seen.add(nxt[1])
        policy.commit(0, *nxt)
    assert all(x <= 64 or x >= 80 for x in seen)


def test_global_portion_irregular_geometry_stays_within():
    from repro.prefetch import GlobalPortionPolicy

    policy = GlobalPortionPolicy(1000, min_portions=3)
    bind(policy)
    # Irregular portions: lengths 3, 7, 4.
    for start, length in ((0, 3), (50, 7), (200, 4)):
        for j in range(length):
            policy.observe(0, start + j)
    # No regular geometry: only leads the current portion's high mark.
    candidate = policy.peek(0)
    assert candidate is not None
    assert 204 <= candidate[1] <= 209


def test_global_portion_merges_nodes():
    from repro.prefetch import GlobalPortionPolicy

    policy = GlobalPortionPolicy(1000)
    bind(policy)
    for i, b in enumerate(range(10, 16)):
        policy.observe(i % 4, b)
    assert policy.peek(2) == (-1, 16)
