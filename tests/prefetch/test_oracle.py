"""Tests for the oracle prefetch policy."""

import pytest

from repro.prefetch import OraclePolicy
from repro.sim import Environment, RandomStreams
from repro.workload import ProgressTracker, make_pattern


class FakeCache:
    """Minimal cache stand-in: a mutable set of resident blocks."""

    def __init__(self):
        self.blocks = set()
        self.env = Environment()

    def contains(self, block):
        return block in self.blocks


def make_oracle(pattern_name="gw", n_nodes=2, total=20, file_blocks=20,
                lead=0, seed=1, **kwargs):
    pattern = make_pattern(
        pattern_name, n_nodes=n_nodes, total_reads=total,
        file_blocks=file_blocks, rng=RandomStreams(seed), **kwargs
    )
    tracker = ProgressTracker(pattern, n_nodes)
    policy = OraclePolicy(pattern, tracker, lead=lead)
    cache = FakeCache()
    policy.bind(cache)
    return pattern, tracker, policy, cache


def test_negative_lead_rejected():
    pattern, tracker, policy, cache = make_oracle()
    with pytest.raises(ValueError):
        OraclePolicy(pattern, tracker, lead=-1)


def test_gw_proposes_in_order():
    pattern, tracker, policy, cache = make_oracle()
    i, b = policy.peek(0)
    assert (i, b) == (0, 0)
    policy.commit(0, i, b)
    i, b = policy.peek(1)  # global scope: shared claims
    assert (i, b) == (1, 1)


def test_peek_reserves_candidate():
    pattern, tracker, policy, cache = make_oracle()
    a = policy.peek(0)
    b = policy.peek(1)
    assert a != b  # second peek skips the in-flight reservation


def test_abort_releases_reservation():
    pattern, tracker, policy, cache = make_oracle()
    i, b = policy.peek(0)
    policy.abort(0, i, b)
    assert policy.peek(1) == (i, b)


def test_peek_skips_cached_blocks():
    pattern, tracker, policy, cache = make_oracle()
    cache.blocks.add(0)
    cache.blocks.add(1)
    i, b = policy.peek(0)
    assert (i, b) == (2, 2)


def test_candidates_follow_frontier():
    pattern, tracker, policy, cache = make_oracle()
    tracker.next_ref(0)  # frontier -> 0
    tracker.next_ref(1)  # frontier -> 1
    i, b = policy.peek(0)
    assert i == 2


def test_local_scopes_independent():
    pattern, tracker, policy, cache = make_oracle("lfp", total=20)
    i0, b0 = policy.peek(0)
    i1, b1 = policy.peek(1)
    assert i0 == 0 and i1 == 0  # same index, different strings
    assert b0 != b1


def test_lw_overlap_covered_via_cache():
    pattern, tracker, policy, cache = make_oracle(
        "lw", total=20, file_blocks=100
    )
    # Node 0 prefetches block 0; node 1's oracle skips it via the cache.
    i, b = policy.peek(0)
    policy.commit(0, i, b)
    cache.blocks.add(b)
    i1, b1 = policy.peek(1)
    assert b1 == b + 1


def test_portion_boundary_blocks_lrp():
    pattern, tracker, policy, cache = make_oracle(
        "lrp", n_nodes=1, total=30, file_blocks=100
    )
    portions = pattern.portions[0]
    first_portion_len = int((portions == 0).sum())
    # Claim everything in portion 0.
    for _ in range(first_portion_len):
        i, b = policy.peek(0)
        assert portions[i] == 0
        policy.commit(0, i, b)
    # Portion 1 is off limits until demand reaches it.
    assert policy.peek(0) is None
    assert not policy.exhausted(0)
    # Demand crosses into portion 1: candidates reopen.
    for _ in range(first_portion_len + 1):
        tracker.next_ref(0)
    i, b = policy.peek(0)
    assert portions[i] == 1


def test_lfp_crosses_portions():
    pattern, tracker, policy, cache = make_oracle(
        "lfp", n_nodes=1, total=30, file_blocks=100,
        portion_length=5, portion_stride=10,
    )
    # Claim all of portion 0; the next candidate is in portion 1.
    for _ in range(5):
        i, b = policy.peek(0)
        policy.commit(0, i, b)
    i, b = policy.peek(0)
    assert pattern.portions[0][i] == 1


def test_lead_skips_near_frontier():
    pattern, tracker, policy, cache = make_oracle(lead=5)
    i, b = policy.peek(0)
    assert i == 5  # frontier -1 + 1 + lead 5


def test_lead_relaxes_near_end():
    pattern, tracker, policy, cache = make_oracle(lead=50, total=20,
                                                  file_blocks=20)
    # Only 20 refs: lead 50 can never be satisfied; relaxed to 0.
    i, b = policy.peek(0)
    assert i == 0


def test_exhausted_after_all_claimed():
    pattern, tracker, policy, cache = make_oracle(total=3, file_blocks=3)
    for _ in range(3):
        i, b = policy.peek(0)
        policy.commit(0, i, b)
    assert policy.peek(0) is None
    assert policy.exhausted(0)


def test_exhausted_after_all_consumed():
    pattern, tracker, policy, cache = make_oracle(total=3, file_blocks=3)
    for _ in range(3):
        tracker.next_ref(0)
    assert policy.exhausted(0)
    assert policy.peek(0) is None


def test_mark_covered_settles_reservation():
    pattern, tracker, policy, cache = make_oracle()
    i, b = policy.peek(0)
    policy.mark_covered(0, i, b)
    ni, nb = policy.peek(0)
    assert ni == i + 1
