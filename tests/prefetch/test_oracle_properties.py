"""Property-based tests of the oracle policy's bookkeeping invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefetch import OraclePolicy
from repro.sim import Environment, RandomStreams
from repro.workload import ProgressTracker, make_pattern


class FakeCache:
    def __init__(self):
        self.blocks = set()
        self.env = Environment()

    def contains(self, block):
        return block in self.blocks


PATTERNS = ("lfp", "lrp", "lw", "gfp", "grp", "gw")


@st.composite
def oracle_setup(draw):
    pattern_name = draw(st.sampled_from(PATTERNS))
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    total = n_nodes * draw(st.integers(min_value=5, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    lead = draw(st.sampled_from([0, 2, 5]))
    pattern = make_pattern(
        pattern_name,
        n_nodes=n_nodes,
        total_reads=total,
        file_blocks=max(total, 50),
        rng=RandomStreams(seed),
    )
    tracker = ProgressTracker(pattern, n_nodes)
    policy = OraclePolicy(pattern, tracker, lead=lead)
    policy.bind(FakeCache())
    return pattern, tracker, policy, n_nodes


@given(setup=oracle_setup(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_no_reference_proposed_twice_after_commit(setup, data):
    """Driving peek/commit/abort/demand arbitrarily, a committed reference
    index is never proposed again, and proposals always lie ahead of the
    frontier."""
    pattern, tracker, policy, n_nodes = setup
    committed = set()  # (scope, ref_index)
    steps = data.draw(st.lists(
        st.tuples(
            st.sampled_from(["peek_commit", "peek_abort", "demand"]),
            st.integers(min_value=0, max_value=n_nodes - 1),
        ),
        min_size=1, max_size=40,
    ))
    for action, node in steps:
        scope = node if pattern.scope == "local" else 0
        if action == "demand":
            nxt = tracker.next_ref(node)
            if nxt is not None:
                tracker.mark_consumed(node, nxt[0])
            continue
        candidate = policy.peek(node)
        if candidate is None:
            continue
        ref_index, block = candidate
        assert (scope, ref_index) not in committed, "double proposal"
        assert ref_index > tracker.frontier(node)
        assert block == int(pattern.string_for(node)[ref_index])
        if action == "peek_commit":
            policy.commit(node, ref_index, block)
            committed.add((scope, ref_index))
        else:
            policy.abort(node, ref_index, block)


@given(setup=oracle_setup())
@settings(max_examples=40, deadline=None)
def test_exhaustion_is_monotone_and_reached(setup):
    """Committing every proposal eventually exhausts each node, and
    exhaustion never reverts."""
    pattern, tracker, policy, n_nodes = setup
    for node in range(n_nodes):
        # Drain demand so portion restrictions cannot block forever.
        while True:
            nxt = tracker.next_ref(node)
            if nxt is None:
                break
            tracker.mark_consumed(node, nxt[0])
    for node in range(n_nodes):
        for _ in range(1000):
            candidate = policy.peek(node)
            if candidate is None:
                break
            policy.commit(node, *candidate)
        assert policy.exhausted(node)
    # Monotone: still exhausted on re-check.
    for node in range(n_nodes):
        assert policy.exhausted(node)


@given(setup=oracle_setup())
@settings(max_examples=40, deadline=None)
def test_proposals_respect_portion_restriction(setup):
    """For non-crossing patterns, every proposal's portion is at most the
    frontier's portion."""
    pattern, tracker, policy, n_nodes = setup
    for node in range(n_nodes):
        portions = pattern.portions_for(node)
        if len(portions) == 0:
            continue
        # Advance demand partway.
        for _ in range(len(portions) // 3):
            nxt = tracker.next_ref(node)
            if nxt is not None:
                tracker.mark_consumed(node, nxt[0])
        frontier = tracker.frontier(node)
        candidate = policy.peek(node)
        if candidate is None:
            continue
        ref_index, block = candidate
        if not pattern.crosses_for(node):
            allowed = portions[frontier] if frontier >= 0 else portions[0]
            assert portions[ref_index] <= allowed
        policy.abort(node, ref_index, block)
