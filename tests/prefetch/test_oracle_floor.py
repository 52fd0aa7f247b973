"""The oracle's scan floor against the full scan it replaced.

:class:`OraclePolicy` starts every scan at a per-scope floor: the first
unclaimed index above the frontier.  :class:`FullScanOracle` below keeps
the earlier walk, which starts at the last settled claim and steps over
every claimed index above the frontier one by one.  Both are driven
through the same random interleaving of demand reads, peeks, settles and
blocks entering or leaving a shared cache, over all six patterns with
and without a minimum lead.  Every ``peek`` and ``exhausted`` answer
must be the same.
"""

from typing import Dict, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefetch import OraclePolicy, PrefetchPolicy
from repro.prefetch.lead import earliest_candidate_index
from repro.sim import Environment, RandomStreams
from repro.workload import ProgressTracker, make_pattern

PATTERNS = ("lfp", "lrp", "lw", "gfp", "grp", "gw")
SETTLES = ("commit", "abort", "suspend", "mark_covered")
#: Demand reads and peeks are drawn twice as often as other steps.
ACTIONS = ("demand", "demand", "peek", "peek", "settle", "cache", "uncache")


class FakeCache:
    def __init__(self):
        self.blocks = set()
        self.env = Environment()

    def contains(self, block):
        return block in self.blocks


class FullScanOracle(PrefetchPolicy):
    """The oracle's scan before the floor: the reference answers."""

    def __init__(self, pattern, tracker, lead=0):
        super().__init__()
        self.pattern = pattern
        self.tracker = tracker
        self.lead = lead
        self._claimed: Dict[int, Set[int]] = {}
        self._reserved: Dict[int, Set[int]] = {}
        self._scan_base: Dict[int, int] = {}

    def _scope(self, node_id):
        return node_id if self.pattern.scope == "local" else 0

    def _claimed_for(self, scope):
        return self._claimed.setdefault(scope, set())

    def _reserved_for(self, scope):
        return self._reserved.setdefault(scope, set())

    def _advance_scan_base(self, scope, n_refs):
        claimed = self._claimed_for(scope)
        base = self._scan_base.get(scope, 0)
        while base < n_refs and base in claimed:
            base += 1
        self._scan_base[scope] = base

    def peek(self, node_id) -> Optional[Tuple[int, int]]:
        scope = self._scope(node_id)
        string = self.pattern.string_for(node_id)
        portions = self.pattern.portions_for(node_id)
        n = len(string)
        if n == 0:
            return None
        claimed = self._claimed_for(scope)
        reserved = self._reserved_for(scope)
        frontier = self.tracker.frontier(node_id)
        start = earliest_candidate_index(self.lead, frontier, n)
        i = max(start, self._scan_base.get(scope, 0), frontier + 1)
        crosses = self.pattern.crosses_for(node_id)
        if not crosses:
            allowed = portions[frontier] if frontier >= 0 else portions[0]
        while i < n:
            if i in claimed or i in reserved:
                i += 1
                continue
            if not crosses and portions[i] > allowed:
                return None
            block = int(string[i])
            if self._in_cache(block):
                claimed.add(i)
                self._advance_scan_base(scope, n)
                i += 1
                continue
            reserved.add(i)
            return i, block
        return None

    def _settle(self, node_id, ref_index):
        scope = self._scope(node_id)
        self._reserved_for(scope).discard(ref_index)
        self._claimed_for(scope).add(ref_index)
        self._advance_scan_base(scope, len(self.pattern.string_for(node_id)))

    def commit(self, node_id, ref_index, block):
        self._settle(node_id, ref_index)

    def mark_covered(self, node_id, ref_index, block):
        self._settle(node_id, ref_index)

    def abort(self, node_id, ref_index, block):
        self._reserved_for(self._scope(node_id)).discard(ref_index)

    def exhausted(self, node_id):
        scope = self._scope(node_id)
        n = len(self.pattern.string_for(node_id))
        claimed = self._claimed_for(scope)
        reserved = self._reserved_for(scope)
        i = max(self.tracker.frontier(node_id) + 1,
                self._scan_base.get(scope, 0))
        while i < n:
            if i not in claimed and i not in reserved:
                return False
            i += 1
        return True


SETUP = st.tuples(
    st.sampled_from(PATTERNS),
    st.integers(min_value=1, max_value=4),  # nodes
    st.integers(min_value=4, max_value=20),  # reads per node
    st.sampled_from([0, 0, 1, 3, 7]),  # lead
    st.integers(min_value=0, max_value=10_000),  # pattern seed
)
#: (action, node modulo the node count, argument, settle kind).
STEP = st.tuples(
    st.sampled_from(ACTIONS),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=199),
    st.sampled_from(SETTLES),
)


@given(setup=SETUP, steps=st.lists(STEP, min_size=1, max_size=120))
@settings(max_examples=300, deadline=None)
def test_floor_answers_match_the_full_scan(setup, steps):
    name, n_nodes, per_node, lead, seed = setup
    pattern = make_pattern(
        name, n_nodes=n_nodes, total_reads=n_nodes * per_node,
        file_blocks=max(n_nodes * per_node, 40), rng=RandomStreams(seed),
    )
    tracker = ProgressTracker(pattern, n_nodes)
    cache = FakeCache()
    policy = OraclePolicy(pattern, tracker, lead=lead)
    reference = FullScanOracle(pattern, tracker, lead=lead)
    policy.bind(cache)
    reference.bind(cache)
    outstanding = []  # (node, ref_index, block) peeked, not yet settled

    for action, node, arg, settle in steps:
        node %= n_nodes
        if action == "demand":
            nxt = tracker.next_ref(node)
            if nxt is not None:
                tracker.mark_consumed(node, nxt[0])
        elif action == "peek":
            answer = policy.peek(node)
            assert answer == reference.peek(node)
            if answer is not None:
                outstanding.append((node, *answer))
        elif action == "settle" and outstanding:
            settled = outstanding.pop(arg % len(outstanding))
            getattr(policy, settle)(*settled)
            getattr(reference, settle)(*settled)
        elif action == "cache":
            cache.blocks.add(arg % pattern.file_blocks)
        elif action == "uncache":
            cache.blocks.discard(arg % pattern.file_blocks)
        for each in range(n_nodes):
            assert policy.exhausted(each) == reference.exhausted(each)
