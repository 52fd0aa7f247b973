"""Oracle (reference-string) prefetch policies.

The paper's study supplies each policy with accurate advance knowledge of
the reference pattern, "to establish an upper bound on the performance
benefits of prefetching" (Section III).  The oracle is *optimistic but
principled*: it never fetches a block that will not be used, yet it
refuses to exploit information that could not feasibly be predicted —
concretely, for random-portion patterns (``lrp``/``grp``) it will not
prefetch past the end of the current portion until a demand fetch has
established where the next portion begins.

Candidate selection for node *N*:

1. scope = *N*'s own string (local patterns) or the shared string (global);
2. start scanning at the scope's floor, the first unclaimed index past
   the frontier, or at ``earliest_candidate_index(lead, frontier, n)``
   when that is later (Section V-E's minimum prefetch lead, relaxed near
   the string's end);
3. skip references already claimed by a prefetch or observed in cache
   (another node may have fetched the block — interprocess benefit);
4. stop at a portion boundary when the pattern forbids crossing.

Committed/covered references are remembered in a claimed set per scope, so
each reference is prefetched at most once machine-wide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..workload.patterns import AccessPattern
from ..workload.progress import ProgressTracker
from .lead import earliest_candidate_index
from .policy import PrefetchPolicy

__all__ = ["OraclePolicy"]


class _Scope:
    """One reference string's scan state, as plain Python values.

    ``floor`` is the first index that is neither claimed nor at or below
    the frontier, as of the last scan.  The frontier only grows and
    claims are never released, so no index below it can be proposed
    again or keep the scope from being exhausted: every scan starts at
    the floor (raised to ``frontier + 1`` first), skipping exactly the
    claimed indices the full walk would step over one by one.
    """

    __slots__ = ("string", "portions", "crosses", "n", "claimed",
                 "reserved", "floor")

    def __init__(self, pattern: AccessPattern, node_id: int) -> None:
        self.string: List[int] = pattern.string_for(node_id).tolist()
        self.portions: List[int] = pattern.portions_for(node_id).tolist()
        self.crosses = pattern.crosses_for(node_id)
        self.n = len(self.string)
        #: Claimed (committed or covered) reference indices.
        self.claimed: Set[int] = set()
        #: Reserved (action in flight) reference indices.
        self.reserved: Set[int] = set()
        self.floor = 0

    def scan_start(self, frontier: int) -> int:
        """Raise the floor past the frontier and every claimed index
        above it; return it."""
        i = self.floor
        if i <= frontier:
            i = frontier + 1
        claimed = self.claimed
        n = self.n
        while i < n and i in claimed:
            i += 1
        self.floor = i
        return i


class OraclePolicy(PrefetchPolicy):
    """Reference-string policy for any of the six patterns.

    Parameters
    ----------
    pattern / tracker:
        The materialized access pattern and its shared progress state.
    lead:
        Minimum prefetch lead in references (Section V-E); 0 = paper
        default behaviour.
    """

    name = "oracle"

    def __init__(
        self,
        pattern: AccessPattern,
        tracker: ProgressTracker,
        lead: int = 0,
    ) -> None:
        super().__init__()
        if lead < 0:
            raise ValueError(f"lead {lead} must be non-negative")
        self.pattern = pattern
        self.tracker = tracker
        self.lead = lead
        self._local = pattern.scope == "local"
        #: Scan state per string (node for local patterns, 0 for global),
        #: built on first use.
        self._scopes: Dict[int, _Scope] = {}

    # -- internals ---------------------------------------------------------------

    def _scope(self, node_id: int) -> _Scope:
        key = node_id if self._local else 0
        scope = self._scopes.get(key)
        if scope is None:
            scope = self._scopes[key] = _Scope(self.pattern, node_id)
        return scope

    # -- PrefetchPolicy interface ---------------------------------------------------

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        scope = self._scope(node_id)
        n = scope.n
        if n == 0:
            return None
        frontier = self.tracker.frontier(node_id)
        i = scope.scan_start(frontier)
        if self.lead:
            i = max(i, earliest_candidate_index(self.lead, frontier, n))

        claimed = scope.claimed
        reserved = scope.reserved
        string = scope.string
        crosses = scope.crosses
        if not crosses:
            # Only the portion the demand activity has reached (or the very
            # first portion before any demand) is prefetchable.
            portions = scope.portions
            allowed_portion = portions[frontier if frontier >= 0 else 0]

        while i < n:
            if i in claimed or i in reserved:
                i += 1
                continue
            if not crosses and portions[i] > allowed_portion:
                return None  # transient: wait for demand to cross over
            block = string[i]
            if self._in_cache(block):
                # Someone else brought it in; never propose it.
                claimed.add(i)
                i += 1
                continue
            reserved.add(i)
            return i, block
        return None

    def _settle(self, node_id: int, ref_index: int) -> None:
        scope = self._scope(node_id)
        scope.reserved.discard(ref_index)
        scope.claimed.add(ref_index)

    def commit(self, node_id: int, ref_index: int, block: int) -> None:
        self._settle(node_id, ref_index)

    def mark_covered(self, node_id: int, ref_index: int, block: int) -> None:
        self._settle(node_id, ref_index)

    def abort(self, node_id: int, ref_index: int, block: int) -> None:
        self._scope(node_id).reserved.discard(ref_index)

    def exhausted(self, node_id: int) -> bool:
        """No unclaimed reference beyond the frontier remains (permanent:
        the frontier only grows and claims are never released).  In-flight
        reservations count as claims here; if their actions abort while
        work remains, the next demand access reopens nothing — but an
        aborted reservation can only coexist with a still-running daemon,
        which will re-peek it."""
        scope = self._scope(node_id)
        i = scope.scan_start(self.tracker.frontier(node_id))
        n = scope.n
        claimed = scope.claimed
        reserved = scope.reserved
        while i < n:
            if i not in claimed and i not in reserved:
                return False
            i += 1
        return True
