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
2. start scanning at ``earliest_candidate_index(lead, frontier, n)``
   (Section V-E's minimum prefetch lead, relaxed near the string's end);
3. skip references already claimed by a prefetch or observed in cache
   (another node may have fetched the block — interprocess benefit);
4. stop at a portion boundary when the pattern forbids crossing.

Committed/covered references are remembered in a claimed set per scope, so
each reference is prefetched at most once machine-wide.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..workload.patterns import AccessPattern
from ..workload.progress import ProgressTracker
from .lead import earliest_candidate_index
from .policy import PrefetchPolicy

__all__ = ["OraclePolicy"]


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
        #: Per-scope set of claimed (committed or covered) reference indices.
        self._claimed: Dict[int, Set[int]] = {}
        #: Per-scope set of reserved (action in flight) reference indices.
        self._reserved: Dict[int, Set[int]] = {}
        #: Per-scope scan floor: every unclaimed candidate is >= this.
        self._scan_base: Dict[int, int] = {}

    # -- internals ---------------------------------------------------------------

    def _scope(self, node_id: int) -> int:
        return node_id if self.pattern.scope == "local" else 0

    def _claimed_for(self, scope: int) -> Set[int]:
        return self._claimed.setdefault(scope, set())

    def _reserved_for(self, scope: int) -> Set[int]:
        return self._reserved.setdefault(scope, set())

    def _advance_scan_base(self, scope: int, n_refs: int) -> None:
        claimed = self._claimed_for(scope)
        base = self._scan_base.get(scope, 0)
        while base < n_refs and base in claimed:
            base += 1
        self._scan_base[scope] = base

    # -- PrefetchPolicy interface ---------------------------------------------------

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
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
            # Only the portion the demand activity has reached (or the very
            # first portion before any demand) is prefetchable.
            allowed_portion = portions[frontier] if frontier >= 0 else portions[0]

        while i < n:
            if i in claimed or i in reserved:
                i += 1
                continue
            if not crosses and portions[i] > allowed_portion:
                return None  # transient: wait for demand to cross over
            block = int(string[i])
            if self._in_cache(block):
                # Someone else brought it in; never propose it.
                claimed.add(i)
                self._advance_scan_base(scope, n)
                i += 1
                continue
            reserved.add(i)
            return i, block
        return None

    def _settle(self, scope: int, ref_index: int, n_refs: int) -> None:
        self._reserved_for(scope).discard(ref_index)
        self._claimed_for(scope).add(ref_index)
        self._advance_scan_base(scope, n_refs)

    def commit(self, node_id: int, ref_index: int, block: int) -> None:
        scope = self._scope(node_id)
        self._settle(scope, ref_index, len(self.pattern.string_for(node_id)))

    def mark_covered(self, node_id: int, ref_index: int, block: int) -> None:
        scope = self._scope(node_id)
        self._settle(scope, ref_index, len(self.pattern.string_for(node_id)))

    def abort(self, node_id: int, ref_index: int, block: int) -> None:
        scope = self._scope(node_id)
        self._reserved_for(scope).discard(ref_index)

    def exhausted(self, node_id: int) -> bool:
        """No unclaimed reference beyond the frontier remains (permanent:
        the frontier only grows and claims are never released).  In-flight
        reservations count as claims here; if their actions abort while
        work remains, the next demand access reopens nothing — but an
        aborted reservation can only coexist with a still-running daemon,
        which will re-peek it."""
        scope = self._scope(node_id)
        string = self.pattern.string_for(node_id)
        n = len(string)
        claimed = self._claimed_for(scope)
        reserved = self._reserved_for(scope)
        i = max(self.tracker.frontier(node_id) + 1,
                self._scan_base.get(scope, 0))
        while i < n:
            if i not in claimed and i not in reserved:
                return False
            i += 1
        return True
