"""Prefetch policy interface.

A policy answers one question for the daemon: *which block should node N
prefetch next?*  The contract is a two-phase peek/commit so that a failed
action (no buffer, budget full) does not lose the candidate:

1. :meth:`PrefetchPolicy.peek` proposes ``(ref_index, block)`` — or ``None``
   when nothing is currently prefetchable (transient: portion boundary,
   lead restriction, budget pressure elsewhere);
2. the cache validates and either calls :meth:`PrefetchPolicy.commit`
   (fetch initiated) or :meth:`PrefetchPolicy.mark_covered` (the block
   turned out to be cached already), or neither (action failed — the
   candidate stays available).

:meth:`PrefetchPolicy.exhausted` is *permanent*: once true for a node, its
daemon stops for the rest of the run (the paper's oracle does not attempt
prefetching when it knows nothing useful remains).

:meth:`PrefetchPolicy.observe` feeds demand accesses (the cache's
``fs.access`` probe point, subscribed by :meth:`PrefetchPolicy.bind`) to
on-the-fly predictor policies; oracle policies ignore it (they watch the
shared progress tracker instead).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fs.cache import BlockCache

__all__ = ["PrefetchPolicy", "NullPolicy"]


class PrefetchPolicy:
    """Base class for prefetch policies."""

    name = "abstract"

    def __init__(self) -> None:
        self.cache: Optional["BlockCache"] = None

    def bind(self, cache: "BlockCache") -> None:
        """Attach to the cache (for membership peeks) and subscribe
        :meth:`observe` to its ``fs.access`` probe point.  Called once."""
        self.cache = cache
        cache.env.subscribe("fs.access", self.observe)

    def _in_cache(self, block: int) -> bool:
        return self.cache is not None and self.cache.contains(block)

    # -- the daemon-facing contract ------------------------------------------------

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        """Next candidate for ``node_id``: ``(ref_index, block)`` or None.

        ``ref_index`` is -1 for policies without reference strings.

        Peeking **reserves** the candidate: other nodes' peeks will not
        propose it while the action is in flight.  The action must settle
        the reservation with exactly one of :meth:`commit`,
        :meth:`mark_covered`, or :meth:`abort`.
        """
        raise NotImplementedError

    def commit(self, node_id: int, ref_index: int, block: int) -> None:
        """The candidate's fetch was initiated."""
        raise NotImplementedError

    def mark_covered(self, node_id: int, ref_index: int, block: int) -> None:
        """The candidate is already cached; never propose it again."""
        raise NotImplementedError

    def abort(self, node_id: int, ref_index: int, block: int) -> None:
        """The action failed (no buffer / budget full): release the
        reservation so the candidate can be proposed again later."""
        raise NotImplementedError

    def suspend(self, node_id: int, ref_index: int, block: int) -> None:
        """The resilience layer refused the candidate (its disk's
        circuit breaker is open).  Defaults to :meth:`abort`; fault-aware
        policies override it to release the reservation without booking
        the refusal as cache backpressure — the disk is sick, the scope
        did not overreach.
        """
        self.abort(node_id, ref_index, block)

    def exhausted(self, node_id: int) -> bool:
        """Permanently nothing left to prefetch for ``node_id``."""
        raise NotImplementedError

    def observe(self, node_id: int, block: int) -> None:
        """Demand-access notification (for on-the-fly predictors)."""


class NullPolicy(PrefetchPolicy):
    """Never prefetches (the no-prefetching baseline)."""

    name = "null"

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        return None

    def commit(self, node_id: int, ref_index: int, block: int) -> None:
        raise RuntimeError("NullPolicy never proposes candidates")

    def mark_covered(self, node_id: int, ref_index: int, block: int) -> None:
        raise RuntimeError("NullPolicy never proposes candidates")

    def abort(self, node_id: int, ref_index: int, block: int) -> None:
        raise RuntimeError("NullPolicy never proposes candidates")

    def exhausted(self, node_id: int) -> bool:
        return True

