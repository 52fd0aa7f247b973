"""On-the-fly prefetch predictors (the paper's future work, Section VI).

The study's oracle policies bound what prefetching can achieve; the paper
closes by asking for "mechanisms to gain information about the access
patterns that may then be used in prefetching decisions".  These policies
implement that: they see only the *observed* demand accesses (via
:meth:`~repro.prefetch.policy.PrefetchPolicy.observe`) and must infer what
to prefetch.

* :class:`OBLPolicy` — classic one-block lookahead [Smith 1978]: after a
  demand access to block *i*, the candidate is *i+1*.  Works locally per
  node; blind to global cooperation.
* :class:`PortionPolicy` — run detection with learned portion geometry:
  after observing a node's run of ≥ ``min_run`` sequential blocks it
  prefetches ahead within the run, bounded by the learned typical portion
  length; when the stride between portion starts is regular it prefetches
  into the predicted next portion (what an lfp programmer would hope for).
* :class:`GlobalSequentialPolicy` — a global detector: merges all nodes'
  accesses; when the merged stream looks densely sequential, prefetches
  ahead of the global high-water mark.  This is the on-the-fly counterpart
  of the gw/gfp oracles.

All predictors share a machine-wide claimed-block set so they never issue
duplicate prefetches, and cap their lookahead at ``max_ahead`` candidates
beyond the relevant frontier (defaulting to the per-node prefetch buffer
count — more would just hit the budget).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.invariants import invariant
from .policy import PrefetchPolicy

__all__ = ["OBLPolicy", "PortionPolicy", "GlobalSequentialPolicy", "GlobalPortionPolicy"]


class _ClaimingPolicy(PrefetchPolicy):
    """Shared plumbing: a claimed-block set and -1 ref indices."""

    def __init__(self, file_blocks: int) -> None:
        super().__init__()
        if file_blocks <= 0:
            raise ValueError("file_blocks must be positive")
        self.file_blocks = file_blocks
        self._claimed: Set[int] = set()
        self._reserved: Set[int] = set()

    def _usable(self, block: int) -> bool:
        return (
            0 <= block < self.file_blocks
            and block not in self._claimed
            and block not in self._reserved
            and not self._in_cache(block)
        )

    def _reserve(self, block: int) -> Tuple[int, int]:
        self._reserved.add(block)
        return -1, block

    def commit(self, node_id: int, ref_index: int, block: int) -> None:
        self._reserved.discard(block)
        self._claimed.add(block)

    def mark_covered(self, node_id: int, ref_index: int, block: int) -> None:
        self._reserved.discard(block)
        self._claimed.add(block)

    def abort(self, node_id: int, ref_index: int, block: int) -> None:
        self._reserved.discard(block)

    def exhausted(self, node_id: int) -> bool:
        # Predictors can never prove there is nothing left; the daemon's
        # failure cap bounds the spinning instead.
        return False


class OBLPolicy(_ClaimingPolicy):
    """One-block lookahead per node."""

    name = "obl"

    def __init__(self, file_blocks: int, depth: int = 1) -> None:
        super().__init__(file_blocks)
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._last: Dict[int, int] = {}

    def observe(self, node_id: int, block: int) -> None:
        self._last[node_id] = block

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        last = self._last.get(node_id)
        if last is None:
            return None
        for k in range(1, self.depth + 1):
            candidate = last + k
            if candidate >= self.file_blocks:
                return None
            if self._usable(candidate):
                return self._reserve(candidate)
        return None


class PortionPolicy(_ClaimingPolicy):
    """Run detection with learned portion length and stride, per node."""

    name = "portion"

    def __init__(
        self,
        file_blocks: int,
        min_run: int = 2,
        max_ahead: int = 3,
        history: int = 8,
    ) -> None:
        super().__init__(file_blocks)
        if min_run < 1:
            raise ValueError("min_run must be >= 1")
        if max_ahead < 1:
            raise ValueError("max_ahead must be >= 1")
        self.min_run = min_run
        self.max_ahead = max_ahead
        self.history = history
        self._run_start: Dict[int, int] = {}
        self._run_last: Dict[int, int] = {}
        self._run_lengths: Dict[int, List[int]] = {}
        self._run_starts: Dict[int, List[int]] = {}

    # -- learning ---------------------------------------------------------------

    def observe(self, node_id: int, block: int) -> None:
        last = self._run_last.get(node_id)
        if last is not None and block == last + 1:
            self._run_last[node_id] = block
            return
        # A run ended (or this is the first access): book it and start anew.
        if last is not None:
            start = self._run_start[node_id]
            lengths = self._run_lengths.setdefault(node_id, [])
            lengths.append(last - start + 1)
            del lengths[: -self.history]
            starts = self._run_starts.setdefault(node_id, [])
            starts.append(start)
            del starts[: -self.history]
        self._run_start[node_id] = block
        self._run_last[node_id] = block

    def _predicted_length(self, node_id: int) -> Optional[int]:
        lengths = self._run_lengths.get(node_id, [])
        if len(lengths) < 2:
            return None
        return int(median(lengths))

    def _predicted_stride(self, node_id: int) -> Optional[int]:
        starts = self._run_starts.get(node_id, [])
        if len(starts) < 3:
            return None
        diffs = [b - a for a, b in zip(starts, starts[1:])]
        recent = diffs[-3:]
        if len(set(recent)) == 1 and recent[0] > 0:
            return recent[0]
        return None

    # -- prediction ---------------------------------------------------------------

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        last = self._run_last.get(node_id)
        if last is None:
            return None
        start = self._run_start[node_id]
        run_len = last - start + 1
        if run_len < self.min_run:
            return None

        predicted_len = self._predicted_length(node_id)
        # Within-run candidates.
        for k in range(1, self.max_ahead + 1):
            candidate = last + k
            pos_in_run = candidate - start + 1
            if predicted_len is not None and pos_in_run > predicted_len:
                break  # the run is predicted to end before this block
            if candidate >= self.file_blocks:
                break
            if self._usable(candidate):
                return self._reserve(candidate)

        # Cross-portion candidates, only with regular geometry.
        stride = self._predicted_stride(node_id)
        if predicted_len is not None and stride is not None:
            next_start = (start + stride) % self.file_blocks
            for k in range(min(self.max_ahead, predicted_len)):
                candidate = (next_start + k) % self.file_blocks
                if self._usable(candidate):
                    return self._reserve(candidate)
        return None


class GlobalSequentialPolicy(_ClaimingPolicy):
    """Detects a globally sequential merged stream and leads it.

    Maintains the high-water mark over *all* nodes' accesses and the count
    of distinct blocks accessed; when density (distinct / (high+1)) exceeds
    ``density_threshold`` the stream is deemed globally sequential and
    candidates are proposed just past the high-water mark.
    """

    name = "global-seq"

    def __init__(
        self,
        file_blocks: int,
        max_ahead: int = 8,
        density_threshold: float = 0.75,
        warmup: int = 10,
    ) -> None:
        super().__init__(file_blocks)
        if not 0 < density_threshold <= 1:
            raise ValueError("density_threshold must be in (0, 1]")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.max_ahead = max_ahead
        self.density_threshold = density_threshold
        self.warmup = warmup
        self._seen: Set[int] = set()
        self._high = -1

    def observe(self, node_id: int, block: int) -> None:
        self._seen.add(block)
        if block > self._high:
            self._high = block

    def _is_sequential(self) -> bool:
        if len(self._seen) < self.warmup or self._high < 0:
            return False
        return len(self._seen) / (self._high + 1) >= self.density_threshold

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        if not self._is_sequential():
            return None
        for k in range(1, self.max_ahead + 1):
            candidate = self._high + k
            if candidate >= self.file_blocks:
                return None
            if self._usable(candidate):
                return self._reserve(candidate)
        return None


class GlobalPortionPolicy(_ClaimingPolicy):
    """Global portion learner: the on-the-fly counterpart of the gfp
    oracle.

    Watches the merged access stream, segments it into geometric portions
    (maximal runs of consecutive blocks touched so far), and learns the
    portion length and start-to-start stride.  While the current portion
    is believed unfinished it leads the portion's high-water mark; once
    the learned length is reached and the stride is regular it prefetches
    into the predicted next portion — which no purely sequential detector
    can do.
    """

    name = "global-portion"

    def __init__(
        self,
        file_blocks: int,
        max_ahead: int = 6,
        history: int = 8,
        min_portions: int = 3,
    ) -> None:
        super().__init__(file_blocks)
        if max_ahead < 1:
            raise ValueError("max_ahead must be >= 1")
        if min_portions < 2:
            raise ValueError("min_portions must be >= 2")
        self.max_ahead = max_ahead
        self.history = history
        self.min_portions = min_portions
        #: Completed portions: (start, length).
        self._completed: List[tuple] = []
        self._cur_start: Optional[int] = None
        self._cur_high: Optional[int] = None

    def observe(self, node_id: int, block: int) -> None:
        if self._cur_start is None:
            self._cur_start = self._cur_high = block
            return
        invariant(
            self._cur_high is not None,
            "portion tracker has a start but no high-water mark",
        )
        # Extend the current portion if the access lands in or adjacent
        # to it (global order is only *roughly* sequential).
        if self._cur_start - 1 <= block <= self._cur_high + self.max_ahead:
            self._cur_high = max(self._cur_high, block)
            return
        # Otherwise a new portion began.
        self._completed.append(
            (self._cur_start, self._cur_high - self._cur_start + 1)
        )
        del self._completed[: -self.history]
        self._cur_start = self._cur_high = block

    def _learned_geometry(self) -> Optional[tuple]:
        """(portion_length, stride) when regular; None otherwise."""
        if len(self._completed) < self.min_portions:
            return None
        lengths = [length for _, length in self._completed[-4:]]
        starts = [start for start, _ in self._completed[-4:]]
        if len(set(lengths)) != 1:
            return None
        strides = {b - a for a, b in zip(starts, starts[1:])}
        if len(strides) != 1:
            return None
        stride = strides.pop()
        if stride <= 0:
            return None
        return lengths[0], stride

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        if self._cur_high is None:
            return None
        geometry = self._learned_geometry()
        start, high = self._cur_start, self._cur_high
        invariant(
            start is not None,
            "portion tracker has a high-water mark but no start",
        )

        # Lead the current portion while it is believed unfinished.
        limit = None
        if geometry is not None:
            length, _ = geometry
            limit = start + length - 1  # predicted last block
        for k in range(1, self.max_ahead + 1):
            candidate = high + k
            if limit is not None and candidate > limit:
                break
            if candidate >= self.file_blocks:
                break
            if self._usable(candidate):
                return self._reserve(candidate)

        # Cross into the predicted next portion with regular geometry.
        if geometry is not None:
            length, stride = geometry
            next_start = start + stride
            for k in range(min(self.max_ahead, length)):
                candidate = next_start + k
                if candidate >= self.file_blocks:
                    break
                if self._usable(candidate):
                    return self._reserve(candidate)
        return None
