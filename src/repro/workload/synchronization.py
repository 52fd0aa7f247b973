"""The four synchronization styles (Section IV-B/IV-D).

"The processors may all synchronize after reading a fixed number of blocks
per processor, after reading a fixed number of blocks total, after each
sequential portion (whether local or global), or none at all."

Two pieces:

* :class:`DynamicBarrier` — a cyclic barrier whose party count shrinks as
  processes finish their work (necessary because, e.g., random-portion
  patterns give different processes different numbers of portions, and
  global patterns give them different numbers of reads).
* :class:`SyncCoordinator` subclasses — decide *when* each process owes a
  barrier visit.  The application loop asks ``owes(node)`` after every
  read+compute step and joins the barrier until the debt is settled.
  :class:`ReplaySync` is a fifth coordinator, outside the paper: a trace
  replay's recorded visits.

Synchronization time (the paper's measure) is the span from a process's
arrival at the barrier to the release of that barrier generation; the
barrier records every such wait.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..sim.events import Event
from .patterns import AccessPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = [
    "SYNC_STYLES",
    "DynamicBarrier",
    "SyncCoordinator",
    "NoSync",
    "PerProcessCountSync",
    "TotalCountSync",
    "PortionSync",
    "ReplaySync",
    "make_sync",
]


SYNC_STYLES = ("none", "per-proc", "total", "portion")


class DynamicBarrier:
    """A cyclic barrier tolerant of departing parties.

    ``depart()`` permanently removes one party; a pending generation
    releases as soon as all *remaining* parties have arrived.
    """

    def __init__(self, env: "Environment", parties: int) -> None:
        if parties <= 0:
            raise ValueError(f"parties {parties} must be positive")
        self.env = env
        self.active = parties
        self._waiters: List[Event] = []
        self._arrivals: List[float] = []
        self.generation = 0
        #: Every individual wait duration (the paper's sync times).
        self.wait_times: List[float] = []

    def wait(self) -> Event:
        """Arrive; the event fires when the generation releases."""
        if self.active <= 0:
            raise RuntimeError("barrier has no active parties")
        event = Event(self.env)
        self._waiters.append(event)
        self._arrivals.append(self.env.now)
        self._maybe_release()
        return event

    def depart(self) -> None:
        """Permanently remove one (non-waiting) party."""
        if self.active <= 0:
            raise RuntimeError("no parties left to depart")
        self.active -= 1
        self._maybe_release()

    def _maybe_release(self) -> None:
        if self._waiters and len(self._waiters) >= self.active:
            now = self.env.now
            waiters, self._waiters = self._waiters, []
            arrivals, self._arrivals = self._arrivals, []
            self.wait_times.extend(now - t for t in arrivals)
            generation = self.generation
            self.generation += 1
            for event in waiters:
                event.succeed(generation)


class SyncCoordinator:
    """Decides when each process owes a synchronization visit."""

    name = "abstract"

    def __init__(self, env: "Environment", n_nodes: int) -> None:
        self.env = env
        self.n_nodes = n_nodes
        self.barrier = DynamicBarrier(env, n_nodes)
        self._joined: List[int] = [0] * n_nodes
        self._departed: List[bool] = [False] * n_nodes

    # -- application-facing -------------------------------------------------------

    def after_read(self, node_id: int, ref_index: int, portion_id: int) -> None:
        """Called once per completed read (before the owes check)."""

    def note_portion_complete(self, node_id: int) -> None:
        """Called when ``node_id`` finishes one of its *local* portions."""

    def owes(self, node_id: int) -> bool:
        """Does ``node_id`` owe a barrier visit right now?"""
        return self._joined[node_id] < self._epochs_due(node_id)

    def join(self, node_id: int) -> Event:
        """Settle one owed visit: arrive at the barrier."""
        self._joined[node_id] += 1
        return self.barrier.wait()

    def depart(self, node_id: int) -> None:
        """``node_id`` has finished all its work."""
        if not self._departed[node_id]:
            self._departed[node_id] = True
            self.barrier.depart()

    # -- style-specific -------------------------------------------------------------

    def _epochs_due(self, node_id: int) -> int:
        raise NotImplementedError

    @property
    def wait_times(self) -> List[float]:
        return self.barrier.wait_times


class NoSync(SyncCoordinator):
    """Style "none": processes never synchronize."""

    name = "none"

    def _epochs_due(self, node_id: int) -> int:
        return 0


class PerProcessCountSync(SyncCoordinator):
    """Barrier after every ``k`` blocks read *by each processor*
    (paper: k=10)."""

    name = "per-proc"

    def __init__(self, env: "Environment", n_nodes: int, k: int = 10) -> None:
        super().__init__(env, n_nodes)
        if k <= 0:
            raise ValueError(f"k {k} must be positive")
        self.k = k
        self._reads = [0] * n_nodes

    def after_read(self, node_id: int, ref_index: int, portion_id: int) -> None:
        self._reads[node_id] += 1

    def _epochs_due(self, node_id: int) -> int:
        return self._reads[node_id] // self.k


class TotalCountSync(SyncCoordinator):
    """Barrier each time ``k`` blocks have been read *in total*
    (paper: k=200, i.e. about 10 per processor)."""

    name = "total"

    def __init__(self, env: "Environment", n_nodes: int, k: int = 200) -> None:
        super().__init__(env, n_nodes)
        if k <= 0:
            raise ValueError(f"k {k} must be positive")
        self.k = k
        self._total = 0

    def after_read(self, node_id: int, ref_index: int, portion_id: int) -> None:
        self._total += 1

    def _epochs_due(self, node_id: int) -> int:
        return self._total // self.k


class PortionSync(SyncCoordinator):
    """Barrier after each sequential portion, local or global.

    * Local patterns: a process owes a visit whenever it finishes one of
      its own portions (the application notifies via
      :meth:`note_portion_complete`).
    * Global patterns: everyone owes a visit whenever a *global* portion
      has been fully consumed.  Portions complete in order: completion of
      portion *p* is only credited once portions ``0..p-1`` are done, which
      matches the sequential structure of the patterns.
    """

    name = "portion"

    def __init__(
        self,
        env: "Environment",
        n_nodes: int,
        pattern: AccessPattern,
    ) -> None:
        super().__init__(env, n_nodes)
        self.pattern = pattern
        if pattern.scope == "local":
            self._portions_done = [0] * n_nodes
        else:
            portions = pattern.portions[0]
            self._remaining: Dict[int, int] = {}
            for pid in portions:
                self._remaining[int(pid)] = self._remaining.get(int(pid), 0) + 1
            self._completed_upto = 0  # portions 0.._completed_upto-1 done

    def after_read(self, node_id: int, ref_index: int, portion_id: int) -> None:
        if self.pattern.scope != "global":
            return
        self._remaining[portion_id] -= 1
        if self._remaining[portion_id] < 0:
            raise RuntimeError(f"portion {portion_id} over-consumed")
        while self._remaining.get(self._completed_upto, 1) == 0:
            self._completed_upto += 1

    def note_portion_complete(self, node_id: int) -> None:
        if self.pattern.scope == "local":
            self._portions_done[node_id] += 1

    def _epochs_due(self, node_id: int) -> int:
        if self.pattern.scope == "local":
            return self._portions_done[node_id]
        return self._completed_upto


class ReplaySync(SyncCoordinator):
    """Barrier visits on a recorded schedule (a trace replay's).

    The *schedule* (which reference is followed by how many visits)
    comes from ``pattern.joins``; the *wait times* stay emergent — the
    barrier is live, its party count shrinks as nodes finish, and a node
    still blocks until the generation releases.
    """

    name = "replay"

    def __init__(
        self,
        env: "Environment",
        n_nodes: int,
        pattern: AccessPattern,
    ) -> None:
        super().__init__(env, n_nodes)
        self._joins: List[List[int]] = []
        for node_id in range(n_nodes):
            joins = pattern.joins_for(node_id)
            if joins is None:
                raise ValueError(
                    f"pattern {pattern.name!r} has no recorded barrier "
                    "visits to replay"
                )
            self._joins.append(joins)
        self._due = [0] * n_nodes

    def after_read(self, node_id: int, ref_index: int, portion_id: int) -> None:
        self._due[node_id] += self._joins[node_id][ref_index]

    def _epochs_due(self, node_id: int) -> int:
        return self._due[node_id]


def make_sync(
    style: str,
    env: "Environment",
    n_nodes: int,
    pattern: AccessPattern,
    per_proc_k: int = 10,
    total_k: int = 200,
) -> SyncCoordinator:
    """Build a coordinator by style name (paper defaults for k).

    ``"replay"`` is not one of the paper's styles: it replays the barrier
    visits recorded in ``pattern.joins``.
    """
    if style == "none":
        return NoSync(env, n_nodes)
    if style == "per-proc":
        return PerProcessCountSync(env, n_nodes, k=per_proc_k)
    if style == "total":
        return TotalCountSync(env, n_nodes, k=total_k)
    if style == "portion":
        return PortionSync(env, n_nodes, pattern)
    if style == "replay":
        return ReplaySync(env, n_nodes, pattern)
    raise ValueError(f"unknown sync style {style!r}; pick from {SYNC_STYLES}")
