"""Processor nodes: CPU serialization and idle-time accounting.

Each node runs exactly one user process (the paper's workload model) plus
the node-local component of the file system.  The two *share the node's
CPU*: prefetching work is "system overhead competing for processor cycles
with user processes" (Section III) unless it happens during user idle time.

We model the CPU as a capacity-1 resource.  The user process holds it while
computing and releases it across every wait; the prefetch daemon only
requests it while the user is idle and holds it for the full length of each
prefetch action.  This makes *overrun* — the continuation of a prefetch
action past the moment the user could have resumed — an emergent, measured
quantity: it is precisely the user's queueing delay on its own CPU after
its wake-up event fires.

The paper distinguishes three idle kinds (Section III): waiting at a
synchronization point, waiting for self-initiated disk I/O, and waiting for
I/O initiated elsewhere (an unready buffer hit).  For each idle period we
record the *logically necessary* length (to the wake-up event) and the
*actual* length (to CPU reacquisition); their difference is the overrun
charged to that period.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from ..sim.events import Event
from ..sim.resources import Request, Resource
from ..sim.sync import Gate
from .costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..prefetch.daemon import IdleDaemon
    from ..sim.core import Environment
    from .disk import Disk

__all__ = ["IdleKind", "IdlePeriod", "IdleEstimator", "Node"]


class IdleKind(enum.Enum):
    """Why the user process is idle (Section III's three idle times)."""

    SYNC = "sync"
    SELF_IO = "self_io"
    REMOTE_IO = "remote_io"


@dataclass
class IdlePeriod:
    """One recorded idle interval of the user process."""

    kind: IdleKind
    start: float
    #: When the wake-up event fired (end of the logically necessary wait).
    necessary_end: float
    #: When the user actually resumed (CPU reacquired).
    resume: float

    @property
    def necessary(self) -> float:
        return self.necessary_end - self.start

    @property
    def actual(self) -> float:
        return self.resume - self.start

    @property
    def overrun(self) -> float:
        return self.resume - self.necessary_end


class IdleEstimator:
    """Exponentially weighted estimate of idle durations, per kind.

    Used by the minimum-prefetch-time throttle (Section V-D): the daemon
    skips starting a new action unless the *estimated remaining* idle time
    exceeds the configured minimum.
    """

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha {alpha} must be in (0, 1]")
        self.alpha = alpha
        self._ewma: Dict[IdleKind, float] = {}

    def observe(self, kind: IdleKind, duration: float) -> None:
        """Fold one completed idle duration into the estimate."""
        prev = self._ewma.get(kind)
        if prev is None:
            self._ewma[kind] = duration
        else:
            self._ewma[kind] = self.alpha * duration + (1 - self.alpha) * prev

    def estimate(self, kind: IdleKind) -> Optional[float]:
        """Expected total idle duration for ``kind`` (None if no history)."""
        return self._ewma.get(kind)

    def estimate_remaining(self, kind: IdleKind, elapsed: float) -> float:
        """Expected remaining idle time given ``elapsed`` ms already idle.

        With no history, returns +inf (be optimistic: the paper's default
        behaviour is to always prefetch during idle time).
        """
        est = self._ewma.get(kind)
        if est is None:
            return float("inf")
        return max(0.0, est - elapsed)


class Node:
    """One processor node: CPU, idle state, and the attached disk.

    The user process drives the node through :meth:`acquire_cpu`,
    :meth:`release_cpu`, and :meth:`idle_wait`; the prefetch daemon watches
    :attr:`idle_gate`.
    """

    def __init__(
        self,
        env: "Environment",
        node_id: int,
        costs: CostModel,
        disk: Optional["Disk"] = None,
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.costs = costs
        self.disk = disk
        self.cpu = Resource(env, capacity=1)
        #: Open exactly while the user process is idle.
        self.idle_gate = Gate(env)
        self.idle_kind: Optional[IdleKind] = None
        self._idle_start: Optional[float] = None
        self.idle_estimator = IdleEstimator()
        self.idle_periods: List[IdlePeriod] = []
        #: The node's idle daemons by kind ("prefetch", and "writeback" on
        #: write-back runs); each :class:`~repro.prefetch.daemon.IdleDaemon`
        #: registers itself here.
        self.daemons: Dict[str, "IdleDaemon"] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}>"

    # -- user-process protocol (generator helpers) ---------------------------

    def acquire_cpu(self) -> Generator[Event, None, Request]:
        """``yield from`` helper: acquire this node's CPU, return the claim."""
        req = self.cpu.request()
        yield req
        return req

    def release_cpu(self, req: Request) -> None:
        """Release a CPU claim obtained via :meth:`acquire_cpu`."""
        self.cpu.release(req)

    def idle_wait(
        self,
        req: Request,
        event: Event,
        kind: IdleKind,
    ) -> Generator[Event, None, tuple]:
        """``yield from`` helper: wait for ``event`` while idle.

        Releases the CPU, opens the idle gate (letting the daemon run),
        waits, closes the gate, reacquires the CPU, and records the idle
        period with its overrun.  Returns ``(event_value, new_cpu_claim)``.
        """
        start = self.env.now
        self.idle_kind = kind
        self._idle_start = start
        self.cpu.release(req)
        self.idle_gate.open()

        value = yield event

        necessary_end = self.env.now
        self.idle_gate.close()
        self.idle_kind = None
        self._idle_start = None

        new_req = self.cpu.request()
        yield new_req
        resume = self.env.now

        period = IdlePeriod(
            kind=kind,
            start=start,
            necessary_end=necessary_end,
            resume=resume,
        )
        self.idle_periods.append(period)
        self.idle_estimator.observe(kind, period.necessary)
        return value, new_req

    # -- daemon-side introspection --------------------------------------------

    @property
    def user_idle(self) -> bool:
        """True while the user process is blocked in a wait."""
        return self.idle_gate.is_open

    def idle_elapsed(self) -> float:
        """How long the current idle period has lasted (0 if not idle)."""
        if self._idle_start is None:
            return 0.0
        return self.env.now - self._idle_start

    def estimated_idle_remaining(self) -> float:
        """Estimated remaining idle time for the current period (+inf when
        not estimable); used by the minimum-prefetch-time throttle."""
        if self.idle_kind is None:
            return 0.0
        return self.idle_estimator.estimate_remaining(
            self.idle_kind, self.idle_elapsed()
        )
