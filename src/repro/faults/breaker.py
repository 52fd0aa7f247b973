"""Per-disk circuit breaker gating prefetch issuance.

The breaker watches *every* result the resilience layer sees for its
disk — demand and prefetch alike — but only gates prefetch: demand reads
must always be attempted (the application cannot proceed without them),
while speculative prefetch traffic against a sick disk merely lengthens
its queue and starves demand reads of service.

State machine (the classic three states):

* ``CLOSED`` — healthy; ``breaker_threshold`` *consecutive* failures
  trip it;
* ``OPEN`` — prefetch suspended for ``breaker_cooldown`` ms;
* ``HALF_OPEN`` — cooldown elapsed; probes are allowed through.  Any
  success (demand or probe) closes the breaker, any failure reopens it
  with a fresh cooldown.

Transitions happen lazily inside :meth:`CircuitBreaker.allow` /
``record_*`` calls, which occur at deterministic points of the event
schedule — no timer processes, so the breaker adds no events of its own.
Each transition is emitted on the ``faults.signal`` probe point as
``("breaker-open" | "breaker-half-open" | "breaker-close", disk_id)``.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, List, Optional, Tuple

from .events import FaultEventLog
from .plan import ResiliencePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: The ``faults.signal`` kind emitted on entering each state.
_BREAKER_SIGNAL = {
    BreakerState.OPEN: "breaker-open",
    BreakerState.HALF_OPEN: "breaker-half-open",
    BreakerState.CLOSED: "breaker-close",
}


class CircuitBreaker:
    """Suspends prefetching to one disk after repeated failures."""

    def __init__(
        self,
        env: "Environment",
        disk_id: int,
        policy: ResiliencePolicy,
        log: FaultEventLog,
    ) -> None:
        self.env = env
        self.disk_id = disk_id
        self.policy = policy
        self.log = log
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        #: Times the breaker tripped (CLOSED/HALF_OPEN -> OPEN).
        self.opened_count = 0
        self._open_until = 0.0
        self._degraded_since: Optional[float] = None
        self._intervals: List[Tuple[float, float]] = []
        self._on_signal = env.probe("faults.signal")

    # -- gating ------------------------------------------------------------

    def allow(self) -> bool:
        """May a prefetch be issued to this disk right now?

        In ``OPEN`` past the cooldown this transitions to ``HALF_OPEN``
        (lazy timer) and admits the probe.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if (
            self.state is BreakerState.OPEN
            and self.env.now >= self._open_until
        ):
            self._transition(BreakerState.HALF_OPEN)
            return True
        return self.state is BreakerState.HALF_OPEN

    def peek_allow(self) -> bool:
        """Would :meth:`allow` admit a prefetch right now?

        Pure query — no state transition, so policies may call it from
        peek-side candidate filtering (a passive context) without
        perturbing when the lazy OPEN→HALF_OPEN move happens.  Returns
        True for OPEN-past-cooldown so exactly one probe candidate
        reaches the issuing gate, whose :meth:`allow` call performs the
        actual transition.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            return self.env.now >= self._open_until
        return True  # HALF_OPEN: probes welcome

    def reopens_at(self) -> float:
        """When :meth:`peek_allow` will next turn True with no transition:
        the cooldown end of an OPEN breaker still cooling down, else inf.
        Pure query."""
        if self.state is BreakerState.OPEN and self.env.now < self._open_until:
            return self._open_until
        return math.inf

    # -- result feed -------------------------------------------------------

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._open()
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.breaker_threshold
        ):
            self._open()

    # -- internals ---------------------------------------------------------

    def _open(self) -> None:
        self._open_until = self.env.now + self.policy.breaker_cooldown
        self.opened_count += 1
        self._transition(BreakerState.OPEN)

    def _transition(self, new: BreakerState) -> None:
        old = self.state
        if old is new:
            return
        self.state = new
        if old is BreakerState.CLOSED:
            self._degraded_since = self.env.now
        if new is BreakerState.CLOSED and self._degraded_since is not None:
            self._intervals.append((self._degraded_since, self.env.now))
            self._degraded_since = None
        self.log.record(
            "breaker", self.disk_id, detail=f"{old.value}->{new.value}"
        )
        for fn in self._on_signal:
            fn(_BREAKER_SIGNAL[new], self.disk_id)

    def open_intervals(self, end: float) -> List[Tuple[float, float]]:
        """Spans during which the breaker was not CLOSED, closing any
        still-open span at ``end`` (run end)."""
        out = list(self._intervals)
        if self._degraded_since is not None and end > self._degraded_since:
            out.append((self._degraded_since, end))
        return out
