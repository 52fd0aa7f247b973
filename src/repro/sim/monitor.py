"""Measurement helpers: tallies, time-weighted series, and audit hooks.

The paper's measures (Section IV-C) are either *tallies* over discrete
observations (block read times, hit-wait times, prefetch action lengths,
overruns, synchronization waits) or *time-weighted* quantities (queue
lengths, utilization).  :class:`Tally` and :class:`TimeWeighted` cover both;
a tally keeps its raw samples so reports can compute medians and
percentiles.

Two step observers support the determinism auditor
(:mod:`repro.analysis.audit`), attached via
:meth:`~repro.sim.core.Environment.add_step_observer`:

* :class:`EventTraceHash` — an incremental fingerprint of the executed
  ``(time, priority, sequence, event-type)`` stream.  Two runs of the same
  configuration are bit-for-bit reproductions iff their digests match.
* :class:`SimultaneousEventLog` — the DES analogue of a data-race
  detector: it flags distinct events processed at an identical
  ``(time, priority)`` instant that contend for the *same* resource
  (the cache metadata lock, a node CPU, a disk queue), where only the
  scheduling sequence number breaks the tie.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment
    from .events import Event

__all__ = [
    "Tally",
    "TimeWeighted",
    "EventTraceHash",
    "ResourceCollision",
    "SimultaneousEventLog",
]


class Tally:
    """Streaming summary of discrete observations: count, sum, min, max
    and every raw sample (reports need percentiles).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.samples.append(value)

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.record(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean; 0.0 when empty (by convention, not error)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of the samples."""
        if not self.samples:
            return 0.0
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = (q / 100.0) * (len(data) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tally {self.name!r} n={self.count} mean={self.mean:.3f} "
            f"min={self.min} max={self.max}>"
        )


class TimeWeighted:
    """Time-weighted average of a piecewise-constant quantity.

    Typical use: queue length or busy-server count.  Call :meth:`set` at
    every change; the integral is accumulated against the simulation clock.
    """

    def __init__(self, env: "Environment", initial: float = 0.0) -> None:
        self.env = env
        self._value = float(initial)
        self._last_change = env.now
        self._area = 0.0
        self._start = env.now
        self.max = float(initial)

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        """Record that the quantity changed to ``value`` at the current time."""
        now = self.env.now
        self._area += self._value * (now - self._last_change)
        self._last_change = now
        self._value = float(value)
        if self._value > self.max:
            self.max = self._value

    def add(self, delta: float) -> None:
        self.set(self._value + delta)

    def time_average(self, until: Optional[float] = None) -> float:
        """Average value from creation to ``until`` (default: now)."""
        end = self.env.now if until is None else until
        span = end - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (end - self._last_change)
        return area / span


class EventTraceHash:
    """Incremental fingerprint of the executed event stream.

    Hashes every processed event's full ordering key — the exact bits of
    ``(time, priority, sequence)`` plus the event's type name — so any
    divergence in scheduling, tie-breaking, or event population between
    two runs of the same configuration changes the digest.
    """

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self.n_events = 0

    def __call__(
        self, time: float, priority: int, sequence: int, event: "Event"
    ) -> None:
        self._hash.update(struct.pack("<dqq", time, priority, sequence))
        self._hash.update(type(event).__name__.encode("ascii"))
        self.n_events += 1

    def hexdigest(self) -> str:
        """Digest of the stream hashed so far (non-destructive)."""
        return self._hash.hexdigest()


@dataclass(frozen=True)
class ResourceCollision:
    """Distinct same-instant events contending for one resource.
    ``priority`` is ``None`` for a disk-queue collision, which is seen
    through the ``disk.request`` probe rather than the event stream."""

    time: float
    priority: Optional[int]
    resource: str
    n_events: int


class SimultaneousEventLog:
    """Detect ``(time, priority)`` collisions on shared resources.

    Events popped at an identical ``(time, priority)`` are ordered only by
    their scheduling sequence number.  When two or more such events are
    resource requests/transfers against the *same* resource object (two
    nodes submitting to one disk queue, two processes granted the cache
    metadata lock back-to-back at one instant), the winner is decided by
    code ordering alone — the discrete-event analogue of a data race.
    The run is still deterministic, but fragile: any refactor that
    reorders scheduling calls silently changes the outcome.  This log
    makes such collision points visible.

    A submission to a disk queue schedules no event of its own, so two
    nodes submitting to one disk at the same instant are caught by
    :meth:`disk_request` instead: a disk serves its queue in FIFO order,
    so such submissions complete back to back with equal enqueue times.
    """

    def __init__(self, keep: int = 1000) -> None:
        self.keep = keep
        self.collisions: List[ResourceCollision] = []
        self.n_collisions = 0
        self._key: Optional[Tuple[float, int]] = None
        self._bucket: List["Event"] = []
        #: Enqueue time of each disk's previous completed request.
        self._last_enqueue: Dict[int, float] = {}

    def __call__(
        self, time: float, priority: int, sequence: int, event: "Event"
    ) -> None:
        key = (time, priority)
        if key != self._key:
            self._flush()
            self._key = key
        self._bucket.append(event)

    def _flush(self) -> None:
        if len(self._bucket) > 1 and self._key is not None:
            by_resource: dict[int, List["Event"]] = {}
            for event in self._bucket:
                resource = getattr(event, "resource", None)
                if resource is not None:
                    by_resource.setdefault(id(resource), []).append(event)
            for group in by_resource.values():
                if len(group) > 1:
                    resource = getattr(group[0], "resource")
                    self._record(
                        ResourceCollision(
                            time=self._key[0],
                            priority=self._key[1],
                            resource=type(resource).__name__,
                            n_events=len(group),
                        )
                    )
        self._bucket = []

    def disk_request(self, disk_id: int, request: Any) -> None:
        """``disk.request`` subscriber: two consecutive completions on
        one disk with equal ``enqueue_time`` are one collision."""
        enqueued = request.enqueue_time
        if self._last_enqueue.get(disk_id) == enqueued:
            self._record(ResourceCollision(enqueued, None, "Disk", 2))
        self._last_enqueue[disk_id] = enqueued

    def _record(self, collision: ResourceCollision) -> None:
        self.n_collisions += 1
        if len(self.collisions) < self.keep:
            self.collisions.append(collision)

    def finish(self) -> None:
        """Flush the trailing bucket once the run is over."""
        self._flush()
        self._key = None
