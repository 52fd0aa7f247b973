"""Synchronization primitives built on the event kernel.

The paper's workload synchronizes in *barrier* style: every process arrives,
waits for the rest, and all leave together.  :class:`Barrier` implements
that, recording per-arrival wait durations (the paper's "synchronization
time": time between a process's arrival at a synchronization point and the
moment all processes achieve synchrony).

:class:`Gate` is a level-triggered condition used by the prefetch daemon to
sleep until its node's user process becomes idle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = ["Barrier", "Gate"]


class Barrier:
    """A cyclic barrier for ``parties`` processes.

    Each call to :meth:`wait` returns an event that fires (with the barrier
    generation number) once all parties of the current generation have
    arrived.  The barrier then resets for the next generation.
    """

    def __init__(self, env: "Environment", parties: int) -> None:
        if parties <= 0:
            raise ValueError(f"parties {parties} must be positive")
        self.env = env
        self.parties = parties
        self.generation = 0
        self._waiters: list[Event] = []
        self._arrival_times: list[float] = []
        #: Per-arrival wait durations (ms), across all generations.
        self.wait_times: list[float] = []
        #: Completion time of each generation.
        self.release_times: list[float] = []

    @property
    def n_waiting(self) -> int:
        """Number of parties currently blocked at the barrier."""
        return len(self._waiters)

    def wait(self) -> Event:
        """Arrive at the barrier; the event fires when all have arrived."""
        event = Event(self.env)
        self._waiters.append(event)
        self._arrival_times.append(self.env.now)
        if len(self._waiters) == self.parties:
            self._release()
        return event

    def _release(self) -> None:
        now = self.env.now
        generation = self.generation
        self.generation += 1
        waiters, self._waiters = self._waiters, []
        arrivals, self._arrival_times = self._arrival_times, []
        self.wait_times.extend(now - t for t in arrivals)
        self.release_times.append(now)
        for event in waiters:
            event.succeed(generation)


class Gate:
    """A level-triggered condition: processes wait until the gate is open.

    Unlike an event, a gate can open and close repeatedly.  ``wait()``
    returns an event that is already triggered when the gate is open.
    """

    def __init__(self, env: "Environment", open: bool = False) -> None:
        self.env = env
        self._open = open
        self._waiters: list[Event] = []
        self._close_waiters: list[Event] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        """Open the gate, releasing all current waiters."""
        if self._open:
            return
        self._open = True
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()

    def close(self) -> None:
        """Close the gate; subsequent waiters block until reopened."""
        if not self._open:
            return
        self._open = False
        waiters, self._close_waiters = self._close_waiters, []
        for event in waiters:
            event.succeed()

    def wait(self) -> Event:
        """Event that fires as soon as the gate is (or becomes) open."""
        event = Event(self.env)
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def wait_closed(self) -> Event:
        """Event that fires as soon as the gate is (or becomes) closed."""
        event = Event(self.env)
        if not self._open:
            event.succeed()
        else:
            self._close_waiters.append(event)
        return event
