"""Synchronization primitives built on the event kernel.

:class:`Gate` is a level-triggered condition used by the prefetch daemon to
sleep until its node's user process becomes idle.  The workload's barrier
is :class:`~repro.workload.synchronization.DynamicBarrier`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = ["Gate"]


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
