"""Core event primitives for the discrete-event simulation kernel.

The kernel is a from-scratch, generator-driven discrete-event simulator in
the style popularized by SimPy, specialized for the RAPID Transit
reproduction: deterministic, single-threaded, with a float clock measured in
*milliseconds* (the paper reports every latency in ms).

An :class:`Event` is a one-shot occurrence.  It moves through three stages:

1. *untriggered* — freshly created, holds no value;
2. *triggered* — given a value (or an exception) and scheduled on the
   environment's queue;
3. *processed* — popped from the queue; its callbacks have run.

Processes (see :mod:`repro.sim.process`) yield events to suspend until the
event is processed.  A failed event whose exception is delivered to no
process raises out of :meth:`Environment.run`, so programming errors inside
simulated processes are never silently swallowed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .core import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "ConditionValue",
    "Condition",
    "AllOf",
    "AnyOf",
]


#: Unique sentinel marking an event that has not been given a value yet.
PENDING: Any = object()

#: Scheduling priority for bookkeeping events (process initialization,
#: interrupt delivery).  Urgent events at time *t* run before normal
#: events at the same *t*.
URGENT = 0

#: Default scheduling priority for user-visible events.
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment the event lives in.  All scheduling goes through it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run when the event is processed.  ``None`` once
        #: processed (late additions are a programming error).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "untriggered"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- state --------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance for failed events)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    @property
    def defused(self) -> bool:
        """``True`` if a failure was delivered to (or claimed by) a handler.

        Failed events that are never defused crash the simulation when
        processed; this makes unhandled simulated errors loud.
        """
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled (suppresses the run-time crash)."""
        self._defused = True

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Pushed here, not through Environment.schedule: succeed is the
        # most-called trigger, and the entry is the same either way.
        env = self.env
        env._eid += 1
        env._push((env.now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, NORMAL)
        return self

    def trigger(self, source: "Event") -> None:
        """Mirror the outcome of ``source`` onto this event.

        Used as a callback to chain events together.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = source._ok
        self._value = source._value
        self.env.schedule(self, NORMAL)

    # -- composition --------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation.

    Unlike a plain :class:`Event`, a timeout is scheduled immediately at
    construction and cannot be triggered manually.
    """

    __slots__ = ("delay",)

    def __init__(
        self, env: "Environment", delay: float, value: Any = None
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the single most-constructed event type (every
        # compute delay, disk service, and fixed-cost file-system op is
        # one), so the base initializer and the scheduling call are
        # inlined: one attribute write per field, no super() dispatch, no
        # redundant PENDING store, and the queue entry pushed directly.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        env._eid += 1
        env._push((env.now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of the events that had triggered when a
    :class:`Condition` fired, to their values.

    Behaves like a read-only dict keyed by the event objects.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"

    def keys(self) -> Iterator[Event]:
        return iter(self.events)

    def values(self) -> Iterator[Any]:
        return (e._value for e in self.events)

    def items(self) -> Iterator[tuple[Event, Any]]:
        return ((e, e._value) for e in self.events)

    def todict(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events}


class Condition(Event):
    """An event that triggers when ``evaluate(events, n_triggered)`` is true.

    The value of a condition is a :class:`ConditionValue` holding every
    member event that had triggered by the time the condition fired
    (including members of nested conditions).  If any member event fails,
    the condition fails with that exception.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")

        # Evaluate the empty/immediate case eagerly.
        if self._evaluate(self._events, 0) and not self._events:
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _populate_value(self, value: ConditionValue) -> None:
        # Only events that have actually been *processed* count as having
        # occurred.  (A Timeout carries its value from construction, so a
        # value check alone would wrongly include future timeouts.)
        for event in self._events:
            if isinstance(event, Condition) and event.callbacks is None:
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Propagate the first failure.
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            value = ConditionValue()
            self._populate_value(value)
            self._ok = True
            self._value = value
            self.env.schedule(self, NORMAL)

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """True once every member event has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """True once at least one member event has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires once *all* of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires once *any* of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
