"""The simulation environment: clock, event queue, run loop, and probes.

Events are served from a binary heap in ascending ``(time, priority,
sequence)`` order.  The sequence number makes the order of simultaneous
events fully deterministic: ties are broken by scheduling order, so a given
seed always produces the identical execution — a property the experiment
harness relies on for reproducibility.

Passive taps on a run go through one registry of named probe points
(:meth:`Environment.subscribe` / :meth:`Environment.probe`); the points
the model emits are listed in ``docs/obs.md``.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.invariants import InvariantViolation
from .events import NORMAL, PENDING, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator

__all__ = [
    "Environment",
    "StopSimulation",
    "StepObserver",
]

#: A queue entry: ``(time, priority, sequence, event)``.  The sequence
#: number is unique, so the event itself is never compared.
EventKey = Tuple[float, int, int, Event]

#: Signature of a step observer: ``(time, priority, sequence, event)``,
#: called for every event popped by :meth:`Environment.run` *before* its
#: callbacks run.  Observers must be read-only with respect to simulation
#: state — they exist for auditing (trace hashing, race detection), and
#: mutating state from one would itself be a source of nondeterminism.
StepObserver = Callable[[float, int, int, Event], None]


class StopSimulation(Exception):
    """Raised to stop :meth:`Environment.run` when the *until* event fires."""

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that ends the run with the event's outcome."""
        if event.ok:
            raise cls(event.value)
        raise event.value


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (milliseconds).
    """

    __slots__ = (
        "now",
        "_queue",
        "_eid",
        "_active_proc",
        "_step_observers",
        "_probes",
        "_push",
        "_pop",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulation time in milliseconds.  A plain slot, read
        #: on every hot path; only the run loop writes it.
        self.now = float(initial_time)
        self._queue: List[EventKey] = []
        # The C heap primitives bound to the queue once, so scheduling
        # and the run loop pay no Python-level wrapper frame per event.
        self._push: Callable[[EventKey], None] = partial(heappush, self._queue)
        self._pop: Callable[[], EventKey] = partial(heappop, self._queue)
        self._eid = 0
        self._active_proc: Optional[Process] = None
        self._step_observers: List[StepObserver] = []
        self._probes: Dict[str, List[Callable[..., None]]] = {}

    # -- introspection --------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Events scheduled so far (the benchmark harness's event total)."""
        return self._eid

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else inf

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ms."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- instrumentation ------------------------------------------------------

    def add_step_observer(self, observer: StepObserver) -> None:
        """Register an auditing hook called on every processed event.

        Observers receive ``(time, priority, sequence, event)`` exactly as
        popped from the queue — the full deterministic ordering key plus
        the event itself — and must not mutate simulation state.
        """
        self._step_observers.append(observer)

    def probe(self, point: str) -> List[Callable[..., None]]:
        """The live subscriber list of the probe point named ``point``.

        An emitter fetches the list once, when it is built, and runs
        ``for fn in subs: fn(...)`` at each emission.  The list is
        created on first use, so subscribers may arrive before or after
        their emitter exists.
        """
        return self._probes.setdefault(point, [])

    def subscribe(self, point: str, fn: Callable[..., None]) -> None:
        """Call ``fn`` at every emission of probe point ``point``, after
        the subscribers already there.  Like step observers, subscribers
        must be passive: no events, no randomness, no mutation of
        simulation state."""
        self.probe(point).append(fn)

    def unsubscribe_all(self) -> None:
        """Drop every probe subscription and every step observer.  Called
        once a run is over, so a result that keeps this environment alive
        does not also keep every subscriber and observer (and the model
        graph they reach) alive."""
        for subs in self._probes.values():
            subs.clear()
        self._step_observers.clear()

    # -- scheduling -----------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL) -> None:
        """Enqueue ``event`` to be processed at the current time.

        :meth:`Event.succeed`, :class:`Timeout` and a request granted on
        the spot push their entries themselves; this is the path of the
        rarer callers.
        """
        self._eid += 1
        self._push((self.now, priority, self._eid, event))

    def run(self, until: Union[None, float, int, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until that event is processed, returning its value.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self.now:
                raise ValueError(
                    f"until={at} must lie in the future (now={self.now})"
                )
            until = Timeout(self, at - self.now)
            # Bare timeouts are always "ok"; hitting it ends the run with
            # value None.
            until._value = None

        if until is not None:
            if until.callbacks is None:
                # Already processed.
                if until.ok:
                    return until.value
                raise until.value
            until.callbacks.append(StopSimulation.callback)

        # The run loop is the hottest code in the system: every simulated
        # event passes through it, so it is written out inline with its
        # lookups hoisted.
        pop = self._pop
        observers = self._step_observers
        try:
            while True:
                # Only the pop may end the run as "queue empty": an
                # IndexError out of a callback is a model bug and must
                # propagate.
                try:
                    now, priority, sequence, event = pop()
                except IndexError:
                    break
                self.now = now
                if observers:
                    for observer in observers:
                        observer(now, priority, sequence, event)

                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    raise InvariantViolation(f"{event!r} processed twice")
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event._defused:
                    # A failure that nothing handled: crash the
                    # simulation loudly.
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(repr(exc))  # pragma: no cover - defensive
        except StopSimulation as stop:
            return stop.args[0]
        if until is not None and until._value is PENDING:
            raise RuntimeError(
                f"no events scheduled but {until!r} never fired"
            )
        return None
