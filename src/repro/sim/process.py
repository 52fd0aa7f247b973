"""Generator-based simulated processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` hands the
scheduler an :class:`~repro.sim.events.Event`; the process resumes when the
event is processed, receiving the event's value at the yield site (or having
the event's exception thrown in, for failed events).

A process is itself an event: it triggers with the generator's return value
when the generator finishes, so processes can wait on each other.

Interrupts
----------
:meth:`Process.interrupt` throws an :class:`Interrupt` into the generator at
the earliest opportunity, detaching it from whatever event it was waiting on
(the event itself is unaffected and may still fire later).  No simulator
component interrupts a process: the prefetch daemon gives up the CPU only
at the end of an action (Section IV-A) and checks its node's idle gate
between actions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from .events import NORMAL, PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = ["Interrupt", "Process", "ProcessGenerator"]


ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries arbitrary user data describing why the interrupt
    happened.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]

    def __str__(self) -> str:
        return f"Interrupt({self.cause!r})"


class _Initialize(Event):
    """Immediate urgent event that performs the first step of a process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume]
        env.schedule(self, priority=URGENT)


class _Interruption(Event):
    """Immediate urgent event delivering an :class:`Interrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process._value is not PENDING:
            raise RuntimeError(f"{process!r} has terminated; cannot interrupt")
        if process is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [self._interrupt]
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: Event) -> None:
        proc = self.process
        if proc._value is not PENDING:
            return  # terminated in the meantime; interrupt is moot
        # Detach the process from the event it is waiting on.
        target = proc._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(proc._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        proc._resume(self)


class Process(Event):
    """A simulated process executing ``generator``.

    The process event succeeds with the generator's return value, or fails
    with any exception that escapes the generator.
    """

    __slots__ = ("_generator", "_target", "name", "_resume")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The callback a waited-on event runs to resume the process,
        #: bound once instead of on every wait.  It refers back to the
        #: process, so it is deleted when the generator ends: a finished
        #: process is freed by reference counting, not left for the
        #: cyclic garbage collector.
        self._resume: Callable[[Event], None] = self._advance
        #: The event this process currently waits on (``None`` while active).
        self._target: Optional[Event] = _Initialize(env, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} at {id(self):#x}>"

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        _Interruption(self, cause)

    # -- scheduler interface --------------------------------------------------

    def _advance(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_proc = self
        send = self._generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The event's exception is being delivered here; the
                    # process is now responsible for it.
                    event.defuse()
                    exc = event._value
                    if isinstance(exc, BaseException):
                        next_event = self._generator.throw(exc)
                    else:  # pragma: no cover - defensive
                        next_event = self._generator.throw(
                            RuntimeError(repr(exc))
                        )
            except StopIteration as stop:
                # Generator finished: the process event succeeds.
                self._ok = True
                self._value = stop.value
                env.schedule(self, priority=NORMAL)
                del self._resume
                break
            except BaseException as exc:
                # Generator crashed: the process event fails.
                self._ok = False
                self._value = exc
                env.schedule(self, priority=NORMAL)
                del self._resume
                break

            if not isinstance(next_event, Event):
                self._target = None
                env._active_proc = None
                msg = f"process {self.name!r} yielded non-event {next_event!r}"
                raise RuntimeError(msg)

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                callbacks.append(self._resume)
                self._target = next_event
                break

            # Event already processed: loop and deliver immediately.
            event = next_event

        env._active_proc = None
