"""Deterministic discrete-event simulation kernel.

A from-scratch, generator-driven simulator (no external dependency) with:

* :class:`~repro.sim.core.Environment` — clock + binary-heap event queue
  served in ``(time, priority, sequence)`` order;
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`/:class:`~repro.sim.events.AnyOf`;
* :class:`~repro.sim.process.Process` with interrupts;
* resources (:class:`~repro.sim.resources.Resource` and the unbounded
  :class:`~repro.sim.resources.Store`), which schedule no event that
  nothing waits on;
* a level-triggered condition (:class:`~repro.sim.sync.Gate`);
* reproducible named RNG streams (:class:`~repro.sim.rng.RandomStreams`);
* measurement (:class:`~repro.sim.monitor.Tally`,
  :class:`~repro.sim.monitor.TimeWeighted`).

Simulation time is a float in **milliseconds** throughout the project.
"""

from .core import Environment, StopSimulation
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .monitor import Tally, TimeWeighted
from .process import Interrupt, Process
from .resources import Resource, Store
from .rng import RandomStreams
from .sync import Gate

__all__ = [
    "Environment",
    "StopSimulation",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Interrupt",
    "Resource",
    "Store",
    "Gate",
    "RandomStreams",
    "Tally",
    "TimeWeighted",
]
