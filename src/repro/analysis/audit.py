"""Runtime determinism auditor.

The static rules in :mod:`repro.analysis.simlint` keep nondeterminism out
of the source; this module proves, at run time, that a configuration's
execution is actually reproducible and structurally sound:

* :class:`Auditor` — a :class:`~repro.experiments.runner.RunInstrumentation`
  that attaches an :class:`~repro.sim.monitor.EventTraceHash` (fingerprint
  of the full ``(time, priority, sequence, event-type)`` stream), a
  :class:`~repro.sim.monitor.SimultaneousEventLog` (the DES race detector),
  and a periodic invariant sweep over the cache and disks.
* :func:`run_with_audit` — run one experiment under an auditor, returning
  an :class:`AuditReport`.
* :func:`run_twice_and_diff` — the seed-stability proof: run the same
  configuration twice and compare event-trace digests.  Identical digests
  mean the two executions were bit-for-bit the same schedule.

Run from the command line via ``rapid-transit audit`` or
``rapid-transit run --audit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from ..sim.core import Environment
from ..sim.process import ProcessGenerator
from ..sim.monitor import (
    EventTraceHash,
    ResourceCollision,
    SimultaneousEventLog,
)
from .invariants import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentConfig
    from ..experiments.runner import RunResult
    from ..fs.cache import BlockCache
    from ..machine.machine import Machine
    from ..obs.recorder import ObsData
    from ..workload.patterns import AccessPattern

__all__ = [
    "AuditReport",
    "Auditor",
    "DeterminismReport",
    "run_twice_and_diff",
    "run_with_audit",
]

#: Default period (ms of simulated time) between invariant sweeps.
DEFAULT_SWEEP_INTERVAL = 250.0


class Auditor:
    """Instrumentation that audits one run.

    Parameters
    ----------
    sweep_interval:
        Simulated milliseconds between invariant sweeps; ``None`` disables
        periodic sweeping (the post-run sweep in the runner still fires).
    """

    def __init__(
        self, sweep_interval: Optional[float] = DEFAULT_SWEEP_INTERVAL
    ) -> None:
        self.trace_hash = EventTraceHash()
        self.race_log = SimultaneousEventLog()
        self.sweep_interval = sweep_interval
        self.invariant_sweeps = 0

    # -- RunInstrumentation hooks ---------------------------------------------

    def on_environment(self, env: Environment) -> None:
        env.add_step_observer(self.trace_hash)
        env.add_step_observer(self.race_log)
        env.subscribe("disk.request", self.race_log.disk_request)

    def on_wired(
        self, env: Environment, machine: "Machine", cache: "BlockCache"
    ) -> None:
        if self.sweep_interval is not None:
            env.process(
                self._sweep(env, machine, cache), name="invariant-audit"
            )

    def _sweep(
        self, env: Environment, machine: "Machine", cache: "BlockCache"
    ) -> ProcessGenerator:
        # The sweep only *reads* shared state, so it cannot perturb the
        # run; it does consume sequence numbers, which is why audited and
        # unaudited runs of one config hash differently (compare like
        # with like — see run_twice_and_diff).
        interval = self.sweep_interval
        if interval is None or interval <= 0:
            raise InvariantViolation(
                f"sweep interval must be positive, got {interval!r}"
            )
        while True:
            yield env.timeout(interval)
            cache.check_invariants()
            for disk in machine.disks:
                disk.check_invariants()
            self.invariant_sweeps += 1


class _CompositeInstrumentation:
    """Fan the runner's instrumentation hooks out to several receivers.

    Used when a run is both audited and observed: the auditor and the
    observability recorder each get every hook, in registration order.
    """

    def __init__(self, *parts: Any) -> None:
        self.parts: Tuple[Any, ...] = parts

    def on_environment(self, env: Environment) -> None:
        for part in self.parts:
            part.on_environment(env)

    def on_wired(
        self, env: Environment, machine: "Machine", cache: "BlockCache"
    ) -> None:
        for part in self.parts:
            part.on_wired(env, machine, cache)


@dataclass
class AuditReport:
    """Everything one audited run proved about itself."""

    label: str
    trace_digest: str
    n_events: int
    n_collisions: int
    collisions: List[ResourceCollision]
    invariant_sweeps: int
    result: "RunResult" = field(repr=False)
    #: Observability payload when the run was audited with ``obs=True``;
    #: ``None`` otherwise.
    obs_data: Optional["ObsData"] = field(default=None, repr=False)


def run_with_audit(
    config: "ExperimentConfig",
    sweep_interval: Optional[float] = DEFAULT_SWEEP_INTERVAL,
    obs: bool = False,
    *,
    pattern: Optional["AccessPattern"] = None,
) -> AuditReport:
    """Run ``config`` under a fresh :class:`Auditor`.

    ``pattern`` is passed to
    :func:`~repro.experiments.runner.run_experiment`: a pre-built
    pattern, such as a trace's, in place of ``config``'s own.

    With ``obs=True`` an :class:`~repro.obs.recorder.ObsRecorder` rides
    along on the same run; because its hooks are passive, the trace
    digest must be identical with and without it — that equivalence is
    itself part of the observability layer's test suite.
    """
    from ..experiments.runner import run_experiment

    auditor = Auditor(sweep_interval=sweep_interval)
    recorder = None
    instrument: Any = auditor
    if obs:
        from ..obs.recorder import ObsRecorder

        recorder = ObsRecorder()
        instrument = _CompositeInstrumentation(auditor, recorder)
    result = run_experiment(config, instrument=instrument, pattern=pattern)
    auditor.race_log.finish()
    obs_data = recorder.finalize(result) if recorder is not None else None
    return AuditReport(
        label=config.label,
        trace_digest=auditor.trace_hash.hexdigest(),
        n_events=auditor.trace_hash.n_events,
        n_collisions=auditor.race_log.n_collisions,
        collisions=list(auditor.race_log.collisions),
        invariant_sweeps=auditor.invariant_sweeps,
        result=result,
        obs_data=obs_data,
    )


@dataclass
class DeterminismReport:
    """Outcome of running one configuration twice."""

    label: str
    first: AuditReport = field(repr=False)
    second: AuditReport = field(repr=False)

    @property
    def identical(self) -> bool:
        """Did the two runs execute the exact same event schedule?"""
        return (
            self.first.trace_digest == self.second.trace_digest
            and self.first.n_events == self.second.n_events
        )

    def summary(self) -> str:
        status = "IDENTICAL" if self.identical else "DIVERGED"
        return (
            f"{self.label}: {status} "
            f"({self.first.n_events} events, "
            f"digest {self.first.trace_digest[:16]}…"
            + (
                ""
                if self.identical
                else f" vs {self.second.trace_digest[:16]}…"
            )
            + f", {self.first.n_collisions} same-instant resource "
            "collisions)"
        )


def run_twice_and_diff(
    config: "ExperimentConfig",
    sweep_interval: Optional[float] = DEFAULT_SWEEP_INTERVAL,
    obs: bool = False,
    *,
    pattern: Optional["AccessPattern"] = None,
) -> DeterminismReport:
    """Prove (or refute) seed-stability of ``config``.

    Runs the configuration twice from scratch under identical
    instrumentation and compares the event-trace digests.  A divergence
    means some draw, iteration order, or tie-break differed between two
    executions of the same seed — exactly the silent nondeterminism the
    paper's paired-run methodology cannot tolerate.

    With ``obs=True`` both runs carry the observability recorder, so an
    identical verdict additionally proves span tracing and timeline
    sampling do not perturb the schedule.  Both runs take the same
    ``pattern`` (a trace replay audits as ``run_twice_and_diff(config,
    pattern=trace.to_pattern())``).
    """
    first = run_with_audit(
        config, sweep_interval=sweep_interval, obs=obs, pattern=pattern
    )
    second = run_with_audit(
        config, sweep_interval=sweep_interval, obs=obs, pattern=pattern
    )
    return DeterminismReport(label=config.label, first=first, second=second)
