"""The resilience layer: retries, timeouts, backoff, circuit breakers.

Constructed by :func:`~repro.experiments.runner.run_experiment` when a
config carries a :class:`~repro.faults.plan.FaultPlan`.  Construction

* wraps every faulted disk's model in a
  :class:`~repro.faults.model.FaultyDiskModel` (injection), and
* builds one :class:`~repro.faults.breaker.CircuitBreaker` per disk
  (recovery).

The cache then routes block fetches through :meth:`ResilienceLayer.fetch`
instead of submitting to the disk directly.  Each fetch is supervised by
a small process implementing the retry loop:

1. submit; wait for completion, bounded by ``timeout`` when non-zero;
2. on timeout: withdraw the request if it is still queued, or abandon
   the wait if it already entered service (the eventual completion is
   harmless — nobody listens — and the transfer occupied the disk
   either way); then back off and re-issue;
3. on an errored completion: back off (exponential, deterministically
   jittered from ``faults/backoff/disk<N>``) and re-issue;
4. after ``max_retries`` re-issues, give up: the buffer's ready event is
   *failed* so the error surfaces in every waiting application process.

Every transition is recorded in the :class:`FaultEventLog`, whose digest
is the determinism witness for the injected schedule.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

from .breaker import CircuitBreaker
from .detector import FailSlowConfig, FailSlowDetector
from .errors import ReadFailedError
from .events import FaultEventLog
from .model import DiskFaultState, FaultyDiskModel
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.disk import Disk, RequestKind
    from ..machine.machine import Machine
    from ..sim.core import Environment
    from ..sim.rng import RandomStreams

__all__ = ["ResilienceLayer", "SIGNAL_KINDS"]

#: Resilience-signal kinds emitted on the ``faults.signal`` probe point as
#: ``(kind, disk_id)`` — by the layer, and by its breakers for the three
#: ``breaker-*`` kinds.
SIGNAL_KINDS = (
    "error",
    "timeout",
    "retry",
    "breaker-open",
    "breaker-half-open",
    "breaker-close",
    "fail-slow",
    "fail-slow-clear",
)


class ResilienceLayer:
    """Fault injection plus recovery, wired onto a built machine."""

    def __init__(
        self,
        env: "Environment",
        plan: FaultPlan,
        machine: "Machine",
        streams: "RandomStreams",
        detector: Optional[FailSlowConfig] = None,
    ) -> None:
        plan.validate_for(machine.n_disks)
        self.env = env
        self.plan = plan
        self.policy = plan.resilience
        self.machine = machine
        self.streams = streams
        self.log = FaultEventLog(env)
        #: Fault state per faulted disk (disks without specs stay on
        #: their original model and never appear here).
        self.states: Dict[int, DiskFaultState] = {}
        for disk in machine.disks:
            specs = plan.for_disk(disk.disk_id)
            if specs:
                state = DiskFaultState(disk.disk_id, specs, streams)
                disk.set_model(FaultyDiskModel(disk.model, state))
                self.states[disk.disk_id] = state
        #: One breaker per disk — healthy disks get one too, so a burst
        #: of timeouts from shared-queue contention is also damped.
        self.breakers: Dict[int, CircuitBreaker] = {
            disk.disk_id: CircuitBreaker(
                env, disk.disk_id, self.policy, self.log
            )
            for disk in machine.disks
        }
        #: Online fail-slow detector fed from supervised completions.
        self.detector = FailSlowDetector(detector or FailSlowConfig())
        self._on_signal = env.probe("faults.signal")

    def _signal(self, kind: str, disk_id: int) -> None:
        for fn in self._on_signal:
            fn(kind, disk_id)

    def _feed_detector(self, disk_id: int, service_time: float) -> None:
        transition = self.detector.observe(
            disk_id, service_time, self.env.now
        )
        if transition is None:
            return
        self.log.record("failslow", disk_id, detail=transition)
        self._signal(
            "fail-slow" if transition == "detected" else "fail-slow-clear",
            disk_id,
        )

    # -- prefetch gating ---------------------------------------------------

    def allow_prefetch(self, disk_id: int) -> bool:
        """Breaker check for the prefetch path (demand is never gated)."""
        return self.breakers[disk_id].allow()

    def peek_prefetch(self, disk_id: int) -> bool:
        """Pure peek-side variant of :meth:`allow_prefetch` — safe from
        passive contexts, performs no breaker transition."""
        return self.breakers[disk_id].peek_allow()

    def next_reopen(self) -> float:
        """The earliest time an OPEN breaker's cooldown ends, or inf when
        none is cooling down.  Until then :meth:`peek_prefetch` changes
        only on a breaker transition.  Pure query."""
        return min(b.reopens_at() for b in self.breakers.values())

    def is_slow(self, disk_id: int) -> bool:
        """Is the fail-slow detector currently flagging ``disk_id``?"""
        return self.detector.is_slow(disk_id)

    def consecutive_failures(self, disk_id: int) -> int:
        """Current consecutive-failure count of ``disk_id``'s breaker
        (pure query; resets to zero on any clean completion).  Lets the
        adaptive policy tell a fresh incident from an ongoing burst."""
        return self.breakers[disk_id].consecutive_failures

    # -- the supervised fetch path ----------------------------------------

    def fetch(
        self,
        disk: "Disk",
        block: int,
        kind: "RequestKind",
        node_id: int,
        on_success: Callable[[], None],
        on_failure: Callable[[BaseException], None],
    ) -> None:
        """Fetch ``block`` with retry/timeout/backoff.

        Interrupt-context from the caller's perspective (uncosted): a
        supervisor process is spawned and exactly one of the callbacks
        eventually runs — ``on_success()`` when a transfer completes
        cleanly, ``on_failure(exc)`` on retry exhaustion.
        """
        self.env.process(
            self._supervise(disk, block, kind, node_id, on_success, on_failure),
            name=f"fetch-{kind.value}-disk{disk.disk_id}-block{block}",
        )

    def _backoff(self, attempt: int, disk_id: int) -> float:
        policy = self.policy
        delay = min(
            policy.backoff_max,
            policy.backoff_base * policy.backoff_factor ** (attempt - 1),
        )
        if policy.backoff_jitter > 0.0:
            delay *= self.streams.uniform(
                f"faults/backoff/disk{disk_id}",
                1.0 - policy.backoff_jitter,
                1.0 + policy.backoff_jitter,
            )
        return delay

    def _supervise(
        self,
        disk: "Disk",
        block: int,
        kind: "RequestKind",
        node_id: int,
        on_success: Callable[[], None],
        on_failure: Callable[[BaseException], None],
    ) -> Generator:
        policy = self.policy
        breaker = self.breakers[disk.disk_id]
        what = f"block {block} ({kind.value}, node {node_id})"
        attempt = 1
        while True:
            request = disk.submit(block, kind, node_id)
            if policy.timeout > 0.0:
                timer = self.env.timeout(policy.timeout)
                yield request.done | timer
            else:
                yield request.done

            if request.done.triggered:
                # The transfer completed (cleanly or with an error) —
                # either way its service latency is a genuine sample of
                # how the disk is performing, so feed the detector.
                if request.complete_time is not None and (
                    request.start_time is not None
                ):
                    self._feed_detector(
                        disk.disk_id,
                        request.complete_time - request.start_time,
                    )
                failure = request.error
                if failure is None:
                    breaker.record_success()
                    on_success()
                    return
                self.log.record(
                    "error",
                    disk.disk_id,
                    detail=f"{what}: {failure}",
                    attempt=attempt,
                )
                self._signal("error", disk.disk_id)
                breaker.record_failure()
            else:
                # Timed out.  Withdraw the request if it is still queued;
                # if it already entered service, abandon the wait and
                # hedge with a fresh attempt (the late completion fires
                # into the void).
                cancelled = disk.cancel(request)
                failure = "timeout" if cancelled else "timeout (in service)"
                self.log.record(
                    "timeout",
                    disk.disk_id,
                    detail=f"{what}: {failure}",
                    attempt=attempt,
                )
                self._signal("timeout", disk.disk_id)
                breaker.record_failure()

            if attempt > policy.max_retries:
                self.log.record(
                    "exhausted", disk.disk_id, detail=what, attempt=attempt
                )
                on_failure(
                    ReadFailedError(
                        f"disk {disk.disk_id}: {what} failed after "
                        f"{attempt} attempts (last: {failure})"
                    )
                )
                return

            delay = self._backoff(attempt, disk.disk_id)
            self.log.record(
                "retry",
                disk.disk_id,
                detail=f"{what}: backoff {delay:.3f} ms",
                attempt=attempt,
            )
            self._signal("retry", disk.disk_id)
            yield self.env.timeout(delay)
            attempt += 1

    # -- degraded-mode accounting -----------------------------------------

    def degraded_intervals(self, end: float) -> List[Tuple[float, float]]:
        """Union of all degraded spans clipped to ``[0, end]``: injected
        fault windows plus breaker-open intervals."""
        spans: List[Tuple[float, float]] = []
        for state in self.states.values():
            spans.extend(state.degraded_windows())
        for breaker in self.breakers.values():
            spans.extend(breaker.open_intervals(end))
        for _disk, start, stop in self.detector.all_windows(end):
            spans.append((start, stop))
        clipped = []
        for start, stop in spans:
            start = max(0.0, start)
            stop = min(end, stop)
            if stop > start:
                clipped.append((start, stop))
        merged: List[List[float]] = []
        for start, stop in sorted(clipped):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], stop)
            else:
                merged.append([start, stop])
        return [(a, b) for a, b in merged]

    def time_in_degraded(self, end: float) -> float:
        """Total time (ms) any disk was inside a fault window or any
        breaker was open, within ``[0, end]``."""
        return sum(b - a for a, b in self.degraded_intervals(end))
