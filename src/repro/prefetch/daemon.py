"""The idle-time prefetch daemon.

One daemon per node.  It sleeps until the node's user process becomes idle
(any of the three idle kinds), then repeatedly performs prefetch actions —
"as long as the user process remains in the idle state, the file system
repeatedly considers prefetching, releasing control only at the completion
of an action" (Section IV-A).

Every action holds the node's CPU for its full duration, so an action
started just before the user's wake-up delays the user's resumption: that
delay is the *overrun*, measured by the node.

The daemon stops for good once its policy is permanently exhausted (the
paper's oracle does not attempt prefetches it knows cannot succeed).

The *minimum-prefetch-time* throttle (Section V-D): before starting an
action, compare the node's estimated remaining idle time against
``min_prefetch_time``; if too little remains, sit out the rest of this
idle period.  The paper found this lowers overrun but degrades the hit
ratio for no net gain — the reproduction shows the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..machine.node import Node
from ..sim.monitor import Tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fs.cache import BlockCache
    from ..metrics.collector import RunMetrics
    from .policy import PrefetchPolicy

__all__ = ["DaemonConfig", "PrefetchDaemon"]


@dataclass(frozen=True)
class DaemonConfig:
    """Per-daemon tunables."""

    #: Minimum estimated idle time (ms) required to start a new action
    #: (Section V-D).  0 disables the throttle (the paper's default).
    min_prefetch_time: float = 0.0

    #: Safety valve: after this many consecutive non-success actions within
    #: a single idle period, sit out until the next one.  High enough that
    #: the paper's overhead dynamics are preserved (failed actions cost
    #: real CPU time), low enough to bound pathological spinning.
    max_consecutive_failures: int = 10_000

    def __post_init__(self) -> None:
        if self.min_prefetch_time < 0:
            raise ValueError("min_prefetch_time must be non-negative")
        if self.max_consecutive_failures <= 0:
            raise ValueError("max_consecutive_failures must be positive")


class PrefetchDaemon:
    """Idle-time prefetcher bound to one node."""

    def __init__(
        self,
        node: Node,
        cache: "BlockCache",
        policy: "PrefetchPolicy",
        metrics: "RunMetrics",
        config: DaemonConfig = DaemonConfig(),
    ) -> None:
        self.env = node.env
        self.node = node
        self.cache = cache
        self.policy = policy
        self.metrics = metrics
        self.config = config
        self._stopped = False
        #: Probe ``prefetch.action`` ``(node_id, start, end, outcome)``: one
        #: prefetch action completed.
        self._on_action = self.env.probe("prefetch.action")
        #: Outcome counts for this daemon only.
        self.outcomes: dict = {}
        self.action_times = Tally(f"daemon{node.node_id}.actions")
        self.process = self.env.process(
            self._run(), name=f"prefetch-daemon-{node.node_id}"
        )
        node.daemon = self

    def stop(self) -> None:
        """Prevent any further actions (current one completes)."""
        self._stopped = True

    def _record(self, start: float, outcome: str) -> None:
        duration = self.env.now - start
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.action_times.record(duration)
        self.metrics.record_prefetch_action(duration, outcome)
        for fn in self._on_action:
            fn(self.node.node_id, start, self.env.now, outcome)

    def _run(self):
        env = self.env
        node = self.node
        while not self._stopped:
            yield node.idle_gate.wait()
            if self._stopped:
                return
            consecutive_failures = 0
            while node.idle_gate.is_open and not self._stopped:
                if self.policy.exhausted(node.node_id):
                    return  # permanently nothing left for this node

                if (
                    self.config.min_prefetch_time > 0.0
                    and node.estimated_idle_remaining()
                    < self.config.min_prefetch_time
                ):
                    # Not enough idle time left: skip the rest of this
                    # idle period.
                    yield node.idle_gate.wait_closed()
                    break

                if consecutive_failures >= self.config.max_consecutive_failures:
                    yield node.idle_gate.wait_closed()
                    break

                start = env.now
                cpu_req = node.cpu.request()
                yield cpu_req
                if not node.idle_gate.is_open or self._stopped:
                    # The user woke while we queued; don't start an action.
                    node.cpu.release(cpu_req)
                    break
                outcome = yield from self.cache.prefetch_action(
                    node.node_id, self.policy
                )
                node.cpu.release(cpu_req)
                self._record(start, outcome)
                if outcome == "success":
                    consecutive_failures = 0
                elif outcome == "suspended":
                    # The target disk's circuit breaker is open: degrade
                    # gracefully by sitting out the rest of this idle
                    # period instead of spinning on the same candidate —
                    # prefetch must never starve demand I/O on a sick
                    # disk (docs/faults.md).
                    yield node.idle_gate.wait_closed()
                    break
                else:
                    consecutive_failures += 1
