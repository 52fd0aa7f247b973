"""The background writeback daemon (flusher) and its configuration.

The 1989 testbed is read-only; this module supplies the other half of a
credible file-system memory model (after Do et al.'s Linux page-cache
simulation, arXiv:2101.01335): dirty blocks, a background flusher, and
dirty-ratio throttling.  See docs/writes.md for the full model and its
Linux mapping.

One :class:`WritebackDaemon` per node, mirroring the prefetch daemon's
contract exactly: it waits for the node's user process to go idle (the
``idle_gate``), then repeatedly performs flush actions while the node is
idle, holding the CPU for each action's full duration.  Because both
daemons wake on the same gate and compete for the same capacity-1 CPU
and the same disks, prefetch-vs-writeback interference is *emergent* —
visible in the overrun (daemon-theft) attribution rather than asserted.

Thresholds follow Linux's two-level scheme:

* ``dirty_background_ratio`` — above this fraction of cache buffers the
  flusher starts cleaning opportunistically (idle time only);
* ``dirty_ratio`` — above this fraction the *foreground* writer must
  flush synchronously before its write returns (the throttle stall),
  which bounds dirty growth even when there is no idle time at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..machine.node import Node
from ..sim.monitor import Tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..metrics.collector import RunMetrics
    from .cache import BlockCache

__all__ = ["WRITE_MODES", "WritebackConfig", "WritebackDaemon"]


#: Recognized write modes: "write-back" (dirty blocks linger and are
#: cleaned by the flusher / throttle / eviction) vs "write-through"
#: (every write is flushed synchronously before it returns).
WRITE_MODES = ("write-back", "write-through")


@dataclass(frozen=True)
class WritebackConfig:
    """Write-path tunables (the Linux knobs, as ratios of cache size)."""

    #: "write-back" or "write-through".
    write_mode: str = "write-back"

    #: Foreground throttle threshold: a writer finding at least this
    #: fraction of all cache buffers dirty must flush synchronously
    #: (Linux ``vm.dirty_ratio``).
    dirty_ratio: float = 0.5

    #: Background flusher threshold: the daemon cleans only while the
    #: dirty fraction exceeds this (Linux ``vm.dirty_background_ratio``).
    dirty_background_ratio: float = 0.25

    #: Safety valve against pathological spinning, as in the prefetch
    #: daemon: after this many consecutive non-success actions within one
    #: idle period, sit the period out.
    max_consecutive_failures: int = 10_000

    def __post_init__(self) -> None:
        if self.write_mode not in WRITE_MODES:
            raise ValueError(
                f"unknown write mode {self.write_mode!r}; "
                f"pick from {WRITE_MODES}"
            )
        if not 0.0 < self.dirty_ratio <= 1.0:
            raise ValueError("dirty_ratio must be in (0, 1]")
        if not 0.0 <= self.dirty_background_ratio <= self.dirty_ratio:
            raise ValueError(
                "need 0 <= dirty_background_ratio <= dirty_ratio"
            )
        if self.max_consecutive_failures <= 0:
            raise ValueError("max_consecutive_failures must be positive")

    def dirty_limit_for(self, n_buffers: int) -> int:
        """Foreground-throttle threshold in blocks (at least 1)."""
        return max(1, int(n_buffers * self.dirty_ratio))

    def background_limit_for(self, n_buffers: int) -> int:
        """Background-flush threshold in blocks."""
        return int(n_buffers * self.dirty_background_ratio)


class WritebackDaemon:
    """Idle-time dirty-block flusher bound to one node."""

    def __init__(
        self,
        node: Node,
        cache: "BlockCache",
        metrics: "RunMetrics",
        config: WritebackConfig = WritebackConfig(),
    ) -> None:
        self.env = node.env
        self.node = node
        self.cache = cache
        self.metrics = metrics
        self.config = config
        self._stopped = False
        #: Probe ``writeback.action`` ``(node_id, start, end, outcome)``: one
        #: flush action completed.
        self._on_action = self.env.probe("writeback.action")
        #: Outcome counts for this daemon only.
        self.outcomes: dict = {}
        self.action_times = Tally(f"flusher{node.node_id}.actions")
        self.process = self.env.process(
            self._run(), name=f"writeback-daemon-{node.node_id}"
        )
        node.flusher = self

    def stop(self) -> None:
        """Prevent any further actions (current one completes)."""
        self._stopped = True

    def _record(self, start: float, outcome: str) -> None:
        duration = self.env.now - start
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.action_times.record(duration)
        self.metrics.record_flush_action(duration, outcome)
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
                outcome = yield from self.cache.flush_action(node.node_id)
                node.cpu.release(cpu_req)
                self._record(start, outcome)
                if outcome == "success":
                    consecutive_failures = 0
                elif outcome in ("clean", "suspended"):
                    # Nothing to clean below the background threshold, or
                    # the target disk's breaker is open: sit out the rest
                    # of this idle period instead of spinning — writeback
                    # must never starve demand I/O (docs/faults.md).
                    yield node.idle_gate.wait_closed()
                    break
                else:
                    consecutive_failures += 1
