"""The idle daemon: one loop for idle-time prefetch and writeback.

Each node runs one daemon per kind: ``"prefetch"`` (the paper's) and,
on read-write write-back runs, ``"writeback"`` (the flusher, after Do et
al.'s Linux page-cache model; docs/writes.md).  A daemon sleeps until
the node's user process becomes idle (any of the three idle kinds),
then repeatedly performs actions — "as long as the user process remains
in the idle state, the file system repeatedly considers prefetching,
releasing control only at the completion of an action" (Section IV-A).

Every action holds the node's CPU for its full duration, so an action
started just before the user's wake-up delays the user's resumption: that
delay is the *overrun*, measured by the node.  Both kinds wake on the same
gate and compete for the same CPU and disks, so prefetch-vs-writeback
interference is emergent.

A daemon is built from its kind, the kind's action (a generator taking
the node id and returning an outcome string), the outcomes after which
it sits out the rest of the idle period, an optional exhaustion check,
and the *minimum-idle* throttle.  The prefetch daemon stops for good once
its policy is permanently exhausted (the paper's oracle does not attempt
prefetches it knows cannot succeed).  The throttle (Section V-D): before
starting an action, compare the node's estimated remaining idle time
against ``min_idle``; if too little remains, sit out the rest of this
idle period.  The paper found this lowers overrun but degrades the hit
ratio for no net gain — the reproduction shows the same.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Generator, Optional

from ..machine.node import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fs.cache import BlockCache
    from ..sim.events import Event
    from .policy import PrefetchPolicy

__all__ = [
    "MAX_CONSECUTIVE_FAILURES",
    "IdleDaemon",
    "prefetch_daemon",
    "writeback_daemon",
]

#: Safety valve: after this many consecutive non-success actions within a
#: single idle period, sit out until the next one.  High enough that the
#: paper's overhead dynamics are preserved (failed actions cost real CPU
#: time), low enough to bound pathological spinning.
MAX_CONSECUTIVE_FAILURES = 10_000

#: ``action(node_id)``: one costed action, returning its outcome.
Action = Callable[[int], Generator["Event", None, str]]


class IdleDaemon:
    """One kind of idle-time work bound to one node."""

    def __init__(
        self,
        node: Node,
        kind: str,
        action: Action,
        *,
        sit_out: Collection[str],
        exhausted: Optional[Callable[[int], bool]] = None,
        min_idle: float = 0.0,
    ) -> None:
        self.env = node.env
        self.node = node
        self.kind = kind
        self._action = action
        self._sit_out = frozenset(sit_out)
        self._exhausted = exhausted
        self.min_idle = min_idle
        #: Probe ``<kind>.action`` ``(node_id, start, end, outcome)``: one
        #: action completed.
        self._on_action = self.env.probe(f"{kind}.action")
        self.process = self.env.process(
            self._run(), name=f"{kind}-daemon-{node.node_id}"
        )
        node.daemons[kind] = self

    def _record(self, start: float, outcome: str) -> None:
        now = self.env.now
        for fn in self._on_action:
            fn(self.node.node_id, start, now, outcome)

    def _run(self):
        env = self.env
        node = self.node
        while True:
            yield node.idle_gate.wait()
            failures = 0
            while node.idle_gate.is_open:
                if self._exhausted is not None and self._exhausted(
                    node.node_id
                ):
                    return  # permanently nothing left for this node
                if (
                    self.min_idle > 0.0
                    and node.estimated_idle_remaining() < self.min_idle
                ) or failures >= MAX_CONSECUTIVE_FAILURES:
                    # Not enough idle time left, or spinning: skip the
                    # rest of this idle period.
                    yield node.idle_gate.wait_closed()
                    break

                start = env.now
                cpu_req = node.cpu.request()
                yield cpu_req
                if not node.idle_gate.is_open:
                    # The user woke while we queued; don't start an action.
                    node.cpu.release(cpu_req)
                    break
                outcome = yield from self._action(node.node_id)
                node.cpu.release(cpu_req)
                self._record(start, outcome)
                if outcome == "success":
                    failures = 0
                elif outcome in self._sit_out:
                    # Nothing to do this period, or the target disk's
                    # circuit breaker is open: sit out the rest of the
                    # idle period instead of spinning — idle-time work
                    # must never starve demand I/O on a sick disk
                    # (docs/faults.md).
                    yield node.idle_gate.wait_closed()
                    break
                else:
                    failures += 1


def prefetch_daemon(
    node: Node,
    cache: "BlockCache",
    policy: "PrefetchPolicy",
    min_idle: float = 0.0,
) -> IdleDaemon:
    """``node``'s prefetcher: :meth:`BlockCache.prefetch_action` under
    ``policy``, stopping once the policy is exhausted for the node, and
    sitting out an idle period on ``suspended``."""
    return IdleDaemon(
        node,
        "prefetch",
        lambda node_id: cache.prefetch_action(node_id, policy),
        sit_out=("suspended",),
        exhausted=policy.exhausted,
        min_idle=min_idle,
    )


def writeback_daemon(node: Node, cache: "BlockCache") -> IdleDaemon:
    """``node``'s flusher: :meth:`BlockCache.flush_action`, sitting out an
    idle period on ``clean`` (at or below the background threshold) or
    ``suspended``."""
    return IdleDaemon(
        node,
        "writeback",
        cache.flush_action,
        sit_out=("clean", "suspended"),
    )
