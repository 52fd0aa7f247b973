"""Per-node file-system facade: the demand read and write paths.

``read_block`` / ``write_block`` are what the synthetic applications
call.  They glue together the node CPU protocol (hold while computing,
release across waits), the memory system bracketing, the cache lookup,
and the ``fs.read`` / ``fs.hit_wait`` / ``fs.write`` / ``fs.throttle``
probe points that the run's metrics and the trace and span recorders
subscribe to.

Timing anatomy of one read (all emergent from the cost model):

* ready hit:    call overhead + locked lookup + block copy  (~1-2 ms);
* unready hit:  the above + *hit-wait* (remaining I/O of someone else's
  fetch) + possible overrun on CPU reacquisition;
* miss:         call overhead + locked lookup + allocation + disk enqueue
  + full disk response (queueing + 30 ms) + copy + possible overrun.

Writes (docs/writes.md) are cheaper at the front — a miss allocates the
buffer dirty with *no* read I/O — but can stall at the back: write-through
waits out the disk write every time, and write-back stalls whenever the
dirty count crosses the throttle threshold (the Linux ``dirty_ratio``
stall, charged here as throttle-stall time).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..analysis.invariants import invariant
from ..faults.errors import ReadFailedError, WriteFailedError
from ..machine.node import IdleKind, Node
from ..sim.events import Event
from ..sim.resources import Request
from .cache import BlockCache

__all__ = ["FileServer"]


class FileServer:
    """The file system's application-facing interface."""

    def __init__(self, cache: BlockCache) -> None:
        self.cache = cache
        self.env = cache.env
        self.machine = cache.machine
        #: Probes ``fs.read`` / ``fs.write`` ``(node_id, block, outcome,
        #: latency, ref_index)``: a demand read or a write completed.
        self._on_read = self.env.probe("fs.read")
        self._on_write = self.env.probe("fs.write")
        #: Probe ``fs.hit_wait`` ``(node_id, wait)``: an unready read hit
        #: waited ``wait`` ms for someone else's fetch (the hit-wait).
        self._on_hit_wait = self.env.probe("fs.hit_wait")
        #: Probe ``fs.throttle`` ``(node_id, start, end, reason)``: a
        #: foreground writer finished a synchronous-flush stall (throttle
        #: or write-through) — the obs layer's "writeback" lane.
        self._on_throttle = self.env.probe("fs.throttle")

    def read_block(
        self,
        node: Node,
        cpu_req: Request,
        block: int,
        ref_index: int = -1,
    ) -> Generator[Event, None, Request]:
        """``yield from`` helper: read one block on behalf of ``node``'s
        user process, which currently holds ``cpu_req``.

        Returns the (possibly new) CPU claim — the claim changes whenever
        the read had to wait for I/O.
        """
        env = self.env
        memory = self.machine.memory
        start = env.now

        memory.enter()
        yield env.timeout(self.cache.costs.read_call_overhead)
        outcome = yield from self.cache.lookup_and_begin(node.node_id, block)

        if outcome.kind == "ready":
            yield from self.cache.copy_out(outcome.buffer)
            memory.exit()
            latency = env.now - start
            for fn in self._on_read:
                fn(node.node_id, block, "ready", latency, ref_index)
            return cpu_req

        # Unready hit or miss: wait out the I/O as idle time.  We leave the
        # memory system while asleep (no references issued).
        memory.exit()
        idle_kind = (
            IdleKind.REMOTE_IO
            if outcome.kind == "unready"
            else IdleKind.SELF_IO
        )
        invariant(
            outcome.ready_event is not None,
            "unready/miss lookup outcome lacks a ready event",
            outcome,
        )
        try:
            _, cpu_req = yield from node.idle_wait(
                cpu_req, outcome.ready_event, idle_kind
            )
        except ReadFailedError as exc:
            # Retry exhaustion under a fault plan: surface the failure to
            # the application with the read's context attached.
            raise ReadFailedError(
                f"demand read of block {block} by node {node.node_id} "
                f"({outcome.kind}) failed permanently: {exc}"
            ) from exc
        if outcome.kind == "unready":
            # Hit-wait: the logically necessary wait for the outstanding I/O.
            wait = node.idle_periods[-1].necessary
            for fn in self._on_hit_wait:
                fn(node.node_id, wait)

        memory.enter()
        self.cache.complete_read(node.node_id, outcome.buffer)
        yield from self.cache.copy_out(outcome.buffer)
        memory.exit()

        latency = env.now - start
        for fn in self._on_read:
            fn(node.node_id, block, outcome.kind, latency, ref_index)
        return cpu_req

    def write_block(
        self,
        node: Node,
        cpu_req: Request,
        block: int,
        ref_index: int = -1,
    ) -> Generator[Event, None, Request]:
        """``yield from`` helper: overwrite one block on behalf of
        ``node``'s user process, which currently holds ``cpu_req``.

        Returns the (possibly new) CPU claim.  The recorded write latency
        is the *durable-side* latency for write-through (it includes the
        synchronous flush) and the buffered latency plus any throttle
        stall for write-back — exactly what an application would see
        return from the call.
        """
        env = self.env
        memory = self.machine.memory
        cache = self.cache
        start = env.now

        memory.enter()
        yield env.timeout(cache.costs.read_call_overhead)
        outcome = yield from cache.write_begin(node.node_id, block)

        if outcome.kind == "unready":
            # Someone else's read I/O holds the buffer: the overwrite
            # lands once the data arrive.  Wait it out as idle time.
            memory.exit()
            invariant(
                outcome.ready_event is not None,
                "unready write outcome lacks a ready event",
                outcome,
            )
            try:
                _, cpu_req = yield from node.idle_wait(
                    cpu_req, outcome.ready_event, IdleKind.REMOTE_IO
                )
            except ReadFailedError as exc:
                raise WriteFailedError(
                    f"write of block {block} by node {node.node_id} "
                    f"waited on a fetch that failed permanently: {exc}"
                ) from exc
            memory.enter()
            cache.complete_write(node.node_id, outcome.buffer)

        # Data slot present and dirty: copy the new contents in (same
        # cost and unpin protocol as the read-side copy-out).
        yield from cache.copy_out(outcome.buffer)
        memory.exit()

        # Synchronous-flush obligations, if any: write-through flushes
        # *this* block before returning; write-back flushes the *oldest*
        # dirty block once the dirty count crosses the throttle limit.
        stall_reason: Optional[str] = None
        if cache.write_mode == "write-through":
            stall_reason = "write-through"
        elif cache.throttle_needed:
            stall_reason = "throttle"

        if stall_reason is not None:
            memory.enter()
            target = (
                outcome.buffer if stall_reason == "write-through" else None
            )
            stall_event = yield from cache.begin_sync_flush(
                node.node_id, stall_reason, buffer=target
            )
            memory.exit()
            if stall_event is not None:
                stall_start = env.now
                try:
                    _, cpu_req = yield from node.idle_wait(
                        cpu_req, stall_event, IdleKind.SELF_IO
                    )
                except WriteFailedError as exc:
                    raise WriteFailedError(
                        f"synchronous flush ({stall_reason}) forced by "
                        f"node {node.node_id}'s write of block {block} "
                        f"failed permanently: {exc}"
                    ) from exc
                for fn in self._on_throttle:
                    fn(node.node_id, stall_start, env.now, stall_reason)

        latency = env.now - start
        for fn in self._on_write:
            fn(node.node_id, block, outcome.kind, latency, ref_index)
        return cpu_req
