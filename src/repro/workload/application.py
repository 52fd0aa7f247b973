"""The synthetic parallel application.

One process per node, all running the same program (Section IV-D): read a
block, simulate computation on it (exponentially distributed delay), and
synchronize per the configured style.  The process holds its node's CPU
while computing and releases it across every wait, which is what gives the
prefetch daemon its idle windows.

A trace replay runs this same loop: its pattern carries each reference's
recorded compute gap, and its ``"replay"`` sync style the recorded barrier
visits.

Each access emits ``app.claim`` ``(node_id, ref_index, block, portion,
op)`` with ``op`` "r" or "w", then ``app.compute`` ``(node_id, delay)``
and ``app.sync_joins`` ``(node_id, count)``: the probe points the
replay-trace recorder (:mod:`repro.traces.recorder`) subscribes to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..machine.node import IdleKind, Node
from ..sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fs.fileserver import FileServer
    from .patterns import AccessPattern
    from .progress import ProgressTracker
    from .synchronization import SyncCoordinator

__all__ = ["application"]


def application(
    node: Node,
    server: "FileServer",
    tracker: "ProgressTracker",
    sync: "SyncCoordinator",
    pattern: "AccessPattern",
    rng: RandomStreams,
    compute_mean: float,
):
    """Generator for one node's user process.

    Loop: claim the next reference (own string for local patterns,
    self-scheduled from the shared string for global ones) → read the
    block → compute for the pattern's recorded gap, or Exp(``compute_mean``)
    ms when it has none → settle any owed synchronization visits.
    Departs the barrier and exits when the relevant string is exhausted.
    """
    env = node.env
    node_id = node.node_id
    on_claim = env.probe("app.claim")
    on_compute = env.probe("app.compute")
    on_sync_joins = env.probe("app.sync_joins")
    portions = pattern.portions_for(node_id)
    ops = pattern.ops_for(node_id)
    computes = pattern.computes_for(node_id)
    n_refs = len(pattern.string_for(node_id))

    cpu = yield from node.acquire_cpu()
    while True:
        nxt = tracker.next_ref(node_id)
        if nxt is None:
            break
        idx, block = nxt

        is_write = ops is not None and ops[idx] == 1
        if is_write:
            cpu = yield from server.write_block(node, cpu, block, idx)
        else:
            cpu = yield from server.read_block(node, cpu, block, idx)
        tracker.mark_consumed(node_id, idx)
        portion_id = int(portions[idx])
        for fn in on_claim:
            fn(node_id, idx, block, portion_id, "w" if is_write else "r")

        # Simulated per-block computation, holding the CPU.
        if computes is not None:
            delay = computes[idx]
        else:
            delay = rng.exponential(f"compute/node{node_id}", compute_mean)
        for fn in on_compute:
            fn(node_id, delay)
        if delay > 0.0:
            yield env.timeout(delay)

        sync.after_read(node_id, idx, portion_id)
        if pattern.scope == "local" and (
            idx == n_refs - 1 or int(portions[idx + 1]) != portion_id
        ):
            sync.note_portion_complete(node_id)

        joins = 0
        while sync.owes(node_id):
            event = sync.join(node_id)
            joins += 1
            _, cpu = yield from node.idle_wait(cpu, event, IdleKind.SYNC)
        for fn in on_sync_joins:
            fn(node_id, joins)

    sync.depart(node_id)
    node.release_cpu(cpu)
