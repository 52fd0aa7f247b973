"""Parallel independent disks.

The testbed simulates one conventional disk per processor node, addressed
independently through its own channel (the "parallel, independent disks"
architecture of Section II-A).  Each disk serves a FIFO queue of block
requests; the paper fixes the physical access time at 30 ms per 1 KB block.

*Disk response time* — the paper's contention measure — is the span from a
request's entry on the disk queue to I/O completion, so queueing delay is
included (Section V-A).

:class:`FixedDiskModel` is the paper's model.  :class:`SeekDiskModel` adds a
simple seek + rotation component for the scalability extension experiments
(it was *not* used for the reproduction figures).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..analysis.invariants import InvariantViolation, invariant
from ..sim.events import Event
from ..sim.monitor import Tally, TimeWeighted
from ..sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = [
    "RequestKind",
    "DiskRequest",
    "DiskModel",
    "FixedDiskModel",
    "JitteredDiskModel",
    "SeekDiskModel",
    "Disk",
]


class RequestKind(enum.Enum):
    """Why a block is being transferred."""

    DEMAND = "demand"
    PREFETCH = "prefetch"
    #: A dirty block being written back to disk (the write subsystem;
    #: the 1989 testbed was read-only, see docs/writes.md).
    WRITE = "write"


@dataclass
class DiskRequest:
    """One block-read request queued at a disk."""

    block: int
    kind: RequestKind
    node_id: int
    enqueue_time: float
    #: Fires (with the request) when the transfer completes.
    done: Event = field(repr=False)
    start_time: Optional[float] = None
    complete_time: Optional[float] = None
    #: Non-None when the transfer completed but returned an error (set
    #: from :meth:`DiskModel.completion_error` — the fault-injection hook).
    error: Optional[str] = None

    def _context(self) -> str:
        return (
            f"block {self.block} ({self.kind.value}) from node "
            f"{self.node_id}, enqueued t={self.enqueue_time}, "
            f"started t={self.start_time}"
        )

    @property
    def response_time(self) -> float:
        """Queue entry to completion (the paper's disk response time)."""
        complete = self.complete_time
        if complete is None:
            raise InvariantViolation(
                f"response_time read before completion: {self._context()}"
            )
        return complete - self.enqueue_time

    @property
    def service_time(self) -> float:
        complete = self.complete_time
        start = self.start_time
        if complete is None or start is None:
            raise InvariantViolation(
                f"service_time read before completion: {self._context()}"
            )
        return complete - start


class DiskModel:
    """Strategy object producing the physical service time of a request."""

    def service_time(self, request: DiskRequest) -> float:
        raise NotImplementedError

    def attach(self, disk: "Disk") -> None:
        """Bind the model to its disk.  Called once at construction and
        again whenever the model is swapped (the fault-injection
        decorator needs the disk's clock and queue depth)."""

    def completion_error(self, request: DiskRequest) -> Optional[str]:
        """Fault hook, evaluated as a transfer completes: non-None marks
        the completed request as errored.  The base models never fail."""
        return None


class FixedDiskModel(DiskModel):
    """The paper's disk: every access costs exactly ``access_time`` ms."""

    def __init__(self, access_time: float = 30.0) -> None:
        if access_time <= 0:
            raise ValueError(f"access_time {access_time} must be positive")
        self.access_time = access_time

    def service_time(self, request: DiskRequest) -> float:
        return self.access_time


class JitteredDiskModel(DiskModel):
    """Fixed mean access time with multiplicative jitter (extension).

    The paper's disks are exactly 30 ms; real drives vary.  Service time
    is ``mean * U(1-jitter, 1+jitter)`` drawn from a dedicated,
    deterministic stream, for sensitivity studies of the prefetching win
    under irregular disks.
    """

    def __init__(
        self,
        mean_time: float = 30.0,
        jitter: float = 0.3,
        seed: int = 0,
    ) -> None:
        if mean_time <= 0:
            raise ValueError(f"mean_time {mean_time} must be positive")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter {jitter} must be in [0, 1)")
        import numpy as np

        self.mean_time = mean_time
        self.jitter = jitter
        self._rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 0xD15C]))
        )

    def service_time(self, request: DiskRequest) -> float:
        lo = 1.0 - self.jitter
        hi = 1.0 + self.jitter
        return self.mean_time * float(self._rng.uniform(lo, hi))


class SeekDiskModel(DiskModel):
    """A positional disk with seek and rotational components (extension).

    Service time = ``transfer_time`` + ``seek_per_cylinder * |Δcylinder|``
    + ``rotation_time / 2`` (average rotational latency).  The head position
    persists across requests.
    """

    def __init__(
        self,
        blocks_per_cylinder: int = 32,
        transfer_time: float = 2.0,
        seek_per_cylinder: float = 0.1,
        rotation_time: float = 16.7,
    ) -> None:
        if blocks_per_cylinder <= 0:
            raise ValueError("blocks_per_cylinder must be positive")
        self.blocks_per_cylinder = blocks_per_cylinder
        self.transfer_time = transfer_time
        self.seek_per_cylinder = seek_per_cylinder
        self.rotation_time = rotation_time
        self._head_cylinder = 0

    def service_time(self, request: DiskRequest) -> float:
        cylinder = request.block // self.blocks_per_cylinder
        seek = abs(cylinder - self._head_cylinder) * self.seek_per_cylinder
        self._head_cylinder = cylinder
        return self.transfer_time + seek + self.rotation_time / 2.0


class Disk:
    """One independent disk with a FIFO request queue and a server process.

    Statistics (all per-disk, partitioned by request kind where noted):

    * ``response_times`` — Tally of enqueue-to-complete times;
    * ``demand_response`` / ``prefetch_response`` / ``write_response`` —
      kind-partitioned tallies;
    * ``busy`` — time-weighted busy indicator (utilization);
    * ``blocks_served`` — total completed requests (errored completions
      included: the transfer consumed the disk either way);
    * ``errors`` — completions the model's fault hook marked as failed.
    """

    def __init__(
        self,
        env: "Environment",
        disk_id: int,
        model: Optional[DiskModel] = None,
    ) -> None:
        self.env = env
        self.disk_id = disk_id
        self.model = model or FixedDiskModel()
        self._queue: Store = Store(env)
        self.response_times = Tally(f"disk{disk_id}.response")
        self.demand_response = Tally(f"disk{disk_id}.demand_response")
        self.prefetch_response = Tally(f"disk{disk_id}.prefetch_response")
        self.write_response = Tally(f"disk{disk_id}.write_response")
        self.busy = TimeWeighted(env, 0.0)
        self.blocks_served = 0
        self.errors = 0
        #: Probe ``disk.request`` ``(disk_id, request)``: a transfer
        #: completed — emitted after the completion fields are filled in
        #: and before the waiter is woken.
        self._on_request = env.probe("disk.request")
        self.model.attach(self)
        self._server = env.process(self._serve(), name=f"disk-{disk_id}")

    def set_model(self, model: DiskModel) -> None:
        """Swap the service-time model (the fault-injection decorator
        wraps the existing model in place after the machine is built)."""
        self.model = model
        model.attach(self)

    def submit(
        self, block: int, kind: RequestKind, node_id: int
    ) -> DiskRequest:
        """Enqueue a block read; returns the request (wait on ``.done``)."""
        request = DiskRequest(
            block=block,
            kind=kind,
            node_id=node_id,
            enqueue_time=self.env.now,
            done=Event(self.env),
        )
        self._queue.put(request)
        return request

    @property
    def pending(self) -> int:
        """Requests waiting in the queue (excludes the one in service)."""
        return len(self._queue.items)

    def cancel(self, request: DiskRequest) -> bool:
        """Withdraw a request that is still waiting in the queue (the
        resilience layer's timeout path).  Returns ``False`` when the
        request already entered service — the transfer then proceeds and
        ``request.done`` fires normally; the caller decides whether to
        keep waiting."""
        if request in self._queue.items:
            self._queue.items.remove(request)
            return True
        return False

    def utilization(self) -> float:
        """Fraction of time spent transferring, from t=0 to now."""
        return self.busy.time_average()

    def check_invariants(self) -> None:
        """Accounting sanity checks, raising
        :class:`~repro.analysis.invariants.InvariantViolation` on failure
        (run periodically during audited runs)."""
        invariant(
            self.blocks_served == self.response_times.count,
            "served-block counter disagrees with response tally",
            self.disk_id,
            self.blocks_served,
            self.response_times.count,
        )
        invariant(
            self.demand_response.count
            + self.prefetch_response.count
            + self.write_response.count
            == self.response_times.count,
            "kind-partitioned tallies do not sum to the response tally",
            self.disk_id,
        )
        invariant(
            0 <= self.errors <= self.blocks_served,
            "error counter outside [0, blocks_served]",
            self.disk_id,
            self.errors,
            self.blocks_served,
        )
        invariant(
            self.busy.value in (0.0, 1.0),
            "busy indicator is not 0/1",
            self.disk_id,
            self.busy.value,
        )

    def _serve(self):
        while True:
            request = yield self._queue.get()
            request.start_time = self.env.now
            self.busy.set(1.0)
            yield self.env.timeout(self.model.service_time(request))
            self.busy.set(0.0)
            request.complete_time = self.env.now
            request.error = self.model.completion_error(request)
            if request.error is not None:
                self.errors += 1
            self.blocks_served += 1
            rt = request.response_time
            self.response_times.record(rt)
            if request.kind is RequestKind.DEMAND:
                self.demand_response.record(rt)
            elif request.kind is RequestKind.PREFETCH:
                self.prefetch_response.record(rt)
            else:
                self.write_response.record(rt)
            for fn in self._on_request:
                fn(self.disk_id, request)
            request.done.succeed(request)
