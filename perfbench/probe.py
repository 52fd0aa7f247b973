"""Host-speed reference probe.

A fixed, deterministic slice of pure-Python work whose instruction mix
resembles the simulator's hot path: generator processes resumed from a
``heapq`` event queue, attribute updates on slotted objects, and dict
updates.  The objects and the dict are spread over a few MiB, so the
probe also pays the cache misses a simulation pays; a probe that stays
in L1 slows down more than the simulator when a co-tenant takes the
core.  It never imports ``repro``, so a change to the simulator cannot
move it; only the host (CPU frequency, cache pressure, co-tenants) does.

The harness times one probe before and after every simulation and scales
the simulation's wall time by ``NOMINAL_MS / mean(adjacent probes)``.
That turns host seconds into "reference host" seconds, which cancels
most of the slow phases a shared VM drifts through.

Caveat: anything that changes process-wide interpreter state — gc
thresholds, ``sys.setswitchinterval``, a tracing or profiling hook —
moves the probe as well as the simulation, so the raw figures
(``host.wall_s``, ``host.probe_ms``) stay in the report for audit.
"""

from __future__ import annotations

import heapq
import resource
import time

#: Wall time of one probe on the reference host (2-vCPU x86-64 VM,
#: CPython 3.11), in milliseconds, as timed between simulations.  Only
#: the ratio to the measured probe matters for comparisons; this
#: constant fixes the unit.
NOMINAL_MS = 10.0

_POOL_BITS = 16
_PROCS = 24
_STEPS = 310


class _Job:
    __slots__ = ("done", "weight", "key")

    def __init__(self, key: int) -> None:
        self.done = 0
        self.weight = 0.0
        self.key = key


def _worker(pool, table, seed: int, steps: int):
    mask = len(pool) - 1
    x = seed
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        job = pool[x & mask]
        job.done += 1
        job.weight += 0.5
        table[job.key] += 1
        yield (x >> 20) + 1


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Probe:
    """One probe instance; its working set is built once, untimed."""

    def __init__(self) -> None:
        before = _peak_rss_kib()
        size = 1 << _POOL_BITS
        self.pool = [_Job((i * 40503) % size) for i in range(size)]
        self.table = dict.fromkeys(range(size), 0)
        self.work()
        #: How far building the working set raised the process's peak
        #: RSS, in KiB.  That is the working set's size when the probe is
        #: built while the process sits at its peak so far, as it does
        #: right after start-up; the harness leaves it out of
        #: ``peak_rss_mib`` so that the figure is the simulator's.
        self.rss_kib = _peak_rss_kib() - before

    def work(self) -> int:
        """Run the fixed workload once and return a count of its steps."""
        procs = [
            _worker(self.pool, self.table, 2 * i + 1, _STEPS)
            for i in range(_PROCS)
        ]
        queue = [(0, i, i) for i in range(_PROCS)]
        heapq.heapify(queue)
        seq = _PROCS
        steps = 0
        while queue:
            now, _, index = heapq.heappop(queue)
            try:
                delay = next(procs[index])
            except StopIteration:
                continue
            seq += 1
            steps += 1
            heapq.heappush(queue, (now + delay, seq, index))
        return steps

    def time_ms(self) -> float:
        """Wall time of one probe, in milliseconds."""
        start = time.perf_counter()
        steps = self.work()
        elapsed = time.perf_counter() - start
        if steps != _PROCS * _STEPS:  # consume the result inside the timing
            raise RuntimeError(f"probe ran {steps} steps")
        return elapsed * 1000.0
