"""Run-level metric collection.

Gathers every measure the paper defines (Section IV-C):

* overall completion time (the primary metric);
* average time to read a block, overall and per node (the per-node split
  feeds the benefit-distribution analysis behind Fig. 1 / the lfp anomaly);
* cache hit ratio, split into *ready* and *unready* hits, plus hit-wait
  times;
* blocks prefetched vs demand-fetched;
* idle-daemon action outcomes per kind (prefetch and writeback) and the
  mean successful prefetch action length;
* synchronization waits (filled in by the runner from the workload);
* fault-injection counters (per-disk errors / retries / timeouts, breaker
  opens and fail-slow detections) — all zero on healthy runs;
* write-path counters (write latencies, throttle stalls —
  docs/writes.md) — all zero on read-only runs, and kept strictly apart
  from the read-side tallies so every paper-facing read measure means
  exactly what it meant before writes existed.

Disk times, idle periods and overrun stay on the Disks and Nodes, and the
cache keeps its own dirty peak and flush counts; the runner reads those
after the run.

:class:`RunMetrics` counts what the model's probe points report, like
every other passive tap on a run (docs/obs.md): constructing it subscribes
one method per point, so no model code calls it and ``repro lint``'s
purity pass covers it.  Derived ratios are computed on demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..sim.monitor import Tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = ["RunMetrics"]


class RunMetrics:
    """Accumulates the measurements of one experimental run."""

    def __init__(self, env: "Environment", n_nodes: int) -> None:
        self.env = env
        self.n_nodes = n_nodes

        # Block reads: every latency, and a count and sum per node.
        self.read_times = Tally("read_time")
        self._node_reads = [0] * n_nodes
        self._node_read_total = [0.0] * n_nodes

        # Cache outcome counters.
        self.hits_ready = 0
        self.hits_unready = 0
        #: Read misses; each is one demand fetch.
        self.misses = 0

        #: Positive waits on unready hits (the hit-wait time).
        self.hit_wait = Tally("hit_wait")

        #: Prefetched blocks evicted or invalidated before their first
        #: demand hit (wasted prefetches that left the cache mid-run;
        #: blocks still unused when the run ends are counted separately
        #: by the runner from the cache's live budget).
        self.prefetch_unused_evictions = 0
        #: Prefetches killed by a failed fetch (retry exhaustion on a
        #: fail-stopped disk) — written off, distinct from ordinary
        #: unused evictions: the block never arrived at all.
        self.prefetch_write_offs = 0

        #: Prefetch-daemon action outcomes, and the summed duration of
        #: the successful ones.
        self.prefetch_outcomes: Dict[str, int] = {}
        self._prefetch_success_time = 0.0
        #: Flusher-daemon action outcomes (the writeback twin of
        #: :attr:`prefetch_outcomes`).
        self.flush_outcomes: Dict[str, int] = {}

        # Synchronization (filled in by the runner at run end).
        self.sync_waits = Tally("sync_wait")

        # Fault injection (all empty / zero on healthy runs).
        self.disk_errors: Dict[int, int] = {}
        self.disk_retries: Dict[int, int] = {}
        self.disk_timeouts: Dict[int, int] = {}
        #: Circuit-breaker trips (transitions into OPEN).
        self.breaker_opens = 0
        #: Fail-slow windows the online detector opened.
        self.failslow_detections = 0

        # Write path (all zero on read-only runs; docs/writes.md).
        self.write_times = Tally("write_time")
        #: Writes that found their block's buffer present (ready or
        #: unready).
        self.write_hits = 0
        #: Writes that allocated a fresh dirty buffer (no read I/O).
        self.write_misses = 0
        #: Foreground dirty-ratio stalls (the Linux throttle).
        self.throttle_stalls = Tally("throttle_stall")

        # Run span.
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

        env.subscribe("fs.read", self._on_read)
        env.subscribe("fs.hit_wait", self._on_hit_wait)
        env.subscribe("fs.write", self._on_write)
        env.subscribe("fs.throttle", self._on_throttle)
        env.subscribe("fs.unused_prefetch", self._on_unused_prefetch)
        env.subscribe("prefetch.action", self._on_prefetch_action)
        env.subscribe("writeback.action", self._on_writeback_action)
        env.subscribe("faults.signal", self._on_fault_signal)

    # -- recording ------------------------------------------------------------

    def begin_run(self) -> None:
        self.start_time = self.env.now

    def end_run(self) -> None:
        self.end_time = self.env.now

    def _on_read(
        self,
        node_id: int,
        block: int,
        outcome: str,
        latency: float,
        ref_index: int,
    ) -> None:
        self.read_times.record(latency)
        self._node_reads[node_id] += 1
        self._node_read_total[node_id] += latency
        if outcome == "ready":
            self.hits_ready += 1
        elif outcome == "unready":
            self.hits_unready += 1
        else:
            self.misses += 1

    def _on_hit_wait(self, node_id: int, wait: float) -> None:
        self.hit_wait.record(wait)

    def _on_write(
        self,
        node_id: int,
        block: int,
        outcome: str,
        latency: float,
        ref_index: int,
    ) -> None:
        self.write_times.record(latency)
        if outcome == "miss":
            self.write_misses += 1
        else:
            self.write_hits += 1

    def _on_throttle(
        self, node_id: int, start: float, end: float, reason: str
    ) -> None:
        if reason == "throttle":
            self.throttle_stalls.record(end - start)

    def _on_unused_prefetch(
        self, fetched_by: int, block: int, reason: str
    ) -> None:
        if reason == "fetch_failed":
            self.prefetch_write_offs += 1
        else:
            self.prefetch_unused_evictions += 1

    def _on_prefetch_action(
        self, node_id: int, start: float, end: float, outcome: str
    ) -> None:
        outcomes = self.prefetch_outcomes
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome == "success":
            self._prefetch_success_time += end - start

    def _on_writeback_action(
        self, node_id: int, start: float, end: float, outcome: str
    ) -> None:
        outcomes = self.flush_outcomes
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    def _on_fault_signal(self, kind: str, disk_id: int) -> None:
        if kind == "error":
            self.disk_errors[disk_id] = self.disk_errors.get(disk_id, 0) + 1
        elif kind == "timeout":
            self.disk_timeouts[disk_id] = (
                self.disk_timeouts.get(disk_id, 0) + 1
            )
        elif kind == "retry":
            self.disk_retries[disk_id] = self.disk_retries.get(disk_id, 0) + 1
        elif kind == "breaker-open":
            self.breaker_opens += 1
        elif kind == "fail-slow":
            self.failslow_detections += 1

    # -- derived quantities -----------------------------------------------------

    @property
    def total_disk_errors(self) -> int:
        return sum(self.disk_errors.values())

    @property
    def total_retries(self) -> int:
        return sum(self.disk_retries.values())

    @property
    def total_timeouts(self) -> int:
        return sum(self.disk_timeouts.values())

    @property
    def blocks_prefetched(self) -> int:
        """Prefetches issued: each successful prefetch action starts one
        fetch."""
        return self.prefetch_outcomes.get("success", 0)

    @property
    def prefetch_action_mean(self) -> float:
        """Mean length of a successful prefetch action (0 when none)."""
        successes = self.blocks_prefetched
        if successes == 0:
            return 0.0
        return self._prefetch_success_time / successes

    @property
    def failed_action_count(self) -> int:
        """Prefetch actions that did not start a fetch."""
        outcomes = self.prefetch_outcomes
        return sum(outcomes.values()) - outcomes.get("success", 0)

    @property
    def total_accesses(self) -> int:
        return self.hits_ready + self.hits_unready + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses finding a buffer reserved for their block
        (ready *or* unready — the paper's generous definition)."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        return (self.hits_ready + self.hits_unready) / total

    @property
    def miss_ratio(self) -> float:
        return 1.0 - self.hit_ratio

    @property
    def ready_hit_fraction(self) -> float:
        """Fraction of all accesses served by ready hits."""
        total = self.total_accesses
        return self.hits_ready / total if total else 0.0

    @property
    def unready_hit_fraction(self) -> float:
        """Fraction of all accesses served by unready hits."""
        total = self.total_accesses
        return self.hits_unready / total if total else 0.0

    @property
    def avg_read_time(self) -> float:
        return self.read_times.mean

    @property
    def avg_hit_wait(self) -> float:
        """Mean positive wait over *unready* hits (0 when none occurred)."""
        return self.hit_wait.mean

    @property
    def avg_hit_wait_all_hits(self) -> float:
        """Mean hit-wait over **all** hits, counting ready hits as zero —
        the paper's definition ("ready buffer hits have a zero hit-wait
        time", Section V-A)."""
        hits = self.hits_ready + self.hits_unready
        if hits == 0:
            return 0.0
        return self.hit_wait.total / hits

    @property
    def total_time(self) -> float:
        if self.start_time is None or self.end_time is None:
            raise RuntimeError("run not complete")
        return self.end_time - self.start_time

    @property
    def total_writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def avg_write_time(self) -> float:
        return self.write_times.mean

    @property
    def throttle_stall_time(self) -> float:
        """Total time foreground writers spent in dirty-ratio stalls."""
        return self.throttle_stalls.total

    def per_node_mean_read_times(self) -> List[float]:
        return [
            total / count if count else 0.0
            for count, total in zip(self._node_reads, self._node_read_total)
        ]

    def benefit_imbalance(self) -> float:
        """Spread of per-node mean read times: (max - min) / overall mean.

        Zero when prefetching benefits are perfectly evenly distributed;
        large values flag the Fig. 1(b) pathology.
        """
        means = [
            total / count
            for count, total in zip(self._node_reads, self._node_read_total)
            if count
        ]
        if not means or self.read_times.mean == 0:
            return 0.0
        return (max(means) - min(means)) / self.read_times.mean
