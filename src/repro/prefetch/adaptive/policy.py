"""The adaptive prefetch policy: classification + feedback control.

:class:`AdaptivePolicy` is the first policy in this repository that
prefetches the way a real file system must — from observed history only,
with no access to the reference string.  It composes:

* one :class:`~repro.prefetch.adaptive.classifier.AccessClassifier` per
  node (recognizes the locally sequential/strided streams of lw/lfp/lrp
  and the sequential interior of every portion);
* one :class:`~repro.prefetch.adaptive.classifier.GlobalStreamClassifier`
  plus a merged-stream :class:`AccessClassifier` over the union of all
  nodes' accesses (self-scheduled global patterns consume the shared
  string nearly in order, so the merged stream shows the stride-1 runs
  of gw/gfp/grp even though each node's subsequence looks irregular);
* one :class:`~repro.prefetch.adaptive.feedback.FeedbackController` per
  node plus one for the global scope, setting how far past the frontier
  (distance) and how many unconsumed prefetches at once (degree) each
  scope may run.

Feedback wiring — every signal is read from accounting the simulator
already keeps, none is invented:

* *demand stall*: :meth:`observe` fires on every demand access (the
  cache's ``fs.access`` probe point); an absent block means the consumer
  is about to stall → grow.
* *prefetch hit*: the demanded block was one this policy prefetched →
  grow (the prediction was consumed).
* *daemon theft*: :meth:`observe` scans the node's new
  :class:`~repro.machine.node.IdlePeriod` records — the exact substrate
  the obs bottleneck attribution reads — and shrinks on overrun beyond
  the tolerance.
* *unused eviction*: the cache's ``fs.unused_prefetch`` probe point
  fires when a prefetched block is evicted or invalidated before first
  use → shrink, and un-claim the block so it may be re-prefetched.
* *budget pressure*: the cache calls :meth:`abort` when an action fails
  on ``budget_full``/``no_buffer`` → shrink.
* *dirty pressure* (read-write runs only): the cache's
  ``fs.write_pressure`` probe point fires as writes dirty buffers; when the
  dirty population crosses the background-flush threshold the global
  scope shrinks once per excursion (``dirty_pressure``) — prefetched
  blocks and dirty blocks compete for the same buffers, and the flusher
  is about to contend for the same idle CPU windows.  Read-only runs
  never fire the hook, so the signal is strictly inert there.

Fault awareness (on by default, strictly inert on healthy runs): when
the run carries a :class:`~repro.faults.layer.ResilienceLayer`, the
policy subscribes to its ``faults.signal`` probe point and

* *shrinks* the global scope on breaker trips, fail-slow detections, and
  retries (``breaker_open`` / ``fail_slow`` / ``fault_retry``); retry
  shrinks are rate-limited to the first retry of each failure burst and
  suppressed on disks already blacklisted or flagged slow, so one
  incident is billed once, not once per retry;
* *blacklists* disks whose breaker is open at peek time (pure
  ``peek_allow`` — no transitions from a passive context), so daemons
  keep streaming from healthy disks instead of burning idle periods on
  "suspended" actions (fail-slow disks are deliberately *not* skipped:
  their blocks must be read eventually, and starting a slow fetch early
  buys more overlap, not less);
* *re-ramps* after recovery: once the cooldown elapses the peek filter
  admits one candidate on the sick disk again, whose issuing gate
  performs the OPEN→HALF_OPEN transition — the half-open probe prefetch;
  its success closes the breaker and prefetch-hit growth restores the
  distance;
* *writes off* committed-but-unfetchable slots: a prefetch killed by a
  fail-stopped disk frees its degree slot immediately (``write_off``)
  instead of lingering as a phantom commitment until the stale scan;
* treats resilience-layer *suspensions* as fault damage, not cache
  backpressure: :meth:`suspend` releases the reservation without the
  ``budget_pressure`` shrink that :meth:`abort` books.

Everything above reads state the resilience layer already maintains;
with no fault plan (``cache.resilience is None``) none of it runs and
the event schedule is bit-identical to the fault-unaware policy's.

Everything here is passive bookkeeping driven by simulation events: no
randomness, no wall clock, no event scheduling, and set containers are
used for membership only — the policy cannot perturb the schedule it
observes, so adaptive runs stay bit-identical under ``repro audit``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple, Union

from ...analysis.invariants import InvariantViolation
from ..predictors import _ClaimingPolicy
from .classifier import AccessClassifier, GlobalStreamClassifier
from .feedback import FeedbackConfig, FeedbackController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...faults.layer import ResilienceLayer
    from ...fs.cache import BlockCache

__all__ = ["AdaptiveConfig", "AdaptivePolicy"]

#: Resilience-signal kind -> feedback shrink reason (global scope).
_FAULT_SHRINKS = {
    "breaker-open": "breaker_open",
    "fail-slow": "fail_slow",
    "retry": "fault_retry",
}

#: Trajectory decimation threshold: when the recorded trajectory reaches
#: this length, every other point is dropped and the recording stride
#: doubles (bounded memory, deterministic).
_TRAJECTORY_CAP = 4096


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive policy (classifier + feedback loop)."""

    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    #: Consistent-stride accesses before a per-node stream is classified.
    min_run: int = 3
    #: Largest |stride| the per-node classifier extrapolates.
    max_stride: int = 64
    #: Merged-stream density required to call the global stream sequential.
    density_threshold: float = 0.6
    #: Distinct blocks required before the global classifier speaks.
    warmup: int = 8
    #: Age (ms) after which a committed-but-unconsumed prefetch is
    #: written off: its in-flight slot is reclaimed and the issuing
    #: scope shrinks.  Without this, a mispredicted block — which the
    #: cache protects from eviction — would pin one of the scope's
    #: ``degree`` slots forever and prefetching would strangle itself.
    write_off_ms: float = 250.0
    #: Subscribe to resilience signals and steer around sick disks when
    #: the run carries a fault plan.  Inert without one; disable to get
    #: the original fault-oblivious behaviour (the ``adaptive-nofault``
    #: tournament entrant).
    fault_aware: bool = True


class AdaptivePolicy(_ClaimingPolicy):
    """History-based prefetching with feedback-controlled readahead."""

    name = "adaptive"

    def __init__(
        self,
        file_blocks: int,
        n_nodes: int,
        config: Optional[AdaptiveConfig] = None,
    ) -> None:
        super().__init__(file_blocks)
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.n_nodes = n_nodes
        self.config = config if config is not None else AdaptiveConfig()

        cfg = self.config
        self._classifiers = [
            AccessClassifier(min_run=cfg.min_run, max_stride=cfg.max_stride)
            for _ in range(n_nodes)
        ]
        self._controllers = [
            FeedbackController(cfg.feedback, on_change=self._on_distance_change)
            for _ in range(n_nodes)
        ]
        self._global = GlobalStreamClassifier(
            file_blocks,
            density_threshold=cfg.density_threshold,
            warmup=cfg.warmup,
        )
        self._global_run = AccessClassifier(
            min_run=cfg.min_run, max_stride=cfg.max_stride
        )
        self._global_controller = FeedbackController(
            cfg.feedback, on_change=self._on_distance_change
        )

        #: Scope of each in-flight reservation: block -> (node, scope).
        self._reserved_scope: Dict[int, Tuple[int, str]] = {}
        #: Each committed (fetch-initiated) block:
        #: block -> (issuing node, scope, commit time).
        self._issuer: Dict[int, Tuple[int, str, float]] = {}
        #: Unconsumed local-scope prefetches outstanding, per node.
        self._outstanding_local = [0] * n_nodes
        #: Unconsumed global-scope prefetches outstanding.
        self._outstanding_global = 0
        #: Commit order per scope (node index, or "global"), for the
        #: write-off scan: (commit time, block), oldest first.
        self._commit_order: Dict[Union[int, str], Deque[Tuple[float, int]]] = {
            key: deque() for key in [*range(n_nodes), "global"]
        }
        #: Idle periods of each node already folded into the feedback.
        self._idle_seen = [0] * n_nodes
        #: Latched while the dirty population sits above the background
        #: threshold, so one excursion books one shrink, not one per write.
        self._dirty_over = False
        #: Set in :meth:`bind` when fault-aware and the run is faulted.
        self._resilience: Optional["ResilienceLayer"] = None
        #: Bumped by every change to state :meth:`peek` reads.
        self._epoch = 0
        #: Per node, the key under which its last full scan found nothing:
        #: (epoch, cache departures, local write-off head, global write-off
        #: head, next breaker reopen time), or None.  See :meth:`peek`.
        self._none_memo: List[Optional[Tuple[int, int, float, float, float]]] = [
            None
        ] * n_nodes

        # Distance trajectory: (sim time, mean integer distance) points.
        self._trajectory: List[Tuple[float, float]] = []
        self._traj_stride = 1
        self._change_count = 0
        self._dist_min = float(cfg.feedback.initial_distance)
        self._dist_max = float(cfg.feedback.initial_distance)

    # -- wiring ------------------------------------------------------------------

    def bind(self, cache: "BlockCache") -> None:
        super().bind(cache)
        env = cache.env
        env.subscribe("fs.unused_prefetch", self._on_unused_prefetch)
        env.subscribe("fs.write_pressure", self._on_write_pressure)
        if self.config.fault_aware and cache.resilience is not None:
            self._resilience = cache.resilience
            env.subscribe("faults.signal", self._on_resilience_signal)
        self._trajectory.append((self._now(), self._mean_distance()))

    def _now(self) -> float:
        return self.cache.env.now if self.cache is not None else 0.0

    def _mean_distance(self) -> float:
        total = sum(c.distance for c in self._controllers)
        total += self._global_controller.distance
        return total / (self.n_nodes + 1)

    def _on_distance_change(self) -> None:
        self._change_count += 1
        mean = self._mean_distance()
        self._dist_min = min(self._dist_min, mean)
        self._dist_max = max(self._dist_max, mean)
        if (self._change_count - 1) % self._traj_stride == 0:
            self._trajectory.append((self._now(), mean))
            if len(self._trajectory) >= _TRAJECTORY_CAP:
                del self._trajectory[1::2]
                self._traj_stride *= 2

    # -- feedback inputs ---------------------------------------------------------

    def observe(self, node_id: int, block: int) -> None:
        """One demand access (the cache's ``fs.access`` probe point)."""
        self._epoch += 1
        ctrl = self._controllers[node_id]

        # Consumer demand-stall: the block is absent, so the consumer is
        # about to wait out a disk fetch — prefetching ran behind.
        if not self._in_cache(block):
            ctrl.grow("demand_stall")

        # A block this policy prefetched reached its consumer.
        entry = self._issuer.pop(block, None)
        if entry is not None:
            issuer, scope, _ = entry
            if scope == "global":
                self._outstanding_global -= 1
                self._global_controller.grow("prefetch_hit")
            else:
                self._outstanding_local[issuer] -= 1
                self._controllers[issuer].grow("prefetch_hit")

        # Daemon CPU theft: fold the node's newly completed idle periods
        # (the obs attribution substrate) into the feedback.
        if self.cache is not None:
            periods = self.cache.machine.nodes[node_id].idle_periods
            index = self._idle_seen[node_id]
            tolerance = self.config.feedback.overrun_tolerance
            while index < len(periods):
                if periods[index].overrun > tolerance:
                    ctrl.shrink("daemon_theft")
                index += 1
            self._idle_seen[node_id] = index

        # Classifier updates.
        self._classifiers[node_id].observe(block)
        self._global.observe(block)
        self._global_run.observe(block)

    def _on_unused_prefetch(
        self, node_id: Optional[int], block: int, reason: str = "evicted"
    ) -> None:
        """A prefetched block left the cache before first use (the
        cache's ``fs.unused_prefetch`` probe point).

        ``reason == "fetch_failed"`` is a fault write-off — the disk
        died mid-fetch and the block never arrived.  The degree slot is
        freed either way (no phantom commitments), but the shrink is
        booked as ``write_off`` rather than ``unused_eviction``: the
        prediction was not wasteful, the disk was unfetchable.
        """
        shrink = "write_off" if reason == "fetch_failed" else "unused_eviction"
        self._epoch += 1
        # The block never reached a consumer: allow re-prefetching it.
        self._claimed.discard(block)
        entry = self._issuer.pop(block, None)
        if entry is not None:
            issuer, scope, _ = entry
            if scope == "global":
                self._outstanding_global -= 1
                self._global_controller.shrink(shrink)
            else:
                self._outstanding_local[issuer] -= 1
                self._controllers[issuer].shrink(shrink)
        elif node_id is not None and 0 <= node_id < self.n_nodes:
            self._controllers[node_id].shrink(shrink)

    def _on_write_pressure(
        self, node_id: int, dirty_count: int, background_limit: int
    ) -> None:
        """Dirty-pressure AIMD input (the cache's ``fs.write_pressure``
        probe point, read-write runs only).  Dirty
        buffers are unevictable until flushed, so a dirty population past
        the background threshold squeezes the very buffers prefetching
        fills — and the flusher daemon is about to start competing for
        the idle windows the prefetch daemon lives on.  The global scope
        shrinks once per excursion above the threshold; the latch re-arms
        when a later write observes the population back at or below it.
        Pure arithmetic: passive-safe."""
        if dirty_count > background_limit:
            if not self._dirty_over:
                self._dirty_over = True
                self._epoch += 1
                self._global_controller.shrink("dirty_pressure")
        else:
            self._dirty_over = False

    def _on_resilience_signal(self, kind: str, disk_id: int) -> None:
        """The ``faults.signal`` probe point (fault-aware runs only): breaker
        trips, fail-slow detections, and retries shrink the global scope
        — blocks stripe across every disk, so a sick disk is pressure on
        the shared stream, not on any one node's.  Retry shrinks are
        rate-limited to one per failure burst (the first retry of a
        consecutive-failure run), and suppressed entirely once the disk
        is already blacklisted or flagged slow — the policy is steering
        around it, so further global shrinking would double-bill the
        same incident.  Pure arithmetic over pure queries: passive-safe.

        Every kind bumps the epoch, including the ``breaker-*``
        transitions that shrink nothing: they change what
        ``peek_prefetch`` answers.
        """
        self._epoch += 1
        reason = _FAULT_SHRINKS.get(kind)
        if reason is None:
            return
        if kind == "retry":
            resilience = self._resilience
            if resilience is None:
                raise InvariantViolation(
                    "resilience signal delivered without a layer bound"
                )
            if not resilience.peek_prefetch(disk_id):
                return
            if resilience.is_slow(disk_id):
                return
            if resilience.consecutive_failures(disk_id) > 1:
                return
        self._global_controller.shrink(reason)

    # -- the daemon-facing contract ----------------------------------------------

    def _write_off_stale(self, key: Union[int, str]) -> None:
        """Reclaim in-flight slots whose prefetch nobody consumed.

        The cache protects prefetched-but-unused blocks from eviction, so
        a mispredicted block emits no signal at all: it just sits there
        holding one of its scope's ``degree`` slots.  Anything older than
        ``write_off_ms`` is declared lost — the slot is freed and the
        issuing scope shrinks.  (The block stays claimed and cached; a
        late consumer still hits it, the policy just stops crediting it.)
        """
        order = self._commit_order[key]
        now = self._now()
        while order:
            committed_at, block = order[0]
            entry = self._issuer.get(block)
            if entry is None or entry[2] != committed_at:
                order.popleft()  # already consumed/evicted (stale entry)
                continue
            if now - committed_at < self.config.write_off_ms:
                break
            order.popleft()
            del self._issuer[block]
            self._epoch += 1
            if key == "global":
                self._outstanding_global -= 1
                self._global_controller.shrink("write_off")
            else:
                self._outstanding_local[key] -= 1
                self._controllers[key].shrink("write_off")

    def _disk_of(self, block: int) -> int:
        cache = self.cache
        if cache is None:
            raise InvariantViolation("policy used before bind()")
        return cache.machine.disk_for_block(cache.file.disk_for(block)).disk_id

    def _pick(
        self, candidates, node_id: int, scope: str
    ) -> Optional[Tuple[int, int]]:
        """Reserve the first usable candidate, steering around
        blacklisted disks on fault-aware runs: candidates whose breaker
        refuses prefetch (pure ``peek_allow`` — no transition from this
        passive context) are skipped, rolling the degree slot forward to
        blocks on healthy disks.  Fail-slow disks are *not* skipped —
        their blocks must be read eventually, and starting a long fetch
        early is worth more, not less; the detector damps pressure
        through the ``fail_slow`` shrink instead.  Without a resilience
        layer this is exactly first-usable."""
        for candidate in candidates:
            if not self._usable(candidate):
                continue
            if self._resilience is not None and not (
                self._resilience.peek_prefetch(self._disk_of(candidate))
            ):
                continue
            self._reserved_scope[candidate] = (node_id, scope)
            return self._reserve(candidate)
        return None

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        """Next candidate for ``node_id``, or None.

        A daemon polls on every idle moment, so most peeks repeat the
        node's last empty scan.  That None is memoized and returned
        while all of these hold:

        * the epoch is unchanged (every method that mutates state the
          scan reads bumps it);
        * the cache's departure count is unchanged (an insert only
          removes candidates, so it cannot turn None into one);
        * each write-off head is still younger than ``write_off_ms``,
          tested with :meth:`_write_off_stale`'s own expression;
        * no OPEN breaker's cooldown has ended since.

        A memo that fails never holds again: the counters only grow and
        time only advances.
        """
        cache = self.cache
        if cache is None:
            raise InvariantViolation("policy used before bind()")
        memo = self._none_memo[node_id]
        if memo is not None:
            epoch, departures, local_head, global_head, reopen = memo
            now = cache.env.now
            write_off_ms = self.config.write_off_ms
            if (
                epoch == self._epoch
                and departures == cache.departures
                and now < reopen
                and now - local_head < write_off_ms
                and now - global_head < write_off_ms
            ):
                return None
        chosen = self._scan(node_id)
        if chosen is None:
            local = self._commit_order[node_id]
            glob = self._commit_order["global"]
            self._none_memo[node_id] = (
                self._epoch,
                cache.departures,
                local[0][0] if local else math.inf,
                glob[0][0] if glob else math.inf,
                self._resilience.next_reopen()
                if self._resilience is not None
                else math.inf,
            )
        return chosen

    def _scan(self, node_id: int) -> Optional[Tuple[int, int]]:
        # Local scope first: the node's own stream is the strongest
        # signal when it is classified.
        ctrl = self._controllers[node_id]
        self._write_off_stale(node_id)
        if self._outstanding_local[node_id] < ctrl.degree:
            predictions = self._classifiers[node_id].predict(
                ctrl.distance, self.file_blocks
            )
            chosen = self._pick(predictions, node_id, "local")
            if chosen is not None:
                return chosen

        # Global scope: lead the merged stream, regardless of whose
        # daemon is idle — interprocess prefetching, as in the paper's
        # oracles.  Self-scheduled patterns consume the shared string
        # nearly in order, so the merged run detector sees gfp/grp's
        # portion interiors; the density frontier backs it up on fully
        # dense streams (gw, and lw's shared region).
        gctrl = self._global_controller
        self._write_off_stale("global")
        if self._outstanding_global < gctrl.degree:
            candidates = list(
                self._global_run.predict(gctrl.distance, self.file_blocks)
            )
            candidates.extend(self._global.predict(gctrl.distance))
            return self._pick(candidates, node_id, "global")
        return None

    def commit(self, node_id: int, ref_index: int, block: int) -> None:
        super().commit(node_id, ref_index, block)
        self._epoch += 1
        issuer, scope = self._reserved_scope.pop(block, (node_id, "local"))
        now = self._now()
        self._issuer[block] = (issuer, scope, now)
        if scope == "global":
            self._outstanding_global += 1
            self._commit_order["global"].append((now, block))
        else:
            self._outstanding_local[issuer] += 1
            self._commit_order[issuer].append((now, block))

    def mark_covered(self, node_id: int, ref_index: int, block: int) -> None:
        super().mark_covered(node_id, ref_index, block)
        self._epoch += 1
        self._reserved_scope.pop(block, None)

    def abort(self, node_id: int, ref_index: int, block: int) -> None:
        super().abort(node_id, ref_index, block)
        self._epoch += 1
        entry = self._reserved_scope.pop(block, None)
        # Budget/buffer pressure: back off the scope that overreached.
        if entry is not None and entry[1] == "global":
            self._global_controller.shrink("budget_pressure")
        else:
            self._controllers[node_id].shrink("budget_pressure")

    def suspend(self, node_id: int, ref_index: int, block: int) -> None:
        """Breaker refusal at the issuing gate.  Fault-aware: release
        the reservation without the ``budget_pressure`` shrink — the
        breaker-open signal already charged the fault, and double-billing
        it as cache backpressure is what makes the fault-oblivious
        policy strangle itself.  Fault-unaware: original behaviour."""
        if self._resilience is None:
            self.abort(node_id, ref_index, block)
            return
        _ClaimingPolicy.abort(self, node_id, ref_index, block)
        self._epoch += 1
        self._reserved_scope.pop(block, None)

    # -- reporting ---------------------------------------------------------------

    def distance_trajectory(self) -> List[Tuple[float, float]]:
        """(sim time, mean distance) samples, oldest first."""
        return list(self._trajectory)

    def distance_summary(self) -> Dict[str, float]:
        """Initial/final/min/max mean distance and the change count."""
        return {
            "initial": float(self.config.feedback.initial_distance),
            "final": self._mean_distance(),
            "min": self._dist_min,
            "max": self._dist_max,
            "changes": float(self._change_count),
        }

    def signal_counts(self) -> Dict[str, int]:
        """Feedback signals summed across every controller."""
        out: Dict[str, int] = {}
        for controller in [*self._controllers, self._global_controller]:
            for reason, count in controller.signals.items():
                out[reason] = out.get(reason, 0) + count
        return out
