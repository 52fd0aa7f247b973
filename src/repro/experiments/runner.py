"""Run one experiment end to end.

``run_experiment`` wires the whole stack together — machine, file, cache,
policies, daemons, applications — runs the simulation to completion, and
distils a :class:`RunResult` holding every measure the paper reports.  It
runs ``config``'s own pattern, or a pre-built one: a hybrid pattern, or a
trace's (:meth:`~repro.fs.trace.ReplayTrace.to_pattern`), which is how a
trace replay runs.

``run_pair`` runs the prefetch-on configuration and its paired no-prefetch
baseline with the same seed (the paper evaluates prefetching by such
pairs), returning both results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from ..faults.events import FaultEventLog
from ..faults.layer import ResilienceLayer
from ..fs.cache import BlockCache
from ..fs.file import File
from ..fs.fileserver import FileServer
from ..fs.layout import HashedLayout, RoundRobinLayout, StripedLayout
from ..fs.trace import ReplayTrace
from ..machine.machine import Machine
from ..machine.node import IdleKind
from ..metrics.collector import RunMetrics
from ..obs.attribution import attribute_run, attribution_digest
from ..prefetch.daemon import prefetch_daemon, writeback_daemon
from ..prefetch.factory import build_policy
from ..prefetch.policy import PrefetchPolicy
from ..sim.core import Environment
from ..sim.rng import RandomStreams
from ..workload.application import application
from ..workload.patterns import AccessPattern, make_pattern
from ..workload.progress import ProgressTracker
from ..workload.synchronization import make_sync
from .config import ExperimentConfig

__all__ = [
    "RunInstrumentation",
    "RunResult",
    "materialize_pattern",
    "run_experiment",
    "run_pair",
]


class RunInstrumentation(Protocol):
    """Hooks for auditing a run without altering its behaviour.

    Implementations (see :class:`repro.analysis.audit.Auditor`) attach
    read-only step observers, probe subscriptions
    (:meth:`~repro.sim.core.Environment.subscribe`) and periodic
    invariant sweeps.  Hooks are invoked at two points so observers can
    cover the *entire* event stream, including process-initialization
    events scheduled while the machine is wired up.
    """

    def on_environment(self, env: Environment) -> None:
        """Called immediately after the bare environment is created."""

    def on_wired(
        self, env: Environment, machine: Machine, cache: BlockCache
    ) -> None:
        """Called once machine, cache, and policies are constructed."""


@dataclass
class RunResult:
    """Scalar summary of one run (plus the raw metrics for deep dives)."""

    config: ExperimentConfig

    # The paper's primary and secondary measures.
    total_time: float
    avg_read_time: float
    median_read_time: float
    hit_ratio: float
    miss_ratio: float
    ready_hit_fraction: float
    unready_hit_fraction: float
    #: Mean wait over unready hits only (our diagnostic measure).
    avg_hit_wait: float
    #: Mean hit-wait over all hits, ready hits counting as zero (the
    #: paper's Section V-A definition, used by Figs. 6 and 13).
    avg_hit_wait_all: float
    disk_response_mean: float
    disk_utilization: float
    sync_wait_mean: float
    sync_wait_count: int
    overrun_mean: float
    overrun_total: float

    # Fetch accounting.
    blocks_demand_fetched: int
    blocks_prefetched: int
    total_accesses: int

    # Prefetch action accounting.
    prefetch_action_mean: float
    failed_action_count: int
    prefetch_outcomes: Dict[str, int]

    # Benefit distribution (Fig. 1 pathology).
    per_node_read_means: List[float]
    benefit_imbalance: float

    # Idle accounting per kind: (necessary mean, actual mean, count).
    idle_by_kind: Dict[str, Tuple[float, float, int]]

    # Demand-read latency tail (always populated; chiefly interesting
    # under faults).
    read_p50: float = 0.0
    read_p99: float = 0.0

    # Unused-prefetch accounting: wasted prefetches, split into blocks
    # evicted/invalidated before first use mid-run and blocks still
    # unread when the run ended.
    prefetch_unused_evicted: int = 0
    prefetch_unused_at_end: int = 0

    #: Downsampled (sim time, mean distance) trajectory of the adaptive
    #: policy's feedback-controlled readahead distance (empty for every
    #: other policy).
    adaptive_distance_trajectory: List[List[float]] = field(
        default_factory=list
    )
    #: Initial/final/min/max mean distance and change count (empty for
    #: non-adaptive runs).
    adaptive_distance_summary: Dict[str, float] = field(default_factory=dict)

    #: Per-node wall-time decomposition into compute / demand-I/O stall /
    #: sync wait / daemon theft (see :mod:`repro.obs.attribution`).
    #: Computed for every run, so cached results can answer
    #: ``rapid-transit obs attribute`` without re-simulation.
    node_attribution: List[Dict[str, float]] = field(default_factory=list)
    #: Provenance digest of :attr:`node_attribution` (the obs artifact
    #: digest carried by the run cache's payload).
    obs_digest: str = ""

    #: Events scheduled by the run's environment (the benchmark
    #: harness's throughput denominator).
    n_events: int = 0

    # Write path (all zero / empty on read-only runs; docs/writes.md).
    total_writes: int = 0
    write_avg: float = 0.0
    write_p50: float = 0.0
    write_p99: float = 0.0
    #: High-water mark of the dirty-block count.
    dirty_peak: int = 0
    #: Writebacks started, over all reasons.
    flush_count: int = 0
    flushes_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Writebacks that exhausted their retries (block stayed dirty).
    flush_failures: int = 0
    #: Total / count of foreground dirty-ratio stalls.
    throttle_stall_time: float = 0.0
    throttle_stall_count: int = 0
    #: Flusher-daemon action outcomes (the writeback twin of
    #: ``prefetch_outcomes``).
    flush_outcomes: Dict[str, int] = field(default_factory=dict)

    # Fault injection (all zero / empty on healthy runs).
    disk_errors: int = 0
    disk_retries: int = 0
    disk_timeouts: int = 0
    breaker_opens: int = 0
    #: Fail-slow windows opened by the online latency detector.
    failslow_detections: int = 0
    #: In-flight prefetches killed by a failed fetch (written off).
    prefetch_write_offs: int = 0
    #: Total time (ms) during which at least one disk was degraded
    #: (faulted window or open breaker).
    time_degraded: float = 0.0
    #: Digest of the resilience layer's ordered fault-event log — equal
    #: digests mean identical fault/retry/breaker histories.
    fault_digest: str = ""
    errors_by_disk: Dict[int, int] = field(default_factory=dict)
    retries_by_disk: Dict[int, int] = field(default_factory=dict)
    timeouts_by_disk: Dict[int, int] = field(default_factory=dict)

    # Raw handles (not serialized in reports).
    metrics: RunMetrics = field(repr=False, default=None)  # type: ignore[assignment]
    #: The run's recorded trace, when ``config.record_trace`` is set.
    trace: Optional[ReplayTrace] = field(repr=False, default=None)
    fault_events: Optional[FaultEventLog] = field(repr=False, default=None)

    @property
    def label(self) -> str:
        return self.config.label

    @property
    def unused_prefetch_rate(self) -> float:
        """Fraction of prefetched blocks that never served a demand hit
        (evicted/invalidated mid-run, or still unread at run end)."""
        if self.blocks_prefetched == 0:
            return 0.0
        wasted = self.prefetch_unused_evicted + self.prefetch_unused_at_end
        return wasted / self.blocks_prefetched


def _make_end_recorder(slots: List[float], index: int, env: Environment):
    """A passive termination callback noting when one app finished."""

    def record(_event) -> None:
        slots[index] = env.now

    return record


#: Maximum distance-trajectory points carried on a RunResult (the full
#: trajectory lives on the policy; results keep a downsampled sketch so
#: the slim wire form stays small).
_TRAJECTORY_POINTS = 64


def _downsample(points, limit: int = _TRAJECTORY_POINTS) -> List[List[float]]:
    """At most ``limit`` evenly-spaced (time, value) points, as lists."""
    if len(points) <= limit:
        return [[t, v] for t, v in points]
    step = (len(points) - 1) / (limit - 1)
    return [
        [points[round(i * step)][0], points[round(i * step)][1]]
        for i in range(limit)
    ]


def materialize_pattern(config: ExperimentConfig, rng: RandomStreams):
    """Build ``config``'s access pattern from its workload parameters."""
    return make_pattern(
        config.pattern,
        n_nodes=config.n_nodes,
        file_blocks=config.file_blocks,
        total_reads=config.total_reads,
        rng=rng,
        portion_length=config.portion_length,
        portion_stride=config.portion_stride,
    )


def run_experiment(
    config: ExperimentConfig,
    instrument: Optional[RunInstrumentation] = None,
    *,
    pattern: Optional[AccessPattern] = None,
) -> RunResult:
    """Simulate one configuration to completion and summarize it.

    ``pattern`` replaces the one ``config`` describes: the extension
    point for workloads outside the paper's (hybrid patterns, custom
    strings, a trace's :meth:`~repro.fs.trace.ReplayTrace.to_pattern`).
    ``config.pattern`` then only labels the run; everything else in
    ``config`` still applies.
    """
    rng = RandomStreams(config.seed)
    if pattern is None:
        pattern = materialize_pattern(config, rng)
    env = Environment()
    if instrument is not None:
        instrument.on_environment(env)
    recorder = None
    if config.record_trace:
        # Imported on use: repro.traces imports this module.
        from ..traces.recorder import ReplayRecorder

        recorder = ReplayRecorder.for_run(config, pattern)
        recorder.attach(env)

    machine = Machine(env, config.machine_config)
    if config.layout == "round-robin":
        layout = RoundRobinLayout(config.n_disks)
    elif config.layout == "striped":
        layout = StripedLayout(config.n_disks, config.stripe_width)
    else:
        layout = HashedLayout(config.n_disks)
    file = File("data", config.file_blocks, layout)
    tracker = ProgressTracker(pattern, config.n_nodes)
    metrics = RunMetrics(env, config.n_nodes)
    cache = BlockCache(env, machine, file, config.cache_config)
    server = FileServer(cache)
    resilience: Optional[ResilienceLayer] = None
    if config.faults is not None:
        resilience = ResilienceLayer(env, config.faults, machine, rng)
        cache.resilience = resilience
    sync = make_sync(
        config.sync_style,
        env,
        config.n_nodes,
        pattern,
        per_proc_k=config.per_proc_k,
        total_k=config.total_k,
    )

    policy: Optional[PrefetchPolicy] = None
    if config.prefetch:
        policy = build_policy(config, pattern, tracker)
        policy.bind(cache)
        for node in machine.nodes:
            prefetch_daemon(node, cache, policy, config.min_prefetch_time)

    # Write path: armed only when the pattern actually writes, so
    # read-only runs are event-for-event identical to the pre-write
    # simulator (the proof-of-preservation hinge; docs/writes.md).
    if pattern.has_writes:
        cache.configure_writeback(config.writeback_config)
        if config.write_mode == "write-back":
            for node in machine.nodes:
                writeback_daemon(node, cache)

    if instrument is not None:
        instrument.on_wired(env, machine, cache)

    apps = [
        env.process(
            application(
                node, server, tracker, sync, pattern, rng, config.compute_mean
            ),
            name=f"app-{node.node_id}",
        )
        for node in machine.nodes
    ]
    # Record each application's finish time with a passive callback on
    # its termination event: callbacks never reschedule anything, so the
    # event stream is untouched (the attribution's per-node wall times).
    app_end_times = [0.0] * len(apps)
    for index, proc in enumerate(apps):
        proc.callbacks.append(
            _make_end_recorder(app_end_times, index, env)
        )

    metrics.begin_run()
    env.run(until=env.all_of(apps))
    metrics.end_run()
    # A held result keeps ``env`` alive (through ``metrics``); release the
    # subscribers and step observers so it does not also keep the whole
    # model graph alive.
    env.unsubscribe_all()

    # Post-run consistency.
    if not tracker.all_done():
        raise RuntimeError(
            f"run ended with {tracker.total_consumed}/{tracker.total_refs} "
            "references consumed"
        )
    cache.check_invariants()
    metrics.sync_waits.extend(sync.wait_times)

    # Idle accounting across nodes.
    idle_by_kind: Dict[str, Tuple[float, float, int]] = {}
    for kind in IdleKind:
        necessary = []
        actual = []
        for node in machine.nodes:
            for period in node.idle_periods:
                if period.kind is kind:
                    necessary.append(period.necessary)
                    actual.append(period.actual)
        count = len(necessary)
        idle_by_kind[kind.value] = (
            sum(necessary) / count if count else 0.0,
            sum(actual) / count if count else 0.0,
            count,
        )

    overruns = [
        period.overrun
        for node in machine.nodes
        for period in node.idle_periods
    ]
    overrun_total = sum(overruns)
    overrun_mean = overrun_total / len(overruns) if overruns else 0.0

    node_attribution = attribute_run(
        machine.nodes,
        app_end_times,
        start_time=metrics.start_time if metrics.start_time else 0.0,
    )

    # Distance trajectory (adaptive policy only; duck-typed so custom
    # feedback policies registered with the factory report it too).
    trajectory_fn = getattr(policy, "distance_trajectory", None)
    summary_fn = getattr(policy, "distance_summary", None)
    distance_trajectory = (
        _downsample(trajectory_fn()) if trajectory_fn is not None else []
    )
    distance_summary = summary_fn() if summary_fn is not None else {}

    return RunResult(
        config=config,
        total_time=metrics.total_time,
        avg_read_time=metrics.avg_read_time,
        median_read_time=metrics.read_times.median
        if metrics.read_times.count
        else 0.0,
        hit_ratio=metrics.hit_ratio,
        miss_ratio=metrics.miss_ratio,
        ready_hit_fraction=metrics.ready_hit_fraction,
        unready_hit_fraction=metrics.unready_hit_fraction,
        avg_hit_wait=metrics.avg_hit_wait,
        avg_hit_wait_all=metrics.avg_hit_wait_all_hits,
        disk_response_mean=machine.aggregate_disk_response(),
        disk_utilization=machine.aggregate_disk_utilization(),
        sync_wait_mean=metrics.sync_waits.mean,
        sync_wait_count=metrics.sync_waits.count,
        overrun_mean=overrun_mean,
        overrun_total=overrun_total,
        blocks_demand_fetched=metrics.misses,
        blocks_prefetched=metrics.blocks_prefetched,
        total_accesses=metrics.total_accesses,
        prefetch_action_mean=metrics.prefetch_action_mean,
        failed_action_count=metrics.failed_action_count,
        prefetch_outcomes=dict(metrics.prefetch_outcomes),
        per_node_read_means=metrics.per_node_mean_read_times(),
        benefit_imbalance=metrics.benefit_imbalance(),
        idle_by_kind=idle_by_kind,
        read_p50=metrics.read_times.percentile(50.0)
        if metrics.read_times.count
        else 0.0,
        read_p99=metrics.read_times.percentile(99.0)
        if metrics.read_times.count
        else 0.0,
        prefetch_unused_evicted=metrics.prefetch_unused_evictions,
        prefetch_unused_at_end=cache.unused_prefetched,
        total_writes=metrics.total_writes,
        write_avg=metrics.avg_write_time,
        write_p50=metrics.write_times.percentile(50.0)
        if metrics.write_times.count
        else 0.0,
        write_p99=metrics.write_times.percentile(99.0)
        if metrics.write_times.count
        else 0.0,
        dirty_peak=cache.dirty_peak,
        flush_count=sum(cache.flushes_by_reason.values()),
        flushes_by_reason=dict(cache.flushes_by_reason),
        flush_failures=cache.flush_failures,
        throttle_stall_time=metrics.throttle_stall_time,
        throttle_stall_count=metrics.throttle_stalls.count,
        flush_outcomes=dict(metrics.flush_outcomes),
        adaptive_distance_trajectory=distance_trajectory,
        adaptive_distance_summary=distance_summary,
        node_attribution=node_attribution,
        obs_digest=attribution_digest(node_attribution),
        n_events=env.event_count,
        disk_errors=metrics.total_disk_errors,
        disk_retries=metrics.total_retries,
        disk_timeouts=metrics.total_timeouts,
        breaker_opens=metrics.breaker_opens,
        failslow_detections=metrics.failslow_detections,
        prefetch_write_offs=metrics.prefetch_write_offs,
        time_degraded=resilience.time_in_degraded(metrics.end_time)
        if resilience is not None and metrics.end_time is not None
        else 0.0,
        fault_digest=resilience.log.hexdigest()
        if resilience is not None
        else "",
        errors_by_disk=dict(metrics.disk_errors),
        retries_by_disk=dict(metrics.disk_retries),
        timeouts_by_disk=dict(metrics.disk_timeouts),
        metrics=metrics,
        trace=recorder.finish() if recorder is not None else None,
        fault_events=resilience.log if resilience is not None else None,
    )


def run_pair(
    config: ExperimentConfig,
    *,
    jobs: int = 1,
    cache=None,
) -> Tuple[RunResult, RunResult]:
    """Run ``config`` with prefetching and its paired baseline without.

    Returns ``(prefetch_result, baseline_result)``.  Both runs share the
    seed, so workload geometry and compute delays are identical.

    ``jobs`` > 1 runs the two sides in separate worker processes and
    ``cache`` memoizes them (see :mod:`repro.perf.executor`); the
    defaults run both in process, in order, keeping their raw handles.
    """
    # Imported on use: repro.perf.executor imports this module.
    from ..perf.executor import execute_pairs

    return execute_pairs([config], jobs=jobs, cache=cache)[0]
