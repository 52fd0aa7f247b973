"""Drive a recorded or synthesized trace back through the full simulator.

Replay is *closed-loop*: each node's user process walks its trace
timeline — read the recorded block, hold the CPU for the recorded compute
gap, settle the recorded barrier visits — while everything else (cache
lookups, hit waits, disk queueing, metadata-lock contention, prefetch
daemons stealing idle cycles, barrier wait times) re-emerges from the
simulation.  Replaying a trace recorded from a prefetch-off run with
prefetching off reproduces that run's block sequence, hit ratio, and
timing exactly; turning prefetching on (any policy) evaluates it against
the traced workload.

Pieces:

* :func:`replay_application` — sibling of
  :func:`repro.workload.application.application`, fed by a timeline
  instead of a pattern + RNG;
* :class:`ReplaySync` — a :class:`~repro.workload.synchronization.\
SyncCoordinator` whose visit schedule is the recorded one;
* :func:`run_replay` / :func:`replay_pair` — trace-driven analogues of
  :func:`~repro.experiments.runner.run_experiment` / ``run_pair``;
* :func:`replay_with_audit` / :func:`replay_twice_and_diff` — the
  determinism contract extended to replayed runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..analysis.audit import (
    DEFAULT_SWEEP_INTERVAL,
    AuditReport,
    Auditor,
    DeterminismReport,
)
from ..experiments.config import ExperimentConfig
from ..experiments.runner import (
    RunInstrumentation,
    RunResult,
    run_materialized,
)
from ..fs.trace import ReplayRecord, ReplayTrace, TraceFormatError
from ..machine.node import IdleKind, Node
from ..sim.rng import RandomStreams
from ..workload.synchronization import SyncCoordinator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fs.fileserver import FileServer
    from ..workload.progress import ProgressTracker

__all__ = [
    "ReplaySync",
    "replay_application",
    "replay_config",
    "replay_pair",
    "replay_twice_and_diff",
    "replay_with_audit",
    "run_replay",
]


class ReplaySync(SyncCoordinator):
    """Barrier visits on the recorded schedule.

    The *schedule* (which read is followed by how many visits) comes from
    the trace; the *wait times* stay emergent — the barrier is live, its
    party count shrinks as nodes finish, and a node still blocks until
    the generation releases.
    """

    name = "replay"

    def __init__(
        self, env, n_nodes: int, joins_by_node: List[List[int]]
    ) -> None:
        super().__init__(env, n_nodes)
        if len(joins_by_node) != n_nodes:
            raise TraceFormatError(
                f"join schedule covers {len(joins_by_node)} nodes, "
                f"expected {n_nodes}"
            )
        self._joins = joins_by_node
        self._due = [0] * n_nodes

    def after_read(
        self, node_id: int, ref_index: int, portion_id: int
    ) -> None:
        self._due[node_id] += self._joins[node_id][ref_index]

    def _epochs_due(self, node_id: int) -> int:
        return self._due[node_id]


def replay_application(
    node: Node,
    server: "FileServer",
    tracker: "ProgressTracker",
    sync: SyncCoordinator,
    timeline: List[ReplayRecord],
):
    """Generator for one node's trace-driven user process.

    Mirrors :func:`repro.workload.application.application` step for step —
    access (read or, for version-2 write records, whole-block write),
    compute, synchronize — but the block order, ops, compute gaps, and
    sync visits come from ``timeline`` rather than a pattern and RNG, so a
    replayed run schedules the same event sequence the recorded run did.
    It emits the same ``app.claim``, ``app.compute`` and
    ``app.sync_joins`` probe points, so a replay records like a live run.
    """
    env = node.env
    node_id = node.node_id
    on_claim = env.probe("app.claim")
    on_compute = env.probe("app.compute")
    on_sync_joins = env.probe("app.sync_joins")

    cpu = yield from node.acquire_cpu()
    while True:
        nxt = tracker.next_ref(node_id)
        if nxt is None:
            break
        idx, block = nxt
        rec = timeline[idx]
        if rec.block != block:
            raise TraceFormatError(
                f"replay timeline for node {node_id} diverged at ref {idx}: "
                f"pattern says block {block}, trace says {rec.block}"
            )

        if rec.op == "w":
            cpu = yield from server.write_block(node, cpu, block, idx)
        else:
            cpu = yield from server.read_block(node, cpu, block, idx)
        tracker.mark_consumed(node_id, idx)
        for fn in on_claim:
            fn(node_id, idx, block, rec.portion, rec.op)

        for fn in on_compute:
            fn(node_id, rec.compute)
        if rec.compute > 0.0:
            yield env.timeout(rec.compute)

        sync.after_read(node_id, idx, rec.portion)
        joins = 0
        while sync.owes(node_id):
            event = sync.join(node_id)
            joins += 1
            _, cpu = yield from node.idle_wait(cpu, event, IdleKind.SYNC)
        for fn in on_sync_joins:
            fn(node_id, joins)

    sync.depart(node_id)
    node.release_cpu(cpu)


def replay_config(
    trace: ReplayTrace, base: Optional[ExperimentConfig] = None
) -> ExperimentConfig:
    """An :class:`ExperimentConfig` describing a replay of ``trace``.

    Machine geometry, cache sizing, and prefetch setup come from ``base``
    (default: paper defaults); the workload cell is pinned to the trace.
    """
    base = base if base is not None else ExperimentConfig()
    return base.with_overrides(
        pattern=f"trace:{trace.meta.workload}",
        sync_style="replay",
        n_nodes=trace.meta.n_nodes,
        file_blocks=trace.meta.file_blocks,
        total_reads=len(trace),
        compute_mean=trace.meta.compute_mean,
        seed=trace.meta.seed if trace.meta.seed is not None else base.seed,
    )


def run_replay(
    trace: ReplayTrace,
    config: Optional[ExperimentConfig] = None,
    instrument: Optional[RunInstrumentation] = None,
) -> RunResult:
    """Replay ``trace`` through the full simulator.

    ``config`` (a replay config from :func:`replay_config`, or any base
    config whose workload fields will be overridden) controls the machine,
    cache, and prefetch setup — so one trace supports on/off prefetch
    pairs, policy comparisons, lead sweeps, and machine-geometry studies.
    """
    trace.validate()
    if config is None or not config.pattern.startswith("trace:"):
        config = replay_config(trace, config)
    if config.n_nodes != trace.meta.n_nodes:
        raise TraceFormatError(
            f"config has {config.n_nodes} nodes but the trace was taken on "
            f"{trace.meta.n_nodes}"
        )
    timelines = trace.timelines()
    joins = [[r.sync_joins for r in tl] for tl in timelines]
    pattern = trace.to_pattern()

    def sync_factory(env, _pattern):
        return ReplaySync(env, config.n_nodes, joins)

    def app_factory(node, server, tracker, sync, _pattern, _rng, _config):
        return replay_application(
            node, server, tracker, sync, timelines[node.node_id]
        )

    return run_materialized(
        pattern,
        config,
        RandomStreams(config.seed),
        instrument=instrument,
        sync_factory=sync_factory,
        app_factory=app_factory,
    )


def replay_pair(
    trace: ReplayTrace, config: Optional[ExperimentConfig] = None
) -> Tuple[RunResult, RunResult]:
    """Replay ``trace`` with prefetching and its paired baseline without.

    Returns ``(prefetch_result, baseline_result)`` — the trace-driven
    analogue of :func:`~repro.experiments.runner.run_pair`.
    """
    config = replay_config(trace, config)
    with_prefetch = (
        config if config.prefetch else config.with_overrides(prefetch=True)
    )
    baseline = with_prefetch.paired_baseline()
    return run_replay(trace, with_prefetch), run_replay(trace, baseline)


def replay_with_audit(
    trace: ReplayTrace,
    config: Optional[ExperimentConfig] = None,
    sweep_interval: Optional[float] = DEFAULT_SWEEP_INTERVAL,
) -> AuditReport:
    """Replay under the runtime auditor (event-trace hash, race log,
    periodic invariant sweeps)."""
    config = replay_config(trace, config)
    auditor = Auditor(sweep_interval=sweep_interval)
    result = run_replay(trace, config, instrument=auditor)
    auditor.race_log.finish()
    return AuditReport(
        label=config.label,
        trace_digest=auditor.trace_hash.hexdigest(),
        n_events=auditor.trace_hash.n_events,
        n_collisions=auditor.race_log.n_collisions,
        collisions=list(auditor.race_log.collisions),
        invariant_sweeps=auditor.invariant_sweeps,
        result=result,
    )


def replay_twice_and_diff(
    trace: ReplayTrace,
    config: Optional[ExperimentConfig] = None,
    sweep_interval: Optional[float] = DEFAULT_SWEEP_INTERVAL,
) -> DeterminismReport:
    """The determinism contract, extended to replay: replaying one trace
    twice must execute the identical event schedule."""
    config = replay_config(trace, config)
    first = replay_with_audit(trace, config, sweep_interval=sweep_interval)
    second = replay_with_audit(trace, config, sweep_interval=sweep_interval)
    return DeterminismReport(label=config.label, first=first, second=second)
