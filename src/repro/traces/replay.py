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

A replay is an ordinary run:
:func:`~repro.experiments.runner.run_experiment` with ``pattern`` set to
:meth:`ReplayTrace.to_pattern() <repro.fs.trace.ReplayTrace.to_pattern>`,
which carries each reference's recorded compute gap and barrier visits
to the same :func:`~repro.workload.application.application` loop a live
run uses, under the ``"replay"`` sync style
(:class:`~repro.workload.synchronization.ReplaySync`).  This module holds
the checked way in for a trace file:

* :func:`replay_config` — the config that describes a replay of a trace;
* :func:`run_replay` / :func:`replay_pair` — trace-driven analogues of
  :func:`~repro.experiments.runner.run_experiment` / ``run_pair``.

The determinism audit of a replay is
:func:`~repro.analysis.audit.run_twice_and_diff` with the same
``pattern``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..experiments.config import ExperimentConfig
from ..experiments.runner import RunResult, run_experiment
from ..fs.trace import ReplayTrace, TraceFormatError

__all__ = [
    "replay_config",
    "replay_pair",
    "run_replay",
]


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
    trace: ReplayTrace, config: Optional[ExperimentConfig] = None
) -> RunResult:
    """Replay ``trace`` through the full simulator.

    ``config`` (a replay config from :func:`replay_config`, or any base
    config whose workload fields will be overridden) controls the machine,
    cache, and prefetch setup — so one trace supports on/off prefetch
    pairs, policy comparisons, lead sweeps, and machine-geometry studies.
    Trace files come from outside the program, so the trace is validated
    and its node count checked against the config first.
    """
    trace.validate()
    if config is None or not config.pattern.startswith("trace:"):
        config = replay_config(trace, config)
    if config.n_nodes != trace.meta.n_nodes:
        raise TraceFormatError(
            f"config has {config.n_nodes} nodes but the trace was taken on "
            f"{trace.meta.n_nodes}"
        )
    return run_experiment(config, pattern=trace.to_pattern())


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
