"""Record a replayable trace from a live simulation run.

:class:`ReplayRecorder` subscribes to five probe points, all passive (no
events, no randomness — a recorded run's event schedule is bit-for-bit
identical to an unrecorded one):

* ``fs.read`` / ``fs.write`` (the file server) — fire as each demand
  access completes, giving the observed outcome/latency/time;
* ``app.claim``, ``app.compute`` and ``app.sync_joins`` (the application
  loop in :mod:`repro.workload.application`, which a replay runs too) —
  giving the claimed reference, the compute gap, and the number of
  barrier visits that followed.

Per node the two interleave strictly (one outstanding access per node:
completion, then claim bookkeeping, then compute, then joins), so merging
them is a constant-space pairing, not a post-hoc join.

The runner attaches one recorder to a run whose
:attr:`~repro.experiments.config.ExperimentConfig.record_trace` is set
and returns its :class:`~repro.fs.trace.ReplayTrace` as
``RunResult.trace``.  :func:`record_run` is the shorthand: run any
config and get back the result and the trace that reproduces it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, cast

from ..experiments.runner import RunResult, run_experiment
from ..fs.trace import (
    ReplayRecord,
    ReplayTrace,
    TraceFormatError,
    TraceMeta,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentConfig
    from ..sim.core import Environment
    from ..workload.patterns import AccessPattern

__all__ = ["ReplayRecorder", "record_run"]


class ReplayRecorder:
    """Accumulates replay records while a run executes.

    One recorder records one run: :meth:`attach` it to the run's
    environment before the applications start, and call :meth:`finish`
    after the run completes.
    """

    def __init__(self, meta: TraceMeta) -> None:
        self.meta = meta
        #: Completed records in completion order (the merged timeline).
        self._records: List[ReplayRecord] = []
        #: Per-node read completion not yet claimed by the application.
        self._completed: Dict[int, Tuple[int, str, float, float]] = {}
        #: Per-node index of the record awaiting compute/sync annotation.
        self._open: Dict[int, int] = {}
        #: Simulation environment, captured by :meth:`attach`.
        self._env: Optional["Environment"] = None

    @classmethod
    def for_run(
        cls, config: "ExperimentConfig", pattern: "AccessPattern"
    ) -> "ReplayRecorder":
        """A recorder whose trace header describes ``config`` run over
        ``pattern``."""
        extra: Dict[str, Any] = {
            "label": config.label,
            "prefetch": config.prefetch,
        }
        if config.faults is not None:
            # Provenance: the recorded timeline was shaped by this fault
            # plan (replays may use a different one, or none).
            extra["fault_plan_digest"] = config.faults.digest
            extra["fault_plan_name"] = config.faults.name
        return cls(
            TraceMeta(
                workload=config.pattern,
                n_nodes=config.n_nodes,
                file_blocks=config.file_blocks,
                source="recorded",
                seed=config.seed,
                crosses_portions=pattern.crosses_portions,
                sync_style=config.sync_style,
                compute_mean=config.compute_mean,
                extra=extra,
            )
        )

    def attach(self, env: "Environment") -> None:
        """Subscribe to ``env``'s access and application probe points."""
        self._env = env
        env.subscribe("fs.read", self._on_complete)
        env.subscribe("fs.write", self._on_complete)
        env.subscribe("app.claim", self._on_claim)
        env.subscribe("app.compute", self._on_compute)
        env.subscribe("app.sync_joins", self._on_sync_joins)

    # -- fs.read / fs.write ------------------------------------------------------

    def _on_complete(
        self,
        node_id: int,
        block: int,
        outcome: str,
        latency: float,
        ref_index: int,
    ) -> None:
        # Reads and writes carry the identical tuple; per-node strict
        # interleaving means one pending slot serves both.
        now = self._env.now if self._env is not None else -1.0
        self._completed[node_id] = (block, outcome, latency, now)

    # -- app.claim / app.compute / app.sync_joins ---------------------------------

    def _on_claim(
        self, node_id: int, ref_index: int, block: int, portion: int, op: str
    ) -> None:
        pending = self._completed.pop(node_id, None)
        if pending is None:
            raise TraceFormatError(
                f"recorder saw a claim for node {node_id} with no completed "
                "access (is the recorder subscribed to fs.read/fs.write?)"
            )
        seen_block, outcome, latency, time = pending
        if seen_block != block:
            raise TraceFormatError(
                f"recorder block mismatch on node {node_id}: saw {seen_block}"
                f" but application claimed {block}"
            )
        self._open[node_id] = len(self._records)
        self._records.append(
            ReplayRecord(
                node=node_id,
                block=block,
                compute=0.0,
                portion=portion,
                sync_joins=0,
                op=op,
                time=time,
                outcome=outcome,
                latency=latency,
                ref_index=ref_index,
            )
        )

    def _amend(self, node_id: int, **changes: object) -> None:
        idx = self._open.get(node_id)
        if idx is None:
            raise TraceFormatError(
                f"recorder annotation for node {node_id} with no open record"
            )
        rec = self._records[idx]
        self._records[idx] = dataclasses.replace(rec, **changes)  # type: ignore[arg-type]

    def _on_compute(self, node_id: int, delay: float) -> None:
        self._amend(node_id, compute=delay)

    def _on_sync_joins(self, node_id: int, count: int) -> None:
        self._amend(node_id, sync_joins=count)

    def finish(self) -> ReplayTrace:
        """Seal and validate the recorded trace."""
        if self._completed:
            raise TraceFormatError(
                "recorder finished with unclaimed read completions for "
                f"nodes {sorted(self._completed)}"
            )
        trace = ReplayTrace(self.meta, self._records)
        trace.validate()
        return trace


def record_run(config: "ExperimentConfig") -> Tuple[RunResult, ReplayTrace]:
    """Run ``config`` while recording a replayable trace.

    Returns ``(result, trace)``: :func:`run_experiment` with
    ``record_trace`` set.  The run itself is unperturbed: the same seed
    without a recorder executes the identical event schedule.
    """
    result = run_experiment(config.with_overrides(record_trace=True))
    return result, cast(ReplayTrace, result.trace)
