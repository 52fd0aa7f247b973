"""The fan-out engine: deduplicate, consult the cache, run, merge.

:func:`execute_runs` is the one chokepoint every experiment driver
(suite, figures, sweeps, ablations, chaos, ``run_pair``) routes batches
of independent :class:`ExperimentConfig`\\ s through:

1. **Deduplicate** by config digest — identical configs (e.g. the shared
   no-prefetch baseline of a prefetch-only sweep) simulate once.
2. **Cache lookup** — previously completed runs return instantly as slim
   results.
3. **Run the rest** — ``jobs <= 1`` runs in-process, preserving the
   seed's exact behaviour *and* the raw result handles; ``jobs > 1``
   fans distinct configs out to a :class:`ProcessPoolExecutor`, workers
   shipping back slim measure dicts.  The batch is submitted in
   config-digest order, so the schedule is deterministic regardless of
   request order.
4. **Merge** results back into request order.

Determinism note: each simulation owns a private
:class:`~repro.sim.core.Environment`, so process boundaries cannot
perturb event ordering — the digest-equality tests in ``tests/perf``
prove parallel and sequential batches report bit-identical measures.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.config import ExperimentConfig
from ..experiments.runner import RunResult, run_experiment
from .cache import RunCache
from .digest import config_digest
from .serialize import result_from_dict, result_to_dict

__all__ = [
    "ExecutionStats",
    "execute_audits",
    "execute_pairs",
    "execute_runs",
]


@dataclass
class ExecutionStats:
    """What a batch (or several) actually did — for reports and tests."""

    #: Results requested, including duplicates.
    requested: int = 0
    #: Simulations actually executed.
    executed: int = 0
    #: Requests answered from the run cache.
    cache_hits: int = 0
    #: Requests collapsed onto an identical config in the same batch.
    deduplicated: int = 0


def _run_to_payload(
    config: ExperimentConfig,
) -> Tuple[str, Dict[str, Any]]:
    """Worker side: simulate ``config``, return its digest-keyed slim form."""
    result = run_experiment(config)
    return config_digest(config), result_to_dict(result)


def execute_runs(
    configs: Sequence[ExperimentConfig],
    *,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    stats: Optional[ExecutionStats] = None,
) -> List[RunResult]:
    """Run ``configs``, returning one result each, in request order.

    ``jobs <= 1`` (the default) executes sequentially in-process and the
    returned results keep their raw handles; ``jobs > 1`` distributes
    across worker processes and returns slim results for the runs that
    crossed a process boundary.  Cache hits are always slim.
    """
    if stats is None:
        stats = ExecutionStats()
    stats.requested += len(configs)

    digests = [config_digest(c) for c in configs]
    stats.deduplicated += len(digests) - len(set(digests))

    by_digest: Dict[str, RunResult] = {}
    todo: Dict[str, ExperimentConfig] = {}
    for config, digest in zip(configs, digests):
        if digest in by_digest or digest in todo:
            continue
        if cache is not None:
            hit = cache.get(config)
            if hit is not None:
                by_digest[digest] = hit
                stats.cache_hits += 1
                continue
        todo[digest] = config

    if todo:
        stats.executed += len(todo)
        if jobs <= 1 or len(todo) == 1:
            for digest, config in todo.items():
                result = run_experiment(config)
                by_digest[digest] = result
                if cache is not None:
                    cache.put(config, result)
        else:
            batch = sorted(todo.items())
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for digest, payload in pool.map(
                    _run_to_payload, [config for _, config in batch]
                ):
                    result = result_from_dict(todo[digest], payload)
                    by_digest[digest] = result
                    if cache is not None:
                        cache.put(todo[digest], result)

    return [by_digest[digest] for digest in digests]


def execute_pairs(
    configs: Sequence[ExperimentConfig],
    *,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    stats: Optional[ExecutionStats] = None,
) -> List[Tuple[RunResult, RunResult]]:
    """Paired (prefetch, baseline) runs per config, as one flat batch.

    Mirrors :func:`~repro.experiments.runner.run_pair` semantics: each
    config is forced to its prefetch-on form and paired with its
    no-prefetch baseline under the same seed.
    """
    flat: List[ExperimentConfig] = []
    for config in configs:
        pf = (
            config
            if config.prefetch
            else config.with_overrides(prefetch=True)
        )
        flat.append(pf)
        flat.append(pf.paired_baseline())
    results = execute_runs(flat, jobs=jobs, cache=cache, stats=stats)
    return [
        (results[i], results[i + 1]) for i in range(0, len(results), 2)
    ]


def _audit_to_payload(
    config: ExperimentConfig, obs: bool = False
) -> Dict[str, Any]:
    """Worker side: one run-twice determinism audit, slim verdict only."""
    from ..analysis.audit import run_twice_and_diff

    report = run_twice_and_diff(config, obs=obs)
    return {
        "summary": report.summary(),
        "identical": report.identical,
        "obs": obs,
    }


def execute_audits(
    configs: Sequence[ExperimentConfig], *, jobs: int = 1, obs: bool = False
) -> List[Dict[str, Any]]:
    """Run-twice determinism audits for each config, in request order.

    Each verdict is ``{"summary": str, "identical": bool, "obs": bool}``.
    Audits never touch the run cache: their entire point is re-execution.
    With ``obs=True`` every audited run also carries the observability
    recorder, so an identical verdict proves tracing is schedule-neutral.
    """
    if jobs <= 1 or len(configs) == 1:
        return [_audit_to_payload(config, obs) for config in configs]
    worker = partial(_audit_to_payload, obs=obs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, configs))
