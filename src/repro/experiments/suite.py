"""Full-suite driver: every workload cell, prefetch on and off, paired.

The paper's scatter plots (Figs. 3–11) each contain one point per
experiment in the mix; :func:`run_suite` produces the underlying paired
results once, and the figure generators in
:mod:`repro.experiments.figures` derive their series from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..workload.suite import WorkloadSpec, standard_suite
from .config import ExperimentConfig
from .runner import RunResult

__all__ = ["PairResult", "SuiteResults", "run_suite", "config_for_spec"]


def config_for_spec(
    spec: WorkloadSpec, seed: int = 1, **overrides
) -> ExperimentConfig:
    """Experiment configuration for one workload cell."""
    return ExperimentConfig(
        pattern=spec.pattern,
        sync_style=spec.sync_style,
        compute_mean=spec.compute_mean,
        seed=seed,
        **overrides,
    )


@dataclass
class PairResult:
    """One workload cell measured with and without prefetching."""

    spec: WorkloadSpec
    prefetch: RunResult
    baseline: RunResult

    @property
    def read_time_reduction(self) -> float:
        """Percent reduction in average block read time (positive = win)."""
        before = self.baseline.avg_read_time
        if before == 0:
            return 0.0
        return 100.0 * (before - self.prefetch.avg_read_time) / before

    @property
    def total_time_reduction(self) -> float:
        """Percent reduction in total execution time (positive = win)."""
        before = self.baseline.total_time
        if before == 0:
            return 0.0
        return 100.0 * (before - self.prefetch.total_time) / before

    @property
    def label(self) -> str:
        return self.spec.label


@dataclass
class SuiteResults:
    """All paired results for one seed."""

    seed: int
    pairs: List[PairResult]

    def by_pattern(self, pattern: str) -> List[PairResult]:
        return [p for p in self.pairs if p.spec.pattern == pattern]

    def balanced(self) -> List[PairResult]:
        return [p for p in self.pairs if p.spec.intensity == "balanced"]

    def io_bound(self) -> List[PairResult]:
        return [p for p in self.pairs if p.spec.intensity == "io-bound"]

    def with_sync(self) -> List[PairResult]:
        return [p for p in self.pairs if p.spec.sync_style != "none"]


def run_suite(
    seed: int = 1,
    specs: Optional[List[WorkloadSpec]] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    cache=None,
    stats=None,
    **config_overrides,
) -> SuiteResults:
    """Run the full paired suite (92 simulations at the paper's mix).

    Additional keyword arguments override :class:`ExperimentConfig`
    fields on every cell (useful for scaled-down suites in tests).

    ``jobs`` > 1 fans the cells out to worker processes and ``cache``
    (a :class:`~repro.perf.cache.RunCache`) memoizes completed runs;
    both default off, reproducing sequential behaviour exactly (see
    :mod:`repro.perf.executor`).
    """
    from ..perf.executor import execute_pairs

    specs = specs if specs is not None else standard_suite()
    configs = [
        config_for_spec(spec, seed=seed, **config_overrides)
        for spec in specs
    ]
    paired = execute_pairs(configs, jobs=jobs, cache=cache, stats=stats)
    pairs: List[PairResult] = []
    for spec, (pf, base) in zip(specs, paired):
        pairs.append(PairResult(spec=spec, prefetch=pf, baseline=base))
        if progress is not None:
            progress(
                f"{spec.label}: total {base.total_time:.0f} -> "
                f"{pf.total_time:.0f} ms"
            )
    return SuiteResults(seed=seed, pairs=pairs)
