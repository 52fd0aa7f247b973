"""Benchmark harness: ``rapid-transit bench`` and ``BENCH_<label>.json``.

Measures the three perf claims of this layer on the machine at hand and
writes them to one JSON file so every future change has a measured
trajectory:

* **kernel** — one uncached sequential run; events/sec is the DES
  hot-path figure of merit;
* **suite** — the paired suite run sequentially and then with ``--jobs``
  workers, wall times compared, and the two
  :func:`~repro.perf.serialize.suite_digest`\\ s required to match
  bit-for-bit (the benchmark doubles as a determinism check);
* **cache** — the same suite cold (populating a fresh cache) and warm
  (every run answered from disk); the warm pass must execute zero
  simulations.

Speedups are reported as measured — on a single-core host the parallel
speedup will hover around 1.0 and that is the honest number; the cache
warm speedup is hardware-independent.

This module reads the host clock by design (it measures wall time), so
the ``wallclock`` simlint rule is suppressed line by line; none of this
code runs inside a simulation.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import platform
import pstats
import resource
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..experiments.config import ExperimentConfig
from ..experiments.suite import SuiteResults, run_suite
from ..workload.suite import (
    WorkloadSpec,
    balanced_compute_mean,
    standard_suite,
)
from .cache import RunCache
from .executor import ExecutionStats
from .serialize import suite_digest

__all__ = [
    "compare_baseline",
    "render_bench",
    "run_bench",
]

#: Downscaled sizing shared by every bench phase; the dynamics being
#: timed (heap churn, queue discipline, process hand-offs) do not need
#: the paper's 20-node machine to appear.
_QUICK_OVERRIDES: Dict[str, Any] = {
    "n_nodes": 4,
    "n_disks": 4,
    "file_blocks": 400,
    "total_reads": 400,
}
_FULL_OVERRIDES: Dict[str, Any] = {
    "n_nodes": 8,
    "n_disks": 8,
    "file_blocks": 640,
    "total_reads": 640,
}


def _quick_specs() -> List[WorkloadSpec]:
    """Three representative cells: global, local-portion, local-overlap."""
    return [
        WorkloadSpec(
            pattern=pattern,
            sync_style=sync,
            compute_mean=balanced_compute_mean(pattern),
        )
        for pattern, sync in (
            ("gw", "per-proc"),
            ("lfp", "none"),
            ("lw", "per-proc"),
        )
    ]


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` and return ``(value, wall seconds)``."""
    start = time.perf_counter()  # simlint: allow-wallclock
    value = fn()
    wall = time.perf_counter() - start  # simlint: allow-wallclock
    return value, max(wall, 1e-9)


def _peak_rss_kb() -> int:
    """Peak resident set size (KiB) of this process and its workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids)


def _suite_events(suite: SuiteResults) -> int:
    return sum(
        pair.prefetch.n_events + pair.baseline.n_events
        for pair in suite.pairs
    )


def _bench_kernel(
    seed: int,
    overrides: Dict[str, Any],
    profile_to: Optional[Path] = None,
) -> Dict[str, Any]:
    from ..experiments.runner import run_experiment

    config = ExperimentConfig(
        pattern="gw", sync_style="per-proc", seed=seed, **overrides
    )
    if profile_to is not None:
        profiler = cProfile.Profile()
        profiler.enable()
        result, wall = _timed(lambda: run_experiment(config))
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(40)
        profile_to.write_text(buffer.getvalue(), encoding="utf-8")
    else:
        result, wall = _timed(lambda: run_experiment(config))
    return {
        "label": config.label,
        "n_events": result.n_events,
        "wall_s": wall,
        "events_per_s": result.n_events / wall,
    }


def run_bench(
    label: str = "quick",
    quick: bool = True,
    jobs: int = 4,
    seed: int = 1,
    output_dir: Union[str, Path] = "benchmarks",
    profile: bool = False,
) -> Dict[str, Any]:
    """Run every bench phase and write ``BENCH_<label>.json``.

    Returns the report dict; ``report["ok"]`` is ``False`` when any
    digest comparison failed or the warm cache pass executed a
    simulation.  With ``profile=True`` the kernel phase runs under
    :mod:`cProfile` and a cumulative-time report lands in
    ``BENCH_<label>_profile.txt`` next to the JSON.
    """
    overrides = _QUICK_OVERRIDES if quick else _FULL_OVERRIDES
    specs = _quick_specs() if quick else standard_suite()
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    profile_path = out / f"BENCH_{label}_profile.txt" if profile else None
    kernel = _bench_kernel(seed, overrides, profile_to=profile_path)

    sequential, seq_wall = _timed(
        lambda: run_suite(seed=seed, specs=specs, **overrides)
    )
    seq_digest = suite_digest(sequential)
    parallel, par_wall = _timed(
        lambda: run_suite(seed=seed, specs=specs, jobs=jobs, **overrides)
    )
    par_digest = suite_digest(parallel)
    n_events = _suite_events(sequential)
    suite_report = {
        "cells": len(specs),
        "simulations": 2 * len(specs),
        "n_events": n_events,
        "sequential_wall_s": seq_wall,
        "sequential_events_per_s": n_events / seq_wall,
        "parallel_wall_s": par_wall,
        "parallel_speedup": seq_wall / par_wall,
        # On a single-core host a process pool cannot beat sequential
        # execution; the measured speedup is still reported (honesty)
        # but flagged so baseline gating skips it.
        "parallel_informational": (os.cpu_count() or 1) <= 1,
        "digest": seq_digest,
        "digests_match": seq_digest == par_digest,
    }

    cache_dir = out / f".bench-cache-{label}"
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    cold_cache = RunCache(cache_dir)
    cold_stats = ExecutionStats()
    cold, cold_wall = _timed(
        lambda: run_suite(
            seed=seed, specs=specs, cache=cold_cache, stats=cold_stats,
            **overrides,
        )
    )
    warm_cache = RunCache(cache_dir)
    warm_stats = ExecutionStats()
    warm, warm_wall = _timed(
        lambda: run_suite(
            seed=seed, specs=specs, cache=warm_cache, stats=warm_stats,
            **overrides,
        )
    )
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_report = {
        "cold_wall_s": cold_wall,
        "cold_hit_rate": cold_cache.hit_rate,
        "warm_wall_s": warm_wall,
        "warm_hit_rate": warm_cache.hit_rate,
        "warm_executed": warm_stats.executed,
        "warm_speedup": cold_wall / warm_wall,
        "digests_match": suite_digest(cold) == suite_digest(warm)
        == seq_digest,
    }

    ok = (
        suite_report["digests_match"]
        and cache_report["digests_match"]
        and warm_stats.executed == 0
    )
    report = {
        "label": label,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "jobs": jobs,
        "created_unix": time.time(),  # simlint: allow-wallclock
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "kernel": kernel,
        "suite": suite_report,
        "cache": cache_report,
        "peak_rss_kb": _peak_rss_kb(),
        "ok": ok,
    }
    path = out / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def compare_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regress: float = 0.20,
) -> List[str]:
    """Regressions of ``report`` against a committed ``baseline``.

    Compares the throughput figures (kernel and sequential-suite
    events/sec, plus the parallel speedup when the host can express
    one); a value more than ``max_regress`` below the baseline is a
    regression.  Returns human-readable failure lines (empty = pass).
    """
    failures: List[str] = []
    checks: List[Tuple[str, Optional[float], Optional[float]]] = [
        (
            "kernel events/s",
            report.get("kernel", {}).get("events_per_s"),
            baseline.get("kernel", {}).get("events_per_s"),
        ),
        (
            "suite sequential events/s",
            report.get("suite", {}).get("sequential_events_per_s"),
            baseline.get("suite", {}).get("sequential_events_per_s"),
        ),
    ]
    # A single-core host reports its parallel speedup as informational
    # only — a pool of one worker cannot beat sequential execution, and
    # gating on it would fail every run on such machines.
    if not (
        report.get("suite", {}).get("parallel_informational")
        or baseline.get("suite", {}).get("parallel_informational")
    ):
        checks.append(
            (
                "suite parallel speedup",
                report.get("suite", {}).get("parallel_speedup"),
                baseline.get("suite", {}).get("parallel_speedup"),
            )
        )
    for name, current, reference in checks:
        if current is None or reference is None or reference <= 0:
            continue
        floor = reference * (1.0 - max_regress)
        if current < floor:
            failures.append(
                f"{name}: {current:.0f} < {floor:.0f} "
                f"(baseline {reference:.0f}, max regress "
                f"{max_regress:.0%})"
            )
    return failures


def render_bench(report: Dict[str, Any]) -> str:
    """Human-readable summary of one bench report."""
    kernel = report["kernel"]
    suite = report["suite"]
    cache = report["cache"]
    lines = [
        f"bench [{report['label']}] ({report['mode']}, jobs="
        f"{report['jobs']}, {report['host']['cpu_count']} cpu):",
        f"  kernel: {kernel['n_events']} events in "
        f"{kernel['wall_s']:.2f}s = {kernel['events_per_s']:.0f} events/s",
        f"  suite:  {suite['simulations']} sims sequential "
        f"{suite['sequential_wall_s']:.2f}s "
        f"({suite['sequential_events_per_s']:.0f} events/s), parallel "
        f"{suite['parallel_wall_s']:.2f}s -> speedup "
        f"{suite['parallel_speedup']:.2f}x, digests "
        f"{'MATCH' if suite['digests_match'] else 'DIVERGE'}",
        f"  cache:  cold {cache['cold_wall_s']:.2f}s "
        f"(hit rate {cache['cold_hit_rate']:.0%}), warm "
        f"{cache['warm_wall_s']:.2f}s (hit rate "
        f"{cache['warm_hit_rate']:.0%}, {cache['warm_executed']} "
        f"executed) -> speedup {cache['warm_speedup']:.1f}x, digests "
        f"{'MATCH' if cache['digests_match'] else 'DIVERGE'}",
        f"  peak RSS {report['peak_rss_kb'] / 1024:.0f} MiB",
    ]
    return "\n".join(lines)
