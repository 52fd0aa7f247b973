"""Ablations of the design choices DESIGN.md calls out.

* :func:`ablation_numa_layout` — Section V-D's *initial implementation*
  story: without replicated structures and local pointer caches, every
  file-system reference crosses the switch and prefetching overhead
  explodes.  The paper had to optimize this before prefetching paid off.
* :func:`ablation_replacement` — the per-processor RU-set policy vs a
  strict global LRU: the RU set exists for NUMA locality, and the claim
  is that it does not *hurt* hit behaviour for these patterns.
* :func:`ablation_file_layout` — round-robin interleaving (the paper's
  Bridge-style layout) vs coarse striping vs hashed placement, under the
  cooperating-sequential workload the interleave was designed for.
"""

from __future__ import annotations

from typing import Dict

from ..metrics.stats import percent_reduction
from .config import ExperimentConfig
from .figures import FigureData

__all__ = [
    "ablation_numa_layout",
    "ablation_replacement",
    "ablation_file_layout",
]


def ablation_numa_layout(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Replicated (optimized) vs naive shared-structure placement.

    Paper, Section V-D: "In our initial implementation, we found the
    prefetching overhead to be very high...  Data structures were
    replicated where possible to reduce the number of remote memory
    references."  The naive layout should show much slower prefetch
    actions and a worse total time.
    """
    from ..perf.executor import execute_runs

    variants = [
        (name, replicated, prefetch)
        for name, replicated in (("optimized", True), ("naive", False))
        for prefetch in (True, False)
    ]
    batch = execute_runs(
        [
            ExperimentConfig(
                pattern="gw",
                sync_style="per-proc",
                seed=seed,
                prefetch=prefetch,
                replicated_structures=replicated,
            )
            for _, replicated, prefetch in variants
        ],
        jobs=jobs,
        cache=cache,
    )
    rows = []
    results: Dict[str, Dict[str, float]] = {}
    for (name, replicated, prefetch), r in zip(variants, batch):
        if name not in results:
            results[name] = {}
        key = "prefetch" if prefetch else "baseline"
        results[name][key] = r.total_time
        rows.append(
            (
                name,
                "yes" if prefetch else "no",
                r.total_time,
                r.avg_read_time,
                r.prefetch_action_mean,
                r.overrun_mean,
            )
        )
    gain_optimized = percent_reduction(
        results["optimized"]["baseline"], results["optimized"]["prefetch"]
    )
    gain_naive = percent_reduction(
        results["naive"]["baseline"], results["naive"]["prefetch"]
    )
    action_opt = next(r[4] for r in rows if r[0] == "optimized" and r[1] == "yes")
    action_naive = next(r[4] for r in rows if r[0] == "naive" and r[1] == "yes")
    return FigureData(
        figure_id="abl-numa",
        title="NUMA structure placement: optimized (replicated) vs naive",
        columns=["layout", "prefetch", "total (ms)", "avg read (ms)",
                 "action mean (ms)", "overrun mean (ms)"],
        rows=rows,
        checks={
            "naive_actions_much_slower": action_naive > 1.5 * action_opt,
            "optimization_increases_prefetch_gain": gain_optimized
            > gain_naive,
        },
        notes=(
            f"prefetch gain: optimized {gain_optimized:.0f}% vs naive "
            f"{gain_naive:.0f}%; action time {action_opt:.1f} vs "
            f"{action_naive:.1f} ms"
        ),
    )


def ablation_replacement(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """RU-set (paper) vs global-LRU replacement.

    The RU set is a *locality* mechanism; for the paper's patterns it
    should roughly match global LRU's hit behaviour (the aggregate
    "enforces a global policy").
    """
    from ..perf.executor import execute_runs

    variants = [
        (pattern, replacement)
        for pattern in ("gw", "lw", "lfp")
        for replacement in ("ru-set", "global-lru")
    ]
    batch = execute_runs(
        [
            ExperimentConfig(
                pattern=pattern,
                sync_style="per-proc",
                compute_mean=10.0 if pattern == "lw" else 30.0,
                seed=seed,
                replacement=replacement,
            )
            for pattern, replacement in variants
        ],
        jobs=jobs,
        cache=cache,
    )
    rows = []
    totals: Dict[str, Dict[str, float]] = {}
    for (pattern, replacement), r in zip(variants, batch):
        if pattern not in totals:
            totals[pattern] = {}
        totals[pattern][replacement] = r.total_time
        rows.append(
            (pattern, replacement, r.total_time, r.hit_ratio,
             r.avg_read_time)
        )
    checks = {}
    for pattern, t in totals.items():
        ratio = t["ru-set"] / t["global-lru"]
        checks[f"{pattern}_ruset_within_15pct_of_global_lru"] = (
            0.85 <= ratio <= 1.15
        )
    return FigureData(
        figure_id="abl-replacement",
        title="Replacement policy: per-processor RU sets vs global LRU",
        columns=["pattern", "policy", "total (ms)", "hit ratio",
                 "avg read (ms)"],
        rows=rows,
        checks=checks,
    )


def ablation_file_layout(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Round-robin interleaving vs striping vs hashed placement.

    Round-robin spreads consecutive blocks over consecutive disks, which
    is exactly what cooperating sequential readers need; coarse stripes
    serialize each run of ``stripe_width`` blocks behind one disk.
    """
    from ..perf.executor import execute_runs

    variants = (
        ("round-robin", {"layout": "round-robin"}),
        ("striped-8", {"layout": "striped", "stripe_width": 8}),
        ("hashed", {"layout": "hashed"}),
    )
    batch = execute_runs(
        [
            ExperimentConfig(
                pattern="gw", sync_style="per-proc", seed=seed, **overrides
            )
            for _, overrides in variants
        ],
        jobs=jobs,
        cache=cache,
    )
    rows = []
    totals: Dict[str, float] = {}
    for (name, _), r in zip(variants, batch):
        totals[name] = r.total_time
        rows.append(
            (name, r.total_time, r.avg_read_time, r.disk_response_mean)
        )
    return FigureData(
        figure_id="abl-layout",
        title="File layout under cooperating sequential reads (gw)",
        columns=["layout", "total (ms)", "avg read (ms)",
                 "disk response (ms)"],
        rows=rows,
        checks={
            "round_robin_not_worse_than_striped": totals["round-robin"]
            <= totals["striped-8"] * 1.05,
        },
        notes="round-robin is the paper's Bridge-style interleave",
    )
