"""Reproductions of the paper's in-text findings and our extensions.

* Section V-D — the minimum-prefetch-time throttle (an "unproductive
  idea": overrun falls, hit ratio degrades, no net gain);
* Section V-F — the number of prefetch buffers (1 is worse; 2-5 differ
  little) and the per-pattern breakdown (lw best; lrp/lfp least);
* Fig. 1 — the uneven-benefit pathology behind the lfp slowdowns;
* Extensions (paper Section VI future work): on-the-fly predictors vs the
  oracle, and a processor/disk scalability sweep.

Each generator takes ``(seed, *, jobs, cache)`` and batches its runs
through :mod:`repro.perf.executor`, so ``jobs`` fans them out over worker
processes and ``cache`` memoizes them; ext-hybrid alone runs in process
(see its docstring).
"""

from __future__ import annotations

from typing import Dict

from ..metrics.stats import percent_reduction
from .config import ExperimentConfig
from .figures import FigureData
from .suite import SuiteResults

__all__ = [
    "vd_min_prefetch_time",
    "vf_buffer_count",
    "vf_pattern_breakdown",
    "fig1_uneven_benefit",
    "ext_predictor_comparison",
    "ext_scalability",
    "ext_hybrid_patterns",
    "ext_disk_sensitivity",
]


def vd_min_prefetch_time(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Section V-D: vary the minimum-prefetch-time throttle on gw.

    Paper: raising it lowers prefetch overrun but only negligibly improves
    total/read time because the hit ratio steadily degrades — an
    unproductive idea.
    """
    from ..perf.executor import execute_runs

    min_times = (0.0, 3.0, 6.0, 12.0, 24.0)
    batch = execute_runs(
        [
            ExperimentConfig(
                pattern="gw",
                sync_style="per-proc",
                seed=seed,
                min_prefetch_time=min_t,
            )
            for min_t in min_times
        ],
        jobs=jobs,
        cache=cache,
    )
    rows = []
    for min_t, r in zip(min_times, batch):
        rows.append(
            (
                min_t,
                r.overrun_mean,
                r.hit_ratio,
                r.avg_read_time,
                r.total_time,
            )
        )
    overruns = [r[1] for r in rows]
    hits = [r[2] for r in rows]
    totals = [r[4] for r in rows]
    return FigureData(
        figure_id="vd",
        title="Minimum-prefetch-time throttle sweep (gw, per-proc sync)",
        columns=[
            "min prefetch time (ms)",
            "overrun mean (ms)",
            "hit ratio",
            "avg read (ms)",
            "total (ms)",
        ],
        rows=rows,
        checks={
            "overrun_decreases": overruns[-1] < overruns[0],
            "hit_ratio_degrades": hits[-1] < hits[0],
            "no_total_time_win": min(totals) >= totals[0] * 0.97,
        },
        notes="the paper judged this 'an unproductive idea'",
    )


def vf_buffer_count(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Section V-F: prefetch buffers per process.

    Paper: one buffer per process gives smaller improvements for all
    patterns; in the 2-5 range the choice has a minor impact.
    """
    from ..perf.executor import execute_runs

    buffer_counts = (1, 2, 3, 5)
    patterns = ("gw", "lw", "lfp")
    cells = [(p, n) for p in patterns for n in buffer_counts]
    batch = execute_runs(
        [
            ExperimentConfig(
                pattern=pattern,
                sync_style="per-proc",
                compute_mean=10.0 if pattern == "lw" else 30.0,
                seed=seed,
                prefetch_buffers_per_node=n_buffers,
            )
            for pattern, n_buffers in cells
        ],
        jobs=jobs,
        cache=cache,
    )
    rows = []
    totals: Dict[str, Dict[int, float]] = {p: {} for p in patterns}
    for (pattern, n_buffers), r in zip(cells, batch):
        totals[pattern][n_buffers] = r.total_time
        rows.append(
            (pattern, n_buffers, r.total_time, r.avg_read_time, r.hit_ratio)
        )
    checks = {}
    for pattern in patterns:
        t = totals[pattern]
        multi = [t[n] for n in buffer_counts if n >= 2]
        checks[f"{pattern}_one_buffer_worse"] = t[1] >= min(multi)
        # "Minor impact" in the 2-5 range: within ~25% of each other,
        # versus the much larger 1-vs-many gap.
        checks[f"{pattern}_2to5_minor_spread"] = (
            max(multi) - min(multi)
        ) <= 0.25 * min(multi)
    return FigureData(
        figure_id="vf-buffers",
        title="Prefetch buffers per process: 1 vs 2-5",
        columns=["pattern", "buffers/proc", "total (ms)", "avg read (ms)",
                 "hit ratio"],
        rows=rows,
        checks=checks,
    )


def vf_pattern_breakdown(suite: SuiteResults) -> FigureData:
    """Section V-F: which patterns benefit most.

    Paper: lw (interprocess temporal locality) benefits most; the global
    patterns (interprocess spatial locality) come next; lrp and lfp
    (intraprocess locality only; prefetch only for themselves) show the
    least improvement.
    """
    means: Dict[str, float] = {}
    rows = []
    for pattern in ("lfp", "lrp", "lw", "gfp", "grp", "gw"):
        pairs = suite.by_pattern(pattern)
        reductions = [p.total_time_reduction for p in pairs]
        read_reductions = [p.read_time_reduction for p in pairs]
        hit = [p.prefetch.hit_ratio for p in pairs]
        mean_red = sum(reductions) / len(reductions)
        means[pattern] = mean_red
        rows.append(
            (
                pattern,
                mean_red,
                sum(read_reductions) / len(read_reductions),
                sum(hit) / len(hit),
                min(reductions),
                max(reductions),
            )
        )
    ranked = sorted(means.values())
    return FigureData(
        figure_id="vf-patterns",
        title="Per-pattern breakdown of prefetching benefit",
        columns=[
            "pattern",
            "mean total reduction %",
            "mean read reduction %",
            "mean hit ratio",
            "min reduction %",
            "max reduction %",
        ],
        rows=rows,
        checks={
            "lw_benefits_most": means["lw"] >= max(
                v for k, v in means.items() if k != "lw"
            ) - 1e-9,
            # Paper: lfp/lrp benefit least (they prefetch only for
            # themselves).  We additionally see grp held back by its
            # portion restriction; the robust shape claim is that lfp sits
            # in the bottom half and below every whole-file/global-fixed
            # pattern.
            "lfp_among_least": means["lfp"] <= ranked[len(ranked) // 2],
            "lfp_below_whole_file_patterns": means["lfp"]
            < min(means["lw"], means["gfp"]),
        },
        notes=(
            "ordering (mean total reduction): "
            + ", ".join(
                f"{k}={v:.0f}%"
                for k, v in sorted(means.items(), key=lambda kv: -kv[1])
            )
        ),
    )


def fig1_uneven_benefit(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Fig. 1's pathology, measured: prefetching's benefit is unevenly
    distributed across processes in local patterns.

    We run lfp (processes prefetch only for themselves, competing for the
    shared buffer budget) and compare the spread of per-node mean read
    times with and without prefetching.  The paper explains the observed
    lfp slowdowns by exactly this imbalance plus barrier amplification.
    """
    from ..perf.executor import execute_pairs

    seeds = range(seed, seed + 3)
    paired = execute_pairs(
        [
            ExperimentConfig(pattern="lfp", sync_style="per-proc", seed=s)
            for s in seeds
        ],
        jobs=jobs,
        cache=cache,
    )
    rows = []
    imb_pf, imb_base = [], []
    for s, (pf, base) in zip(seeds, paired):
        imb_pf.append(pf.benefit_imbalance)
        imb_base.append(base.benefit_imbalance)
        rows.append(
            (
                s,
                base.benefit_imbalance,
                pf.benefit_imbalance,
                base.total_time,
                pf.total_time,
                pf.prefetch_outcomes.get("no_buffer", 0)
                + pf.prefetch_outcomes.get("budget_full", 0),
            )
        )
    return FigureData(
        figure_id="fig1",
        title="Uneven distribution of prefetching benefit (lfp)",
        columns=[
            "seed",
            "imbalance (no prefetch)",
            "imbalance (prefetch)",
            "base total (ms)",
            "prefetch total (ms)",
            "starved prefetch attempts",
        ],
        rows=rows,
        checks={
            "prefetch_benefit_uneven": sum(imb_pf) / len(imb_pf)
            > sum(imb_base) / len(imb_base),
            "buffer_competition_observed": all(r[5] > 0 for r in rows),
        },
        notes=(
            "imbalance = (max - min per-node mean read time) / overall "
            "mean; competition shows as no_buffer/budget_full outcomes"
        ),
    )


def ext_predictor_comparison(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Extension A: on-the-fly predictors vs the oracle (Section VI).

    gw is the friendliest case for a global detector; lfp for the portion
    learner.  The oracle bounds them from above; no-prefetch from below.
    """
    from ..perf.executor import execute_runs

    cells = [
        (pattern, policy)
        for pattern, policies in (
            ("gw", ["null-baseline", "oracle", "global-seq", "obl"]),
            ("lfp", ["null-baseline", "oracle", "portion", "obl"]),
            ("gfp", ["null-baseline", "oracle", "global-portion",
                     "global-seq"]),
        )
        for policy in policies
    ]
    configs = []
    for pattern, policy in cells:
        overrides = (
            {"prefetch": False}
            if policy == "null-baseline"
            else {"policy": policy}
        )
        configs.append(
            ExperimentConfig(
                pattern=pattern, sync_style="per-proc", seed=seed,
                **overrides,
            )
        )
    batch = execute_runs(configs, jobs=jobs, cache=cache)
    rows = []
    totals: Dict[str, Dict[str, float]] = {}
    for (pattern, policy), r in zip(cells, batch):
        totals.setdefault(pattern, {})[policy] = r.total_time
        rows.append(
            (pattern, policy, r.total_time, r.avg_read_time,
             r.hit_ratio, r.blocks_prefetched)
        )
    return FigureData(
        figure_id="ext-predictors",
        title="On-the-fly predictors vs oracle prefetching",
        columns=["pattern", "policy", "total (ms)", "avg read (ms)",
                 "hit ratio", "blocks prefetched"],
        rows=rows,
        checks={
            "gw_global_detector_beats_baseline": totals["gw"]["global-seq"]
            < totals["gw"]["null-baseline"],
            "gw_oracle_at_least_matches_detector": totals["gw"]["oracle"]
            <= totals["gw"]["global-seq"] * 1.05,
            "lfp_portion_learner_beats_baseline": totals["lfp"]["portion"]
            < totals["lfp"]["null-baseline"],
            # A plain sequential detector cannot see gfp's strided
            # portions; the global portion learner can.
            "gfp_portion_learner_beats_seq_detector": totals["gfp"][
                "global-portion"
            ]
            < totals["gfp"]["global-seq"],
            "gfp_portion_learner_beats_baseline": totals["gfp"][
                "global-portion"
            ]
            < totals["gfp"]["null-baseline"],
        },
    )


def ext_scalability(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Extension B: scalability in processors/disks (Section VI).

    gw with one disk per processor and a proportionally larger file (100
    reads per processor); the question is whether prefetching's benefit
    persists as the machine grows.
    """
    from ..perf.executor import execute_pairs

    node_counts = (4, 8, 16, 32)
    paired = execute_pairs(
        [
            ExperimentConfig(
                pattern="gw",
                sync_style="per-proc",
                seed=seed,
                n_nodes=n,
                n_disks=n,
                file_blocks=100 * n,
                total_reads=100 * n,
            )
            for n in node_counts
        ],
        jobs=jobs,
        cache=cache,
    )
    rows = []
    reductions = []
    for n, (pf, base) in zip(node_counts, paired):
        red = percent_reduction(base.total_time, pf.total_time)
        reductions.append(red)
        rows.append(
            (n, base.total_time, pf.total_time, red, pf.hit_ratio)
        )
    return FigureData(
        figure_id="ext-scalability",
        title="Scalability: gw with P processors and P disks",
        columns=["P", "base total (ms)", "prefetch total (ms)",
                 "reduction %", "hit ratio"],
        rows=rows,
        checks={
            "prefetch_wins_at_every_scale": all(r > 0 for r in reductions),
        },
    )


def ext_hybrid_patterns(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Extension C: hybrid access patterns (paper Section IV-B aside).

    Half the processors replay an lfp-style private-portion scan while the
    other half share an lw-style overlapped region.  The paper excluded
    such mixes from its workload ("we do not expect these hybrid patterns
    to be very important").  The measured result is an *interference*
    finding in the spirit of Fig. 1(b): the private half prefetches
    greedily across its portions and consumes most of the shared
    prefetched-unused budget, so its read times improve strongly while the
    shared (lw) half — which in a pure run benefits most of all patterns —
    is starved and barely improves.

    The pattern is built by hand, and a run-cache key digests only a
    config, so the pair runs in process: ``jobs`` and ``cache`` are
    accepted for a uniform signature and ignored.
    """
    from ..sim.rng import RandomStreams
    from ..workload.patterns import make_hybrid
    from .runner import run_experiment

    n_nodes = 20
    lw_nodes = list(range(0, n_nodes, 2))
    lfp_nodes = list(range(1, n_nodes, 2))
    rows = []
    results = {}
    for prefetch in (True, False):
        config = ExperimentConfig(
            pattern="lw",  # placeholder; the materialized pattern rules
            sync_style="per-proc",
            compute_mean=20.0,
            seed=seed,
            prefetch=prefetch,
        )
        pattern = make_hybrid(
            {"lw": lw_nodes, "lfp": lfp_nodes},
            n_nodes=n_nodes,
            file_blocks=config.file_blocks,
            reads_per_node=100,
            rng=RandomStreams(seed),
        )
        r = run_experiment(config, pattern=pattern)
        results[prefetch] = r
        lw_reads = [r.per_node_read_means[n] for n in lw_nodes]
        lfp_reads = [r.per_node_read_means[n] for n in lfp_nodes]
        rows.append(
            (
                "prefetch" if prefetch else "no-prefetch",
                r.total_time,
                r.hit_ratio,
                sum(lw_reads) / len(lw_reads),
                sum(lfp_reads) / len(lfp_reads),
            )
        )
    pf, base = results[True], results[False]
    lw_pf, lfp_pf = rows[0][3], rows[0][4]
    lw_base, lfp_base = rows[1][3], rows[1][4]
    return FigureData(
        figure_id="ext-hybrid",
        title="Hybrid pattern: half lw, half lfp (per-proc sync)",
        columns=["run", "total (ms)", "hit ratio",
                 "lw-half avg read (ms)", "lfp-half avg read (ms)"],
        rows=rows,
        checks={
            "hybrid_completes_and_prefetch_wins": pf.total_time
            < base.total_time,
            "private_half_improves_strongly": lfp_pf < 0.7 * lfp_base,
            "shared_half_starved_by_private_half": lw_pf > 0.5 * lw_base,
            "budget_competition_observed": (
                pf.prefetch_outcomes.get("budget_full", 0)
                + pf.prefetch_outcomes.get("no_buffer", 0)
            )
            > 0,
        },
        notes=(
            "interference: the lfp half consumes the shared prefetch "
            "budget, so the lw half (the biggest winner among pure "
            "patterns) barely improves — Fig. 1(b)'s uneven-benefit "
            "mechanism operating across pattern classes"
        ),
    )


def ext_disk_sensitivity(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Extension D: does the prefetching win survive irregular disks?

    The paper fixes every disk access at exactly 30 ms.  Real drives
    vary; this sweep repeats the flagship gw cell under (a) the paper's
    fixed model, (b) ±30% uniform service-time jitter, and (c) a
    positional seek model, checking that the headline conclusion
    (prefetching substantially reduces total time) is not an artifact of
    perfectly regular disks.
    """
    from ..perf.executor import execute_pairs

    models = ("fixed", "jittered", "seek")
    paired = execute_pairs(
        [
            ExperimentConfig(
                pattern="gw", sync_style="per-proc", seed=seed,
                disk_model=model,
            )
            for model in models
        ],
        jobs=jobs,
        cache=cache,
    )
    rows = []
    reductions = {}
    for model, (pf, base) in zip(models, paired):
        red = percent_reduction(base.total_time, pf.total_time)
        reductions[model] = red
        rows.append(
            (
                model,
                base.total_time,
                pf.total_time,
                red,
                pf.hit_ratio,
                pf.avg_hit_wait,
                pf.disk_response_mean,
            )
        )
    return FigureData(
        figure_id="ext-disk",
        title="Disk-model sensitivity of the prefetching win (gw)",
        columns=["disk model", "base total (ms)", "prefetch total (ms)",
                 "reduction %", "hit ratio", "hit-wait (ms)",
                 "disk response (ms)"],
        rows=rows,
        checks={
            "win_survives_jitter": reductions["jittered"] > 15.0,
            # Sequential access on a positional disk is ~3x faster than the
            # paper's fixed 30 ms (short seeks), so there is less I/O time
            # to hide; the win shrinks but must not vanish.
            "win_survives_seek_model": reductions["seek"] > 5.0,
            "fixed_matches_paper_cell": reductions["fixed"] > 15.0,
        },
        notes=(
            "seek-model disks serve sequential reads in ~11 ms, so the "
            "prefetching win shrinks with the I/O share of the run — the "
            "Fig. 12 mechanism from the disk side"
        ),
    )
