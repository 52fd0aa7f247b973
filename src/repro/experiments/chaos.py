"""Degraded-mode (chaos) experiments: prefetch benefit vs fault intensity.

The paper evaluates prefetching on a healthy machine.  This extension asks
how robust its headline result — prefetching cuts total execution time —
is when disks misbehave.  We sweep a *transient-error intensity* (the
per-completion error probability injected on every disk) across the
paper's six access patterns and compare each faulted prefetch run against
its paired no-prefetch baseline under the *same* fault plan and seed, so
faults hit both sides of the pair identically.

Expectations encoded as checks:

* on the healthy machine prefetching still wins (sanity);
* observed disk errors grow with the injected intensity;
* the machine degrades monotonically — higher intensity means more total
  time, since every error costs a retry round-trip plus backoff;
* retries never amplify pathologically (bounded by the retry budget).

A second scenario, :func:`chaos_fail_stop`, kills one disk outright at a
quarter of the healthy run time (with recovery at three quarters) and
checks that the run completes, that execution time degrades, and that
disks other than the victim see no retries at all — failure isolation,
asserted again in ``tests/faults/test_degraded.py``.

A third, :func:`chaos_writeback_fail_slow`, drives a *read-write*
pattern while one disk fail-slows mid-run: background and eviction
flushes aimed at the sick disk time out and retry through the same
resilience layer demand reads use, dirty blocks pile up behind the slow
writebacks, and the run must still complete with the slowdown visible in
``time_degraded`` — the write path inherits the fault story, it does not
get its own.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..faults.plan import (
    FailSlow,
    FailStop,
    FaultPlan,
    ResiliencePolicy,
    TransientErrors,
)
from ..workload.patterns import PATTERN_NAMES
from .config import ExperimentConfig
from .figures import FigureData

__all__ = [
    "CHAOS_INTENSITIES",
    "chaos_config",
    "chaos_prefetch_under_faults",
    "chaos_fail_stop",
    "chaos_writeback_fail_slow",
]

#: Per-completion transient-error probabilities swept by the chaos figure.
CHAOS_INTENSITIES: Tuple[float, ...] = (0.0, 0.05, 0.15)

#: Downscaled machine so the full sweep (6 patterns x 3 intensities x 2)
#: stays interactive; the dynamics of interest (retry round-trips,
#: backoff, queueing on sick disks) do not need 20 nodes to appear.
_CHAOS_NODES = 8
_CHAOS_BLOCKS = 640
_CHAOS_READS = 640


def _transient_plan(probability: float, n_disks: int) -> Optional[FaultPlan]:
    """Uniform transient-error plan over every disk; None when healthy."""
    if probability == 0.0:
        return None
    return FaultPlan(
        faults=tuple(
            TransientErrors(disk=d, probability=probability)
            for d in range(n_disks)
        ),
        # Generous retry budget: at p=0.15 the chance of nine straight
        # errored transfers (retry exhaustion, which kills the reader) is
        # ~4e-8 — negligible across the whole sweep.  Cheap backoff keeps
        # the retry cost dominated by the extra disk round-trip.
        resilience=ResiliencePolicy(
            max_retries=8, backoff_base=2.0, backoff_max=50.0
        ),
        name=f"transient-p{probability}",
    )


def chaos_config(
    pattern: str,
    intensity: float,
    seed: int = 1,
    faults: Optional[FaultPlan] = None,
) -> ExperimentConfig:
    """The downscaled configuration the chaos experiments run."""
    if faults is None:
        faults = _transient_plan(intensity, _CHAOS_NODES)
    return ExperimentConfig(
        pattern=pattern,
        sync_style="none",
        seed=seed,
        n_nodes=_CHAOS_NODES,
        n_disks=_CHAOS_NODES,
        file_blocks=_CHAOS_BLOCKS,
        total_reads=_CHAOS_READS,
        faults=faults,
    )


def chaos_prefetch_under_faults(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """Sweep transient-error intensity across the paper's six patterns."""
    from ..perf.executor import execute_pairs

    cells = [
        (pattern, intensity)
        for pattern in PATTERN_NAMES
        for intensity in CHAOS_INTENSITIES
    ]
    paired = execute_pairs(
        [
            chaos_config(pattern, intensity, seed=seed)
            for pattern, intensity in cells
        ],
        jobs=jobs,
        cache=cache,
    )
    rows: List[tuple] = []
    # Aggregates across patterns, keyed by intensity.
    total_by_intensity = {p: 0.0 for p in CHAOS_INTENSITIES}
    base_by_intensity = {p: 0.0 for p in CHAOS_INTENSITIES}
    errors_by_intensity = {p: 0 for p in CHAOS_INTENSITIES}
    retries_by_intensity = {p: 0 for p in CHAOS_INTENSITIES}
    for (pattern, intensity), (prefetch, baseline) in zip(cells, paired):
        total_by_intensity[intensity] += prefetch.total_time
        base_by_intensity[intensity] += baseline.total_time
        errors_by_intensity[intensity] += (
            prefetch.disk_errors + baseline.disk_errors
        )
        retries_by_intensity[intensity] += (
            prefetch.disk_retries + baseline.disk_retries
        )
        rows.append(
            (
                pattern,
                intensity,
                baseline.total_time,
                prefetch.total_time,
                prefetch.disk_errors,
                prefetch.disk_retries,
                prefetch.read_p99,
                prefetch.time_degraded,
            )
        )
    healthy, mid, high = CHAOS_INTENSITIES
    # Bounded retry amplification: with the default retry budget every
    # error costs at most one retry (transient errors rarely repeat at
    # these intensities), so retries should track errors closely.
    amplification_ok = all(
        retries_by_intensity[p] <= 2 * errors_by_intensity[p]
        for p in (mid, high)
    )
    return FigureData(
        figure_id="chaos",
        title="Prefetch benefit vs transient-fault intensity "
        "(all disks, paired runs)",
        columns=[
            "pattern",
            "error prob",
            "no-prefetch total (ms)",
            "prefetch total (ms)",
            "errors",
            "retries",
            "read p99 (ms)",
            "degraded (ms)",
        ],
        rows=rows,
        checks={
            "prefetch_wins_when_healthy": total_by_intensity[healthy]
            < base_by_intensity[healthy],
            "errors_scale_with_intensity": 0
            == errors_by_intensity[healthy]
            < errors_by_intensity[mid]
            < errors_by_intensity[high],
            "degradation_monotone": total_by_intensity[healthy]
            < total_by_intensity[mid]
            < total_by_intensity[high],
            "retries_bounded": amplification_ok,
        },
        notes="Faults hit prefetch and baseline runs identically (same "
        "plan, same seed); every error costs a retry round-trip plus "
        "deterministic backoff.",
    )


def chaos_fail_stop(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """One disk fail-stops mid-run and later recovers.

    The healthy run is measured first to place the outage window at
    [25%, 75%] of its span.  The timeout lets readers aimed at the dead
    disk hedge and back off instead of sleeping out the whole outage; it
    is set well above any healthy queueing delay under ``lfp`` (disjoint
    portions, shallow disk queues) so healthy disks never time out —
    failure isolation, checked below.  The large retry budget guarantees
    readers outlast the outage rather than exhausting mid-way.

    The two stages depend on each other (the healthy span places the
    outage), so ``jobs`` buys nothing here; ``cache`` still memoizes
    both runs.
    """
    from ..perf.executor import execute_runs

    pattern = "lfp"
    healthy = execute_runs(
        [chaos_config(pattern, 0.0, seed=seed)], cache=cache
    )[0]
    span = healthy.total_time
    victim = 0
    plan = FaultPlan(
        faults=(
            FailStop(disk=victim, at=0.25 * span, recover=0.75 * span),
        ),
        resilience=ResiliencePolicy(
            timeout=240.0,
            max_retries=40,
            backoff_base=10.0,
            backoff_max=120.0,
        ),
        name=f"fail-stop-disk{victim}",
    )
    faulted = execute_runs(
        [chaos_config(pattern, 0.0, seed=seed, faults=plan)], cache=cache
    )[0]
    other_retries = sum(
        count
        for disk, count in faulted.retries_by_disk.items()
        if disk != victim
    )
    rows = [
        (
            "healthy",
            healthy.total_time,
            healthy.read_p99,
            healthy.disk_retries,
            healthy.disk_timeouts,
            healthy.time_degraded,
        ),
        (
            "fail-stop",
            faulted.total_time,
            faulted.read_p99,
            faulted.disk_retries,
            faulted.disk_timeouts,
            faulted.time_degraded,
        ),
    ]
    return FigureData(
        figure_id="chaos-failstop",
        title=f"Fail-stop of disk {victim} during a {pattern} run "
        "(recovery mid-run)",
        columns=[
            "scenario",
            "total (ms)",
            "read p99 (ms)",
            "retries",
            "timeouts",
            "degraded (ms)",
        ],
        rows=rows,
        checks={
            "run_completes": faulted.total_time > 0.0,
            "execution_degrades": faulted.total_time > healthy.total_time,
            "outage_observed": faulted.disk_timeouts > 0,
            "healthy_disks_isolated": other_retries == 0,
            "degraded_time_covers_outage": faulted.time_degraded
            >= 0.5 * span * 0.99,
        },
        notes="Demand reads aimed at the dead disk time out, back off and "
        "re-issue until recovery; the breaker keeps prefetch off the "
        "victim so healthy disks never see retry traffic.",
    )


def chaos_writeback_fail_slow(
    seed: int = 1, *, jobs: int = 1, cache=None
) -> FigureData:
    """One disk fail-slows mid-run while a read-write workload dirties
    the cache: writeback traffic must survive the slowdown.

    The healthy read-write run is measured first to place the slow
    window at [25%, 75%] of its span and to calibrate the request
    timeout: 2.5x the healthy mean disk response sits far above any
    healthy completion but well under the x6 slowdown, so requests —
    demand reads *and* writebacks, which share the resilience layer —
    aimed at the sick disk time out, back off, and retry, while healthy
    disks never trip.  Dirty blocks queue up behind the slow flushes
    (the sick disk serves a stripe of every node's blocks), so the
    dirty peak and throttle pressure rise with the fault; the checks
    pin the qualitative story, not magnitudes.
    """
    from ..perf.executor import execute_runs

    pattern = "lfp-rw"
    healthy = execute_runs(
        [chaos_config(pattern, 0.0, seed=seed)], cache=cache
    )[0]
    span = healthy.total_time
    victim = 0
    plan = FaultPlan(
        faults=(
            FailSlow(
                disk=victim,
                factor=6.0,
                start=0.25 * span,
                end=0.75 * span,
            ),
        ),
        resilience=ResiliencePolicy(
            timeout=max(2.5 * healthy.disk_response_mean, 40.0),
            max_retries=40,
            backoff_base=10.0,
            backoff_max=120.0,
        ),
        name=f"writeback-fail-slow-disk{victim}",
    )
    faulted = execute_runs(
        [chaos_config(pattern, 0.0, seed=seed, faults=plan)], cache=cache
    )[0]
    rows = [
        (
            "healthy",
            healthy.total_time,
            healthy.total_writes,
            healthy.flush_count,
            healthy.flush_failures,
            healthy.dirty_peak,
            healthy.throttle_stall_time,
            healthy.disk_retries,
            healthy.time_degraded,
        ),
        (
            "fail-slow",
            faulted.total_time,
            faulted.total_writes,
            faulted.flush_count,
            faulted.flush_failures,
            faulted.dirty_peak,
            faulted.throttle_stall_time,
            faulted.disk_retries,
            faulted.time_degraded,
        ),
    ]
    return FigureData(
        figure_id="chaos-writeback",
        title=f"Writeback under fail-slow of disk {victim} "
        f"during a {pattern} run",
        columns=[
            "scenario",
            "total (ms)",
            "writes",
            "flushes",
            "flush failures",
            "dirty peak",
            "throttle stall (ms)",
            "retries",
            "degraded (ms)",
        ],
        rows=rows,
        checks={
            "run_completes": faulted.total_time > 0.0,
            "writes_flushed": faulted.flush_count > 0,
            "faults_observed": faulted.disk_retries > 0,
            "slowdown_detected": faulted.time_degraded > 0.0,
            "execution_degrades": faulted.total_time > healthy.total_time,
            "no_foreground_write_deaths": faulted.flush_failures == 0,
        },
        notes="Writebacks retry through the same supervised path demand "
        "reads use; a flush failure would re-dirty the block and retry "
        "later, and none should exhaust the budget at this severity.",
    )
