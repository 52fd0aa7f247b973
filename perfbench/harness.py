"""Timed loop, output checks and metrics of one benchmark workload.

Run shape: a closed batch in one process.  One warm-up simulation and a
``gc.collect()`` come first; then the workload's whole simulation list
runs back to back, pass after pass, until the run length is reached (a
run is always whole passes, never a time box).  Simulations are
single-threaded, call ``run_experiment`` directly, and so never touch the
run cache.

Between consecutive simulations the harness collects garbage and times
the host-speed probe (:mod:`perfbench.probe`); each simulation's wall
time is scaled by ``NOMINAL_MS / mean(probe before, probe after)``.
Everything the harness does between simulations is outside the timed
regions.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import pstats
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro
from repro.experiments.runner import RunResult, run_experiment
from repro.obs.recorder import ObsRecorder

from .probe import NOMINAL_MS, Probe
from .workloads import Sim

#: RunResult fields that make up a simulation's digest: the paper's
#: measures plus the exact fetch, action, write and fault counters.
#: ``n_events`` and the field layout are deliberately left out, so a
#: change that restructures RunResult or removes events without changing
#: results still matches.
MODEL_MEASURES = (
    "total_time",
    "avg_read_time",
    "median_read_time",
    "hit_ratio",
    "ready_hit_fraction",
    "unready_hit_fraction",
    "avg_hit_wait",
    "avg_hit_wait_all",
    "disk_response_mean",
    "disk_utilization",
    "sync_wait_mean",
    "sync_wait_count",
    "overrun_mean",
    "overrun_total",
    "blocks_demand_fetched",
    "blocks_prefetched",
    "total_accesses",
    "prefetch_action_mean",
    "failed_action_count",
    "prefetch_outcomes",
    "read_p50",
    "read_p99",
    "prefetch_unused_evicted",
    "prefetch_unused_at_end",
    "node_attribution",
    "total_writes",
    "write_avg",
    "write_p99",
    "dirty_peak",
    "flushes_by_reason",
    "flush_failures",
    "throttle_stall_time",
    "flush_outcomes",
    "disk_errors",
    "disk_retries",
    "disk_timeouts",
    "breaker_opens",
    "failslow_detections",
    "prefetch_write_offs",
    "time_degraded",
)

#: Event classes reported one by one; any other class counts as "other".
EVENT_CLASSES = (
    "Timeout",
    "Request",
    "Release",
    "Event",
    "StorePut",
    "StoreGet",
    "Initialize",
    "Process",
    "AllOf",
    "Condition",
)

PREFETCH_OUTCOMES = (
    "success",
    "no_candidate",
    "budget_full",
    "no_buffer",
    "already_cached",
    "suspended",
)
FLUSH_REASONS = ("background", "throttle", "eviction", "write-through")
FLUSH_OUTCOMES = ("success", "clean", "suspended")

#: ``repro`` subpackages with a self-time row; every other frame
#: (builtins, heapq, numpy, the rest of ``repro``) is "other".
LAYERS = (
    "sim",
    "machine",
    "fs",
    "prefetch",
    "workload",
    "faults",
    "obs",
    "metrics",
    "experiments",
    "analysis",
)

#: Files filed under another layer than their package: the runner calls
#: the attribution on every run to assemble ``RunResult``, so it is
#: result assembly, not observer work.
_FILE_LAYERS = {("obs", "attribution.py"): "experiments"}

_REPRO_DIR = Path(repro.__file__).resolve().parent
_BENCH_DIR = Path(__file__).resolve().parent


def digest(result: RunResult) -> str:
    """blake2b over the named model measures of one simulation."""
    payload = {name: getattr(result, name) for name in MODEL_MEASURES}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


class _Instrument:
    """Run instrumentation that keeps the machine for the post-run
    invariant sweep and forwards hooks to an optional recorder and
    step observer.  Adds no events and no per-event work of its own."""

    def __init__(self, recorder=None, step_observer=None) -> None:
        self.recorder = recorder
        self.step_observer = step_observer
        self.machine = None

    def on_environment(self, env) -> None:
        if self.step_observer is not None:
            env.add_step_observer(self.step_observer)
        if self.recorder is not None:
            self.recorder.on_environment(env)

    def on_wired(self, env, machine, cache) -> None:
        self.machine = machine
        if self.recorder is not None:
            self.recorder.on_wired(env, machine, cache)

    def on_apps(self, env, server, apps) -> None:
        if self.recorder is not None:
            self.recorder.on_apps(env, server, apps)


@dataclass
class Outcome:
    """What one simulation produced, as far as the metrics need it."""

    result: Optional[RunResult] = None
    digest: str = ""
    spans: int = 0
    disk_requests: int = 0
    failure: str = ""


def _simulate(sim: Sim, step_observer=None, profile=None):
    """Run one simulation; return ``(outcome, raw seconds)``.

    Only the simulation itself (and, for obs-on cells, the recorder's
    finalize, which obs users pay too) is inside the timed region.
    """
    recorder = ObsRecorder() if sim.obs else None
    instrument = _Instrument(recorder, step_observer)
    outcome = Outcome()
    start = time.perf_counter()
    try:
        if profile is not None:
            profile.enable()
        try:
            result = run_experiment(sim.config, instrument=instrument)
            if recorder is not None:
                recorder.finalize(result)
        finally:
            if profile is not None:
                profile.disable()
    except Exception:
        elapsed = time.perf_counter() - start
        outcome.failure = "raised: " + traceback.format_exc(limit=3)
        return outcome, elapsed
    elapsed = time.perf_counter() - start
    outcome.result = result
    try:
        for disk in instrument.machine.disks:
            disk.check_invariants()
    except Exception:
        outcome.failure = "invariant: " + traceback.format_exc(limit=2)
    outcome.disk_requests = sum(
        disk.blocks_served for disk in instrument.machine.disks
    )
    outcome.spans = len(recorder.spans) if recorder is not None else 0
    if not outcome.failure:
        outcome.failure = _mismatch(sim, result)
    outcome.digest = digest(result)
    return outcome, elapsed


def _mismatch(sim: Sim, result: RunResult) -> str:
    """How ``result`` departs from what ``sim`` configured; empty when it
    does not."""
    completed = result.total_accesses + result.total_writes
    if completed != sim.accesses:
        return f"completed {completed} of {sim.accesses} accesses"
    style = sim.config.sync_style
    if style != "none" and not result.sync_wait_count:
        # At a sizing too small for its barrier, a synchronized cell is a
        # sync-none run under another label.
        return f"sync style {style!r} never reached a barrier"
    return ""


@dataclass
class Run:
    """Everything one run of a workload measured."""

    sims: List[Sim]
    #: First-pass outcome of each simulation.
    outcomes: List[Outcome]
    #: Raw and normalized seconds of each simulation, one per pass
    #: (failed simulations are not timed).
    raw_s: List[List[float]]
    norm_s: List[List[float]]
    probes_ms: List[float] = field(default_factory=list)
    #: Working set of the run's probe, left out of ``peak_rss_mib``.
    probe_kib: int = 0
    passes: int = 0
    failures: List[str] = field(default_factory=list)
    attempted: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def samples(self) -> List[float]:
        """Every normalized simulation time, in seconds."""
        return [t for cell in self.norm_s for t in cell]

    def cell_seconds(self) -> Dict[int, float]:
        """Median normalized seconds of each timed simulation over the
        passes; the median drops the passes a host hiccup hit."""
        return {
            index: statistics.median(times)
            for index, times in enumerate(self.norm_s)
            if times
        }

    def pass_seconds(self) -> List[tuple]:
        """``(raw, normalized)`` seconds of each pass."""
        return [
            (
                sum(cell[k] for cell in self.raw_s if len(cell) > k),
                sum(cell[k] for cell in self.norm_s if len(cell) > k),
            )
            for k in range(self.passes)
        ]


class _ProbedClock:
    """Probe timings between simulations, and the scaling they imply."""

    def __init__(self, probe: Probe, probes: List[float]) -> None:
        self.probe = probe
        self.probes = probes
        gc.collect()
        self.last = self.probe.time_ms()
        probes.append(self.last)

    def normalize(self, raw_s: float) -> float:
        """Probe again and scale ``raw_s`` by the adjacent probes."""
        gc.collect()
        probe = self.probe.time_ms()
        self.probes.append(probe)
        factor = NOMINAL_MS / ((self.last + probe) / 2.0)
        self.last = probe
        return raw_s * factor


def _check(run: Run, index: int, outcome: Outcome) -> str:
    """Why ``outcome`` failed, comparing it with its first pass and with
    its obs-off twin; empty when it passed."""
    sim = run.sims[index]
    first = run.outcomes[index]
    if outcome.failure:
        return outcome.failure
    if first is not outcome and outcome.digest != first.digest:
        return "result differs from the first pass"
    twin = sim.twin
    if twin is not None and outcome.digest != run.outcomes[twin].digest:
        return "obs-on result differs from its obs-off twin"
    return ""


def measure(
    sims: Sequence[Sim], seconds: float, probe: Optional[Probe] = None
) -> Run:
    """Warm up, then run whole passes of ``sims`` until ``seconds`` of
    wall time have gone by.  ``probe`` is the process's probe; a fresh
    one is built when it is not given."""
    sims = list(sims)
    _simulate(sims[0])
    probe = probe or Probe()
    run = Run(
        sims=sims,
        outcomes=[Outcome() for _ in sims],
        raw_s=[[] for _ in sims],
        norm_s=[[] for _ in sims],
        probe_kib=probe.rss_kib,
    )
    clock = _ProbedClock(probe, run.probes_ms)
    start = time.perf_counter()
    while run.passes == 0 or time.perf_counter() - start < seconds:
        for index, sim in enumerate(sims):
            outcome, raw_s = _simulate(sim)
            norm_s = clock.normalize(raw_s)
            run.attempted += 1
            if run.passes == 0:
                run.outcomes[index] = outcome
            failure = _check(run, index, outcome)
            if failure:
                run.failures.append(f"{sim.label}: {failure}")
            else:
                run.raw_s[index].append(raw_s)
                run.norm_s[index].append(norm_s)
        run.passes += 1
    return run


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def hd_median(values: Sequence[float], steps: int = 64) -> float:
    """Harrell-Davis estimate of the median of ``values``.

    It is a mean of all order statistics, weighted by how likely each is
    to be the median of a fresh sample (a Beta((n+1)/2, (n+1)/2)
    density, integrated by the midpoint rule over ``steps`` points per
    order statistic).  A workload's simulations differ in length, so the
    plain median jumps between whichever one or two simulations sit in
    the middle; this estimate averages over the neighbours too.
    """
    xs = sorted(values)
    n = len(xs)
    exponent = (n - 1) / 2.0
    weights = []
    for i in range(n):
        weight = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            weight += math.exp(exponent * math.log(4.0 * t * (1.0 - t)))
        weights.append(weight)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _results(run: Run) -> List[RunResult]:
    return [o.result for o in run.outcomes if o.result is not None]


def _accesses(result: RunResult) -> int:
    return result.total_accesses + result.total_writes


def _per_cell_rate(run: Run, count) -> float:
    """``count(result)`` summed over the timed simulations, per second of
    their summed per-simulation median times."""
    cells = run.cell_seconds()
    total = sum(count(run.outcomes[index].result) for index in cells)
    return total / sum(cells.values())


def end_to_end(run: Run, setup_s: float) -> Dict[str, float]:
    """The seven end-to-end metrics of one run."""
    results = _results(run)
    readers = [r.avg_read_time for r in results if r.total_accesses]
    return {
        "accesses_per_s": _per_cell_rate(run, _accesses),
        "sim_ms_p50": hd_median(list(run.cell_seconds().values())) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - run.probe_kib
        )
        / 1024.0,
        "model_total_ms": _mean([r.total_time for r in results]),
        "model_read_ms": _mean(readers),
        "ok_frac": 1.0 - run.failed / run.attempted,
    }


def pinned_matches(run: Run, pins: Dict[str, str]) -> int:
    """How many simulations match their pinned digest."""
    return sum(
        1
        for sim, outcome in zip(run.sims, run.outcomes)
        if sim.label in pins and pins[sim.label] == outcome.digest
    )


def _layer_of(filename: str) -> Optional[str]:
    """Layer of a profiled frame's file; None for the harness's own."""
    try:
        path = Path(filename).resolve()
    except (OSError, ValueError):
        return "other"
    if path.is_relative_to(_BENCH_DIR):
        return None
    if path.is_relative_to(_REPRO_DIR):
        parts = path.relative_to(_REPRO_DIR).parts
        if parts in _FILE_LAYERS:
            return _FILE_LAYERS[parts]
        if len(parts) > 1 and parts[0] in LAYERS:
            return parts[0]
    return "other"


@dataclass
class Traced:
    """The profiled pass: self time per layer and events per class."""

    self_s: Dict[str, float]
    events: Dict[str, int]
    norm_s: float
    accesses: int


def traced_pass(sims: Sequence[Sim], probe: Optional[Probe] = None) -> Traced:
    """One pass under cProfile, with an event-class counter attached
    through ``Environment.add_step_observer``."""
    counts: Dict[type, int] = defaultdict(int)

    def count_event(now, priority, sequence, event) -> None:
        counts[event.__class__] += 1

    profile = cProfile.Profile()
    clock = _ProbedClock(probe or Probe(), [])
    norm_s = 0.0
    accesses = 0
    for sim in sims:
        outcome, raw_s = _simulate(sim, count_event, profile)
        norm_s += clock.normalize(raw_s)
        if outcome.result is not None:
            accesses += _accesses(outcome.result)
    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    layers: Dict[str, Optional[str]] = {}
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        if filename not in layers:
            layers[filename] = _layer_of(filename)
        if layers[filename] is not None:
            self_s[layers[filename]] += row[2]
    events = {name: 0 for name in EVENT_CLASSES + ("other",)}
    for cls, count in counts.items():
        name = cls.__name__.lstrip("_")
        events[name if name in events else "other"] += count
    return Traced(self_s, events, norm_s, accesses)


def per_layer(
    run: Run, traced: Traced, pins: Dict[str, str]
) -> Dict[str, float]:
    """The per-layer metrics: exact counters of the untraced run's first
    pass, harness figures, and self time from the traced pass."""
    results = _results(run)
    outcomes = [o for o in run.outcomes if o.result is not None]
    accesses = sum(_accesses(r) for r in results)
    events = sum(r.n_events for r in results)
    reads = sum(r.total_accesses for r in results)
    hits = sum(round(r.hit_ratio * r.total_accesses) for r in results)
    unready = sum(
        round(r.unready_hit_fraction * r.total_accesses) for r in results
    )
    readers = [r for r in results if r.total_accesses]
    writers = [r for r in results if r.total_writes]
    served = [r for r in results if r.disk_response_mean]

    def total(get) -> float:
        return sum(get(r) for r in results)

    def node_mean(component: str) -> float:
        return _mean(
            [
                _mean([entry[component] for entry in r.node_attribution])
                for r in results
            ]
        )

    metrics: Dict[str, float] = {}
    for layer in LAYERS + ("other",):
        metrics[f"{layer}.self_us"] = (
            traced.self_s[layer] * 1e6 / traced.accesses
        )
    metrics["sim.events_per_access"] = events / accesses
    metrics["sim.events_per_s"] = _per_cell_rate(run, lambda r: r.n_events)
    for name, count in traced.events.items():
        metrics[f"sim.events.{name}"] = count

    metrics["machine.disk_util"] = _mean([r.disk_utilization for r in results])
    metrics["machine.disk_resp_ms"] = _mean(
        [r.disk_response_mean for r in served]
    )
    metrics["machine.disk_requests"] = sum(o.disk_requests for o in outcomes)
    metrics["machine.overrun_ms"] = _mean([r.overrun_total for r in results])
    for component in ("compute", "demand_stall", "sync_wait", "daemon_theft"):
        metrics[f"machine.node.{component}_ms"] = node_mean(component)

    metrics["fs.hit_ratio"] = hits / reads if reads else 0.0
    metrics["fs.unready_hit_frac"] = unready / reads if reads else 0.0
    metrics["fs.hit_wait_ms"] = _mean([r.avg_hit_wait_all for r in readers])
    metrics["fs.demand_fetches"] = total(lambda r: r.blocks_demand_fetched)
    metrics["fs.write_ms"] = _mean([r.write_avg for r in writers])
    metrics["fs.dirty_peak"] = max((r.dirty_peak for r in results), default=0)
    metrics["fs.throttle_stall_ms"] = total(lambda r: r.throttle_stall_time)
    for reason in FLUSH_REASONS:
        metrics[f"fs.flushes.{reason}"] = total(
            lambda r: r.flushes_by_reason.get(reason, 0)
        )
    for outcome in FLUSH_OUTCOMES:
        metrics[f"fs.flush_actions.{outcome}"] = total(
            lambda r: r.flush_outcomes.get(outcome, 0)
        )

    actions = total(lambda r: sum(r.prefetch_outcomes.values()))
    metrics["prefetch.actions"] = actions / accesses
    for outcome in PREFETCH_OUTCOMES:
        metrics[f"prefetch.actions.{outcome}"] = total(
            lambda r: r.prefetch_outcomes.get(outcome, 0)
        )
    prefetched = total(lambda r: r.blocks_prefetched)
    wasted = total(
        lambda r: r.prefetch_unused_evicted + r.prefetch_unused_at_end
    )
    metrics["prefetch.useful_frac"] = (
        (prefetched - wasted) / prefetched if prefetched else 0.0
    )
    successes = total(lambda r: r.prefetch_outcomes.get("success", 0))
    metrics["prefetch.action_ms"] = (
        total(
            lambda r: r.prefetch_action_mean
            * r.prefetch_outcomes.get("success", 0)
        )
        / successes
        if successes
        else 0.0
    )

    metrics["workload.sync_waits"] = total(lambda r: r.sync_wait_count)

    metrics["faults.errors"] = total(lambda r: r.disk_errors)
    metrics["faults.retries"] = total(lambda r: r.disk_retries)
    metrics["faults.timeouts"] = total(lambda r: r.disk_timeouts)
    metrics["faults.breaker_opens"] = total(lambda r: r.breaker_opens)
    metrics["faults.failslow_detections"] = total(
        lambda r: r.failslow_detections
    )
    metrics["faults.write_offs"] = total(lambda r: r.prefetch_write_offs)
    metrics["faults.degraded_ms"] = total(lambda r: r.time_degraded)

    observed = [
        o
        for sim, o in zip(run.sims, run.outcomes)
        if sim.obs and o.result is not None
    ]
    observed_accesses = sum(_accesses(o.result) for o in observed)
    metrics["obs.spans"] = (
        sum(o.spans for o in observed) / observed_accesses
        if observed_accesses
        else 0.0
    )
    cells = run.cell_seconds()
    twins = [(i, sim.twin) for i, sim in enumerate(run.sims) if sim.obs]
    on_s = sum(cells.get(on, 0.0) for on, _ in twins)
    off_s = sum(cells.get(off, 0.0) for _, off in twins)
    metrics["obs.overhead"] = on_s / off_s if off_s else 0.0

    metrics["host.wall_s"] = sum(sum(cell) for cell in run.raw_s)
    metrics["host.probe_ms"] = statistics.median(run.probes_ms)
    metrics["trace.overhead"] = traced.norm_s / sum(cells.values())
    metrics["check.digest_match"] = pinned_matches(run, pins)
    return metrics


def report_failures(run: Run, out=sys.stderr) -> None:
    for failure in run.failures:
        print(f"FAILED {failure}", file=out)
