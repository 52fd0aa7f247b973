"""Integration tests for the experiment runner.

Small configurations (4 nodes, short strings) so the whole file runs in a
few seconds while still exercising every subsystem together.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.experiments import ExperimentConfig, run_experiment, run_pair
from repro.faults import FailSlow, FaultPlan, ResiliencePolicy, TransientErrors
from repro.obs import ObsRecorder

SMALL = dict(n_nodes=4, n_disks=4, file_blocks=200, total_reads=200)

#: The fail-slow plus transient plan of the pinned faulted kernel cell
#: (``tests/test_write_preservation.py``).
FAIL_SLOW_TRANSIENT = FaultPlan(
    faults=(
        FailSlow(disk=1, factor=5.0, start=100.0, end=900.0),
        TransientErrors(disk=2, probability=0.3, start=100.0, end=800.0),
    ),
    resilience=ResiliencePolicy(
        timeout=240.0, max_retries=40, backoff_base=10.0, backoff_max=120.0
    ),
)

#: Every probe point the simulator emits.
PROBE_POINTS = (
    "fs.access",
    "fs.unused_prefetch",
    "fs.write_pressure",
    "fs.read",
    "fs.write",
    "fs.throttle",
    "disk.request",
    "prefetch.action",
    "writeback.action",
    "faults.signal",
    "app.claim",
    "app.compute",
    "app.sync_joins",
)


def small_config(**kwargs):
    merged = {**SMALL, **kwargs}
    return ExperimentConfig(**merged)


def test_run_completes_and_accounts_all_reads():
    r = run_experiment(small_config(pattern="gw", sync_style="per-proc"))
    assert r.total_accesses == 200
    assert r.total_time > 0
    assert r.blocks_demand_fetched + r.blocks_prefetched >= 200 * r.miss_ratio


def test_baseline_never_prefetches():
    r = run_experiment(small_config(prefetch=False))
    assert r.blocks_prefetched == 0
    assert r.prefetch_outcomes == {}
    assert r.hit_ratio == 0.0  # gw: no reuse, no prefetch => all misses


def test_prefetch_improves_gw():
    pf, base = run_pair(small_config(pattern="gw", sync_style="per-proc"))
    assert pf.hit_ratio > 0.5
    assert pf.avg_read_time < base.avg_read_time
    assert pf.blocks_prefetched > 0


def test_deterministic_given_seed():
    cfg = small_config(pattern="grp", sync_style="total", seed=5)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.total_time == b.total_time
    assert a.hit_ratio == b.hit_ratio
    assert a.metrics.read_times.samples == b.metrics.read_times.samples


def test_different_seeds_differ():
    a = run_experiment(small_config(seed=1, compute_mean=20.0))
    b = run_experiment(small_config(seed=2, compute_mean=20.0))
    assert a.total_time != b.total_time


def test_every_pattern_runs_to_completion():
    for pattern in ("lfp", "lrp", "lw", "gfp", "grp", "gw"):
        r = run_experiment(small_config(pattern=pattern))
        assert r.total_accesses == 200, pattern


def test_every_sync_style_runs_to_completion():
    for sync in ("none", "per-proc", "total", "portion"):
        r = run_experiment(
            small_config(pattern="gfp", sync_style=sync, total_k=50)
        )
        assert r.total_accesses == 200, sync


def test_sync_waits_recorded():
    r = run_experiment(
        small_config(pattern="gw", sync_style="per-proc", per_proc_k=10)
    )
    assert r.sync_wait_count > 0
    assert r.sync_wait_mean >= 0.0


def test_predictor_policies_run():
    for policy in ("obl", "portion", "global-seq"):
        r = run_experiment(small_config(pattern="gw", policy=policy))
        assert r.total_accesses == 200, policy


def test_global_seq_predictor_prefetches_gw():
    r = run_experiment(small_config(pattern="gw", policy="global-seq"))
    assert r.blocks_prefetched > 0
    assert r.hit_ratio > 0.2


def test_lead_config_respected():
    r = run_experiment(small_config(pattern="gw", lead=20))
    # With a lead the first `lead` blocks cannot be prefetched.
    assert r.miss_ratio > 0.05


def test_trace_recorded_when_requested():
    r = run_experiment(small_config(record_trace=True))
    assert r.trace is not None
    assert len(r.trace) == 200
    r2 = run_experiment(small_config(record_trace=False))
    assert r2.trace is None


def test_idle_accounting_present():
    r = run_experiment(small_config(pattern="gw", sync_style="per-proc"))
    assert set(r.idle_by_kind) == {"sync", "self_io", "remote_io"}
    sync_mean, sync_actual, sync_count = r.idle_by_kind["sync"]
    assert sync_count > 0
    assert sync_actual >= sync_mean


def test_run_pair_accepts_baseline_config():
    cfg = small_config(prefetch=False)
    pf, base = run_pair(cfg)
    assert pf.config.prefetch
    assert not base.config.prefetch


def test_naive_memory_layout_slows_things_down():
    fast = run_experiment(small_config(seed=3))
    slow = run_experiment(
        small_config(seed=3, replicated_structures=False)
    )
    assert slow.avg_read_time > fast.avg_read_time


def test_seek_disk_model_runs():
    r = run_experiment(small_config(disk_model="seek"))
    assert r.total_accesses == 200


class _CacheWatcher:
    """Instrumentation that keeps only a weak reference to the cache."""

    cache_ref = None

    def on_environment(self, env):
        pass

    def on_wired(self, env, machine, cache):
        self.cache_ref = weakref.ref(cache)


@pytest.mark.parametrize(
    "pattern, policy, faults",
    [
        ("gw", "oracle", None),
        ("gw", "adaptive", FAIL_SLOW_TRANSIENT),
        ("lfp-rw", "adaptive", FAIL_SLOW_TRANSIENT),
    ],
    ids=["gw-oracle", "gw-adaptive-faulted", "lfp-rw-adaptive-faulted"],
)
def test_held_result_does_not_keep_its_run_alive(pattern, policy, faults):
    # A result holds its environment (through ``metrics``); the probe
    # subscribers on it must not keep the cache/policy/machine graph.
    watcher = _CacheWatcher()
    result = run_experiment(
        small_config(pattern=pattern, policy=policy, faults=faults),
        instrument=watcher,
    )
    gc.collect()
    assert result.metrics is not None
    assert watcher.cache_ref() is None


class _ObservedWatcher:
    """An obs recorder wired into the run; the machine held weakly."""

    machine_ref = None

    def __init__(self):
        self.recorder = ObsRecorder()

    def on_environment(self, env):
        self.recorder.on_environment(env)

    def on_wired(self, env, machine, cache):
        self.machine_ref = weakref.ref(machine)
        self.recorder.on_wired(env, machine, cache)


def test_held_obs_result_does_not_keep_its_recorder_alive():
    # The timeline sampler is a step observer on the environment the
    # result holds; its registry's gauges read the machine.
    watcher = _ObservedWatcher()
    result = run_experiment(small_config(), instrument=watcher)
    data = watcher.recorder.finalize(result)
    registry_ref = weakref.ref(data.timelines)
    machine_ref = watcher.machine_ref
    del watcher, data
    gc.collect()
    assert result.metrics is not None
    assert registry_ref() is None
    assert machine_ref() is None


class _ProbeCounter:
    """Counts the emissions of every probe point."""

    def __init__(self):
        self.counts = Counter()

    def on_environment(self, env):
        for point in PROBE_POINTS:
            env.subscribe(point, self._counter(point))

    def on_wired(self, env, machine, cache):
        pass

    def _counter(self, point):
        def count(*args):
            self.counts[point] += 1

        return count


def test_every_probe_point_fires():
    # Point names are strings: a typo in an emitter or a subscriber would
    # fail silently.  The faulted lfp-rw adaptive cell reaches them all
    # but fs.unused_prefetch (covered in tests/fs/test_unused_prefetch.py).
    counter = _ProbeCounter()
    result = run_experiment(
        small_config(
            pattern="lfp-rw",
            policy="adaptive",
            sync_style="none",
            seed=1,
            faults=FAIL_SLOW_TRANSIENT,
        ),
        instrument=counter,
    )
    silent = [
        point
        for point in PROBE_POINTS
        if point != "fs.unused_prefetch" and not counter.counts[point]
    ]
    assert silent == []
    # 200 accesses: every one reaches fs.access and the three app points,
    # and exactly one of fs.read / fs.write.
    assert counter.counts["fs.read"] == result.total_accesses
    assert counter.counts["fs.write"] == result.total_writes
    assert result.total_accesses + result.total_writes == 200
    for point in ("fs.access", "app.claim", "app.compute", "app.sync_joins"):
        assert counter.counts[point] == 200
