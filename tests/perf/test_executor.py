"""The acceptance properties of the parallel executor.

* a ``--jobs 4`` suite reports bit-identical digests to the sequential
  one;
* a cache-warm re-run executes **zero** simulations;
* deduplication collapses identical configs within a batch.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment, run_pair
from repro.experiments.suite import run_suite
from repro.perf.cache import RunCache
from repro.perf.executor import (
    ExecutionStats,
    execute_audits,
    execute_pairs,
    execute_runs,
)
from repro.perf.serialize import results_digest, suite_digest
from repro.workload.suite import WorkloadSpec, balanced_compute_mean

TINY = dict(n_nodes=2, n_disks=2, file_blocks=64, total_reads=64)


def _config(**overrides):
    base = dict(pattern="gw", sync_style="per-proc", seed=1, **TINY)
    base.update(overrides)
    return ExperimentConfig(**base)


def _tiny_specs():
    return [
        WorkloadSpec(
            pattern=pattern,
            sync_style=sync,
            compute_mean=balanced_compute_mean(pattern),
        )
        for pattern, sync in (("gw", "per-proc"), ("lfp", "none"))
    ]


def test_parallel_matches_sequential_digest():
    configs = [
        _config(),
        _config(prefetch=False),
        _config(pattern="lfp", sync_style="none"),
    ]
    sequential = execute_runs(configs, jobs=1)
    parallel = execute_runs(configs, jobs=4)
    assert results_digest(sequential) == results_digest(parallel)


def test_jobs4_suite_digest_equals_sequential():
    specs = _tiny_specs()
    seq = run_suite(seed=1, specs=specs, **TINY)
    par = run_suite(seed=1, specs=specs, jobs=4, **TINY)
    assert suite_digest(seq) == suite_digest(par)


def test_results_return_in_request_order():
    configs = [
        _config(pattern="lfp", sync_style="none"),
        _config(),
        _config(prefetch=False),
    ]
    results = execute_runs(configs, jobs=4)
    assert [r.config for r in results] == configs


def test_dedup_runs_identical_configs_once():
    stats = ExecutionStats()
    results = execute_runs([_config(), _config(), _config()], stats=stats)
    assert stats.requested == 3
    assert stats.executed == 1
    assert stats.deduplicated == 2
    assert results_digest([results[0]]) == results_digest([results[1]])


def test_cache_warm_rerun_executes_nothing(tmp_path):
    specs = _tiny_specs()
    cache = RunCache(tmp_path)
    cold_stats = ExecutionStats()
    cold = run_suite(
        seed=1, specs=specs, cache=cache, stats=cold_stats, **TINY
    )
    assert cold_stats.executed > 0

    warm_stats = ExecutionStats()
    warm = run_suite(
        seed=1, specs=specs, cache=cache, stats=warm_stats, **TINY
    )
    assert warm_stats.executed == 0
    assert warm_stats.cache_hits == warm_stats.requested
    assert suite_digest(warm) == suite_digest(cold)


def test_execute_pairs_matches_run_pair():
    config = _config()
    pf, base = run_pair(config)
    ((pf2, base2),) = execute_pairs([config])
    assert pf2.config.prefetch and not base2.config.prefetch
    assert results_digest([pf, base]) == results_digest([pf2, base2])


def test_parallel_slim_results_match_inprocess_measures():
    configs = [_config(), _config(pattern="lw", sync_style="per-proc")]
    inproc = [run_experiment(c) for c in configs]
    shipped = execute_runs(configs, jobs=2)
    assert results_digest(inproc) == results_digest(shipped)


def test_execute_audits_sequential_and_parallel():
    configs = [_config(), _config().paired_baseline()]
    seq = execute_audits(configs, jobs=1)
    par = execute_audits(configs, jobs=2)
    assert [v["identical"] for v in seq] == [True, True]
    assert seq == par

