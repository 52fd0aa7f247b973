"""Property-based tests over the whole simulated system.

Hypothesis drives small random experiment configurations end to end and
asserts structural invariants that must hold for *any* workload:
conservation of references, cache consistency, metric coherence, and
deterministic replay.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, run_experiment

PATTERNS = ("lfp", "lrp", "lw", "gfp", "grp", "gw")
SYNCS = ("none", "per-proc", "total", "portion")


def config_strategy():
    def build(pattern, sync, n_nodes, compute, prefetch, lead, seed):
        if pattern == "lw" and sync == "portion":
            sync = "total"
        total_reads = n_nodes * 20
        return ExperimentConfig(
            pattern=pattern,
            sync_style=sync,
            compute_mean=compute,
            prefetch=prefetch,
            lead=lead,
            n_nodes=n_nodes,
            n_disks=n_nodes,
            file_blocks=max(total_reads, 40),
            total_reads=total_reads,
            per_proc_k=5,
            total_k=20,
            seed=seed,
        )

    return st.builds(
        build,
        pattern=st.sampled_from(PATTERNS),
        sync=st.sampled_from(SYNCS),
        n_nodes=st.integers(min_value=2, max_value=5),
        compute=st.sampled_from([0.0, 5.0, 20.0]),
        prefetch=st.booleans(),
        lead=st.sampled_from([0, 3]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )


@given(config=config_strategy())
@settings(max_examples=25, deadline=None)
def test_every_configuration_conserves_references(config):
    """All references are consumed exactly once and the metrics add up."""
    result = run_experiment(config)
    m = result.metrics

    # Conservation: every reference became exactly one access.
    assert result.total_accesses == config.effective_total_reads
    assert m.hits_ready + m.hits_unready + m.misses == result.total_accesses
    assert m.read_times.count == result.total_accesses

    # Hit-wait is recorded for exactly the unready hits.
    assert m.hit_wait.count == m.hits_unready

    # Fetch accounting: every miss is a demand fetch; prefetches are
    # bounded by the number of references (each reference is claimed at
    # most once per scope).
    assert result.blocks_demand_fetched == m.misses
    assert result.blocks_prefetched <= config.effective_total_reads
    if not config.prefetch:
        assert result.blocks_prefetched == 0
        assert m.hits_unready + m.hits_ready <= result.total_accesses

    # Ratios are coherent.
    assert 0.0 <= result.hit_ratio <= 1.0
    assert abs(result.hit_ratio + result.miss_ratio - 1.0) < 1e-9
    assert (
        abs(
            result.ready_hit_fraction
            + result.unready_hit_fraction
            + result.miss_ratio
            - 1.0
        )
        < 1e-9
    )

    # Time sanity: a block read is never faster than the physical floor
    # and the run is at least as long as the worst single read.
    assert m.read_times.min >= 0.0
    assert result.total_time >= m.read_times.max


@given(config=config_strategy())
@settings(max_examples=10, deadline=None)
def test_replay_determinism(config):
    """The same configuration produces bit-identical results."""
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.total_time == b.total_time
    assert a.metrics.read_times.samples == b.metrics.read_times.samples
    assert a.prefetch_outcomes == b.prefetch_outcomes


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    pattern=st.sampled_from(PATTERNS),
)
@settings(max_examples=15, deadline=None)
def test_prefetching_never_loses_hits(seed, pattern):
    """With the oracle policy, prefetching never *reduces* the hit ratio
    relative to the no-prefetch baseline (it may only add hits)."""
    common = dict(
        pattern=pattern,
        sync_style="per-proc",
        per_proc_k=5,
        n_nodes=3,
        n_disks=3,
        file_blocks=90,
        total_reads=60,
        compute_mean=5.0,
        seed=seed,
    )
    pf = run_experiment(ExperimentConfig(prefetch=True, **common))
    base = run_experiment(ExperimentConfig(prefetch=False, **common))
    assert pf.hit_ratio >= base.hit_ratio - 1e-9


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_disk_conservation(seed):
    """Disks serve exactly the fetches issued (demand + prefetch), modulo
    prefetches still in flight at run end."""
    result = run_experiment(
        ExperimentConfig(
            pattern="gw",
            n_nodes=4,
            n_disks=4,
            file_blocks=80,
            total_reads=80,
            compute_mean=5.0,
            seed=seed,
        )
    )
    issued = result.blocks_demand_fetched + result.blocks_prefetched
    # All demand fetches completed (the run waits on them); at most a
    # handful of prefetch I/Os may still be queued at the instant the last
    # application exits.
    assert result.blocks_demand_fetched <= issued
    assert issued >= result.total_accesses * result.miss_ratio
