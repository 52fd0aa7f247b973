"""Tests for the Fig. 2 taxonomy classifier."""

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.analysis import classify_pattern
from repro.fs.trace import ReplayRecord, ReplayTrace, TraceMeta


def make_trace(accesses):
    return ReplayTrace(
        TraceMeta(workload="unit", n_nodes=4, file_blocks=10_000),
        (
            ReplayRecord(node=n, block=b, time=float(t), outcome="miss",
                         latency=1.0)
            for t, n, b in accesses
        ),
    )


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        classify_pattern(make_trace([]))


def trace_of(pattern, seed=4, **overrides):
    """Record a real (no-prefetch, fast) run of a pattern."""
    config = ExperimentConfig(
        pattern=pattern,
        sync_style="none",
        compute_mean=0.0,
        prefetch=False,
        record_trace=True,
        n_nodes=8,
        n_disks=8,
        file_blocks=800,
        total_reads=800,
        seed=seed,
        **overrides,
    )
    return run_experiment(config).trace


@pytest.mark.parametrize("pattern", ["lfp", "lrp", "lw", "gfp", "grp", "gw"])
def test_classifier_recovers_each_pattern(pattern):
    trace = trace_of(pattern)
    result = classify_pattern(trace)
    assert result.name == pattern, (
        f"{pattern} classified as {result.name} "
        f"(local_seq={result.local_sequentiality:.2f}, "
        f"global_seq={result.global_sequentiality:.2f}, "
        f"overlap={result.overlap_fraction:.2f}, "
        f"cv={result.portion_length_cv:.2f})"
    )


def test_classifier_random_trace():
    blocks = [(i * 379 + 57) % 10_000 for i in range(200)]
    trace = make_trace([(i, i % 4, b) for i, b in enumerate(blocks)])
    result = classify_pattern(trace)
    assert result.name == "random"
    assert result.scope == "random"


def test_classifier_scope_measurements():
    trace = trace_of("gw")
    result = classify_pattern(trace)
    assert result.scope == "global"
    assert result.global_sequentiality > 0.9
    assert result.local_sequentiality < 0.75
    assert not result.overlapped


def test_classifier_lw_is_overlapped():
    trace = trace_of("lw")
    result = classify_pattern(trace)
    assert result.overlapped
    assert result.overlap_fraction == 1.0
    assert result.scope == "local"


def test_classifier_portion_regularity():
    fixed = classify_pattern(trace_of("lfp"))
    random_p = classify_pattern(trace_of("lrp"))
    assert fixed.regular_portions
    assert not random_p.regular_portions
    assert fixed.portion_length_cv < random_p.portion_length_cv
