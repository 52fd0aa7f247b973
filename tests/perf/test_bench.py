"""Bench harness smoke: report shape, self-checks, baseline comparison.

The real phases run here against a monkeypatched tiny sizing so the
test measures the plumbing, not the hardware.
"""

import json

import pytest

import repro.perf.bench as bench
from repro.perf.bench import compare_baseline, run_bench
from repro.workload.suite import WorkloadSpec, balanced_compute_mean

TINY = {"n_nodes": 2, "n_disks": 2, "file_blocks": 64, "total_reads": 64}


@pytest.fixture()
def tiny_bench(monkeypatch):
    monkeypatch.setattr(bench, "_QUICK_OVERRIDES", TINY)
    monkeypatch.setattr(
        bench,
        "_quick_specs",
        lambda: [
            WorkloadSpec(
                pattern="gw",
                sync_style="per-proc",
                compute_mean=balanced_compute_mean("gw"),
            )
        ],
    )


def test_bench_report_and_json(tiny_bench, tmp_path):
    report = run_bench(
        label="test", quick=True, jobs=2, seed=1, output_dir=tmp_path
    )
    assert report["ok"] is True
    assert report["suite"]["digests_match"]
    assert report["cache"]["digests_match"]
    assert report["cache"]["warm_executed"] == 0
    assert report["cache"]["warm_hit_rate"] == 1.0
    assert report["kernel"]["events_per_s"] > 0
    # The scratch cache is cleaned up; only the report remains.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_test.json"
    ]
    on_disk = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert on_disk["label"] == "test"
    assert on_disk["kernel"]["n_events"] == report["kernel"]["n_events"]


def test_compare_baseline_flags_only_real_regressions(tiny_bench, tmp_path):
    report = run_bench(label="cmp", quick=True, jobs=1, output_dir=tmp_path)
    # Against itself: no regression.
    assert compare_baseline(report, report) == []
    # A baseline 10x faster than this host: regression on both axes.
    fast = json.loads(json.dumps(report))
    fast["kernel"]["events_per_s"] *= 10
    fast["suite"]["sequential_events_per_s"] *= 10
    failures = compare_baseline(report, fast, max_regress=0.20)
    assert len(failures) == 2
    # A generous tolerance forgives anything.
    assert compare_baseline(report, fast, max_regress=0.95) == []


def test_profile_writes_cumtime_report(tiny_bench, tmp_path):
    report = run_bench(
        label="prof", quick=True, jobs=1, output_dir=tmp_path, profile=True
    )
    assert report["ok"] is True
    profile_path = tmp_path / "BENCH_prof_profile.txt"
    assert profile_path.exists()
    text = profile_path.read_text()
    assert "cumulative" in text  # sorted by cumtime
    assert "run_experiment" in text  # the kernel phase was profiled


def test_single_core_parallel_speedup_is_informational(
    tiny_bench, tmp_path, monkeypatch
):
    # On a 1-cpu host the parallel speedup is reported but flagged, and
    # baseline gating must skip it (a pool of one can't beat sequential).
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
    report = run_bench(label="uni", quick=True, jobs=2, output_dir=tmp_path)
    assert report["suite"]["parallel_informational"] is True
    assert "parallel_speedup" in report["suite"]

    slow = json.loads(json.dumps(report))
    slow["suite"]["parallel_speedup"] *= 10  # would regress if gated
    assert compare_baseline(report, slow) == []


def test_multi_core_parallel_speedup_is_gated(tiny_bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)
    report = run_bench(label="multi", quick=True, jobs=2, output_dir=tmp_path)
    assert report["suite"]["parallel_informational"] is False
    fast = json.loads(json.dumps(report))
    fast["suite"]["parallel_speedup"] = report["suite"]["parallel_speedup"] * 10
    failures = compare_baseline(report, fast, max_regress=0.20)
    assert any("parallel speedup" in line for line in failures)
