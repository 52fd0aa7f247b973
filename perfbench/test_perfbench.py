"""The benchmark's own tests, at toy sizing.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, workloads  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.probe import Probe  # noqa: E402
from repro.machine.costs import CostModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: A seed with no pinned digests, so toy runs are judged by their checks.
UNPINNED_SEED = 3


def test_spec_names_the_harness_workloads():
    assert WORKLOADS == list(workloads.WORKLOADS)


def _run(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(bench, "measure_setup", lambda name, seed, probe: 0.25)
    args = bench._parse(
        [
            "--workload",
            workload,
            "--seed",
            str(UNPINNED_SEED),
            "--seconds",
            "0.01",
            "--trace",
            str(trace),
        ]
    )
    status = bench.run_workload(args, sizing=workloads.TOY)
    lines = capsys.readouterr().out.splitlines()
    return status, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, monkeypatch, capsys):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        status, lines, result = _run(workload, trace, monkeypatch, capsys)
        assert status == 0
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        table = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(result["metrics"]) == set(declared)
        for name, unit in declared.items():
            assert result["metrics"][name]["unit"] == unit
            assert table[name] == unit
    # Each workload does the work it was chosen for, and the layers it
    # bypasses read zero.
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    write_path = ("fs.flushes.", "fs.flush_actions.", "fs.dirty_peak", "fs.write_ms")
    for name, value in metrics.items():
        if workload != "rw-faults" and name.startswith(write_path + ("faults.",)):
            assert value == 0, name
        if workload != "obs-scale" and name.startswith("obs."):
            assert value == 0, name
    if workload == "rw-faults":
        assert metrics["faults.errors"] > 0
        assert metrics["fs.flushes.eviction"] > 0
    if workload == "obs-scale":
        assert metrics["obs.self_us"] > 0 and metrics["obs.spans"] > 0


def test_hd_median_is_a_smooth_median():
    assert harness.hd_median([7.0]) == pytest.approx(7.0)
    assert harness.hd_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    # One slow simulation in the middle of a gap moves the estimate less
    # than it moves the plain median.
    values = [10.0] * 5 + [20.0] * 5
    shifted = values[:4] + [20.0] + values[5:]
    assert 0 < harness.hd_median(shifted) - harness.hd_median(values) < 5.0


def test_perturbed_config_drops_digest_match():
    sims = workloads.build("rw-faults", 1, workloads.TOY)
    first = harness.measure(sims, 0.0)
    pins = {
        sim.label: outcome.digest for sim, outcome in zip(sims, first.outcomes)
    }
    assert harness.pinned_matches(harness.measure(sims, 0.0), pins) == len(pins)
    slower = CostModel(disk_access_time=31.0)
    perturbed = [
        dataclasses.replace(sim, config=sim.config.with_overrides(costs=slower))
        for sim in sims
    ]
    assert harness.pinned_matches(harness.measure(perturbed, 0.0), pins) < len(
        pins
    )


def test_warm_run_cache_never_speeds_a_run(tmp_path, monkeypatch):
    from repro.perf.cache import RunCache
    from repro.perf.executor import execute_runs

    sims = workloads.build("adaptive", 1, workloads.TOY)
    cold = harness.measure(sims, 0.3)
    execute_runs([sim.config for sim in sims], cache=RunCache(tmp_path))
    entries = sorted(path.name for path in tmp_path.iterdir())
    assert len(entries) == len(sims)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    warm = harness.measure(sims, 0.3)
    # A cache hit costs a JSON read, orders of magnitude below a run.
    cold_s = sum(cold.cell_seconds().values())
    assert sum(warm.cell_seconds().values()) > 0.5 * cold_s
    assert sorted(path.name for path in tmp_path.iterdir()) == entries


def test_a_raising_simulation_counts_as_failed(monkeypatch):
    sims = workloads.build("adaptive", 1, workloads.TOY)
    real = harness.run_experiment
    broken = sims[1].config

    def flaky(config, instrument=None):
        if config is broken:
            raise RuntimeError("injected")
        return real(config, instrument=instrument)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    run = harness.measure(sims, 0.0)
    assert run.failed == 1 and run.attempted == len(sims)
    assert harness.end_to_end(run, 0.25)["ok_frac"] < 1.0


def test_every_sync_style_reaches_a_barrier():
    sims = workloads.build("paper-suite", UNPINNED_SEED, workloads.TOY)
    run = harness.measure(sims, 0.0)
    assert run.failed == 0
    waits = defaultdict(list)
    for sim, outcome in zip(sims, run.outcomes):
        waits[sim.config.sync_style].append(outcome.result.sync_wait_count)
    assert set(waits) == {"none", "per-proc", "total", "portion"}
    for style in ("per-proc", "total", "portion"):
        assert min(waits[style]) > 0, style
    # At the timed sizing the "total" barrier fires at least twice.
    for sim in workloads.build("paper-suite", 1):
        if sim.config.sync_style == "total":
            assert sim.config.total_reads // sim.config.total_k >= 2


def test_a_style_that_never_synchronizes_counts_as_failed():
    sims = workloads.build("paper-suite", 1, workloads.TOY)
    sim = next(sim for sim in sims if sim.config.sync_style == "total")
    unreached = sim.config.with_overrides(total_k=10 * sim.config.total_reads)
    run = harness.measure([dataclasses.replace(sim, config=unreached)], 0.0)
    assert run.failed == 1
    assert "never reached a barrier" in run.failures[0]


def test_setup_is_timed_in_fresh_interpreters():
    setup_s = bench.measure_setup("rw-faults", 1, Probe())
    assert 0.0 < setup_s < 30.0


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    child = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "rw-faults",
            "--seconds",
            "1",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
