"""One reporting path: the run's metrics count what the probe points
report, and no model code calls them.

* the model packages never import :mod:`repro.metrics`;
* ``repro lint``'s purity pass covers :class:`RunMetrics`' subscribers;
* on whole runs, the counters agree with the other ledgers of the same
  facts: the daemon outcomes, the disks, the fault event log and the
  recorded trace.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis.flow import analyze_flow
from repro.analysis.flow.summary import module_name_for, summarize_source
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.analysis import outcome_counts
from repro.faults import FailStop, FaultPlan, ResiliencePolicy
from repro.metrics import collector

MODEL_PACKAGES = ("sim", "machine", "fs", "prefetch", "faults", "workload")


def _imported_modules(path: Path, module: str):
    """Every module ``path`` imports, relative imports resolved and
    ``TYPE_CHECKING`` blocks included."""
    package = module.rsplit(".", 1)[0]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = ".".join(parts[: len(parts) - node.level + 1])
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_model_packages_never_import_metrics():
    root = Path(repro.__file__).parent
    offenders = []
    for package in MODEL_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            rel = path.relative_to(root.parent).with_suffix("")
            for name in _imported_modules(path, ".".join(rel.parts)):
                if name == "repro.metrics" or name.startswith(
                    "repro.metrics."
                ):
                    offenders.append(f"{rel}: {name}")
    assert offenders == []


def _lint_collector(source):
    parts = ("repro", "metrics", "collector.py")
    summary = summarize_source(
        source,
        module=module_name_for(parts),
        rel_parts=parts,
        path="/tree/repro/metrics/collector.py",
    )
    return analyze_flow([summary])


def test_purity_pass_covers_the_run_metrics():
    source = Path(collector.__file__).read_text()
    assert _lint_collector(source) == []
    anchor = "        self.read_times.record(latency)\n"
    assert source.count(anchor) == 1
    impure = source.replace(
        anchor, anchor + "        self.env.timeout(1.0)\n"
    )
    findings = _lint_collector(impure)
    assert [d.rule for d in findings] == ["flow-purity"]
    assert "RunMetrics._on_read registered on fs.read" in findings[0].message
    assert ".timeout()" in findings[0].message


class _MachineTap:
    """Keeps the wired machine, to read its disks after the run."""

    machine = None

    def on_environment(self, env):
        pass

    def on_wired(self, env, machine, cache):
        self.machine = machine


_FAIL_STOP = FaultPlan(
    faults=(FailStop(disk=0, at=200.0, recover=1600.0),),
    resilience=ResiliencePolicy(
        timeout=240.0, max_retries=40, backoff_base=10.0, backoff_max=120.0
    ),
)

CELLS = {
    "read-only": dict(pattern="gw", sync_style="per-proc"),
    "lfp-rw": dict(pattern="lfp-rw", sync_style="none"),
    "fail-stop": dict(pattern="lw", sync_style="none", faults=_FAIL_STOP),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_counters_agree_with_the_other_ledgers(cell):
    config = ExperimentConfig(
        n_nodes=4,
        n_disks=4,
        file_blocks=160,
        total_reads=160,
        record_trace=True,
        **CELLS[cell],
    )
    tap = _MachineTap()
    result = run_experiment(config, tap)
    disks = tap.machine.disks

    # Prefetches: one per successful action.  On a healthy run (no
    # retries) the disks serve at most that many, since a prefetch still
    # queued at run end is never served, and exactly one demand request
    # per miss.
    assert result.blocks_prefetched == result.prefetch_outcomes["success"]
    assert result.blocks_prefetched > 0
    if config.faults is None:
        served = sum(d.prefetch_response.count for d in disks)
        assert served <= result.blocks_prefetched
        assert result.blocks_demand_fetched == sum(
            d.demand_response.count for d in disks
        )

    # Per-disk fault counters against the fault event log.
    by_kind = {"error": {}, "retry": {}, "timeout": {}}
    if result.fault_events is not None:
        for event in result.fault_events.events:
            if event.kind in by_kind:
                tally = by_kind[event.kind]
                tally[event.disk] = tally.get(event.disk, 0) + 1
    assert result.errors_by_disk == by_kind["error"]
    assert result.retries_by_disk == by_kind["retry"]
    assert result.timeouts_by_disk == by_kind["timeout"]
    if config.faults is not None:
        assert result.retries_by_disk

    # Read outcomes against the recorded trace.
    counts = outcome_counts(result.trace)
    metrics = result.metrics
    assert (metrics.hits_ready, metrics.hits_unready, metrics.misses) == (
        counts["ready"],
        counts["unready"],
        counts["miss"],
    )
    writes = sum(v for k, v in counts.items() if k.startswith("write-"))
    assert result.total_writes == writes
    assert metrics.write_misses == counts.get("write-miss", 0)
