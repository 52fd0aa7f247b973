"""CLI integration for the faults group and --faults plumbing."""

from repro.cli import FIGURE_IDS, main
from repro.faults import FaultPlan


def make_plan(tmp_path, *extra):
    path = tmp_path / "plan.json"
    rc = main([
        "faults", "make", "-o", str(path),
        "--transient", "0:0.3:0:100",
        "--fail-slow", "1:2.0",
        "--max-retries", "8",
        *extra,
    ])
    assert rc == 0
    return path


def test_faults_make_and_show_round_trip(tmp_path, capsys):
    path = make_plan(tmp_path, "--name", "cli-test")
    plan = FaultPlan.load(str(path))
    assert plan.name == "cli-test"
    assert plan.resilience.max_retries == 8
    # Specs are grouped by kind in the CLI's fixed order.
    assert [s.kind for s in plan.faults] == ["fail-slow", "transient"]
    capsys.readouterr()
    rc = main(["faults", "show", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert plan.digest in out
    assert "transient errors p=0.3" in out
    assert "max_retries=8" in out


def test_faults_make_rejects_bad_specs(tmp_path, capsys):
    path = tmp_path / "plan.json"
    assert main(["faults", "make", "-o", str(path)]) == 2  # no faults
    assert main([
        "faults", "make", "-o", str(path), "--fail-stop", "0",
    ]) == 2  # missing AT
    assert main([
        "faults", "make", "-o", str(path), "--transient", "0:nope",
    ]) == 2
    assert not path.exists()


def test_run_with_faults_prints_degraded_measures(tmp_path, capsys):
    path = make_plan(tmp_path)
    rc = main([
        "run", "--pattern", "gw", "--sync", "none", "--seed", "2",
        "--nodes", "4", "--disks", "4", "--file-blocks", "120",
        "--reads", "120", "--faults", str(path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    plan = FaultPlan.load(str(path))
    assert "degraded-mode measures" in out
    assert plan.digest in out
    assert "disk errors" in out
    assert "fault-event digests" in out


def test_audit_with_faults_is_deterministic(tmp_path, capsys):
    path = make_plan(tmp_path)
    rc = main([
        "audit", "--pattern", "gw", "--sync", "none", "--seed", "2",
        "--nodes", "4", "--disks", "4", "--file-blocks", "120",
        "--reads", "120", "--faults", str(path),
    ])
    assert rc == 0
    assert "determinism audit: PASS" in capsys.readouterr().out


def test_trace_record_stamps_fault_provenance(tmp_path, capsys):
    plan_path = make_plan(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    rc = main([
        "trace", "record", "-o", str(trace_path), "--pattern", "gw",
        "--sync", "none", "--seed", "2", "--nodes", "4", "--disks", "4",
        "--file-blocks", "120", "--reads", "120",
        "--faults", str(plan_path),
    ])
    assert rc == 0
    from repro.traces import ReplayTrace

    trace = ReplayTrace.load(str(trace_path))
    plan = FaultPlan.load(str(plan_path))
    assert trace.meta.extra["fault_plan_digest"] == plan.digest
    capsys.readouterr()

    # Replaying that trace under the same plan reports the provenance
    # and the degraded-mode table.
    rc = main([
        "trace", "replay", str(trace_path), "--faults", str(plan_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"recorded under fault plan {plan.digest}" in out
    assert "degraded-mode measures" in out


def test_chaos_figures_registered():
    assert "chaos" in FIGURE_IDS
    assert "chaos-failstop" in FIGURE_IDS
