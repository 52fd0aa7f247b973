"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURE_IDS, build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_figure_ids_cover_design_index():
    for fig in ("fig1", "fig3", "fig8", "fig12", "fig16", "vd",
                "vf-buffers", "vf-patterns", "ext-predictors",
                "ext-scalability"):
        assert fig in FIGURE_IDS


def test_run_command(capsys):
    rc = main([
        "run", "--pattern", "gw", "--sync", "none", "--compute", "0",
        "--seed", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total time (ms)" in out
    assert "no-prefetch" in out
    assert "hit ratio" in out


def test_run_command_rejects_bad_pattern():
    with pytest.raises(SystemExit):
        main(["run", "--pattern", "zigzag"])


def test_run_accepts_every_registered_policy():
    from repro.prefetch.factory import policy_choices

    parser = build_parser()
    for policy in policy_choices():
        args = parser.parse_args(["run", "--policy", policy])
        assert args.policy == policy


_TOURNAMENT_SMALL = [
    "--nodes", "4", "--disks", "4", "--file-blocks", "200",
    "--reads", "200",
]


def test_tournament_command(tmp_path, capsys):
    csv_path = tmp_path / "league.csv"
    digest_path = tmp_path / "digest.txt"
    rc = main([
        "tournament", "--patterns", "lw", "--policies", "none", "adaptive",
        "--csv", str(csv_path), "--digest-out", str(digest_path),
        *_TOURNAMENT_SMALL,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "policy tournament" in out
    assert "standings (cells won):" in out
    assert "adaptive beat no-prefetch in 1/1 cells" in out
    assert csv_path.read_text().startswith("pattern,sync,faults,policy,")
    digest = digest_path.read_text().strip()
    assert len(digest) == 32
    assert f"tournament digest: {digest}" in out


def test_tournament_digest_check(tmp_path, capsys):
    digest_path = tmp_path / "digest.txt"
    argv = [
        "tournament", "--patterns", "lw", "--policies", "none", "adaptive",
        *_TOURNAMENT_SMALL,
    ]
    assert main([*argv, "--digest-out", str(digest_path)]) == 0
    capsys.readouterr()
    assert main([*argv, "--check-digest", str(digest_path)]) == 0
    assert "digest check: PASS" in capsys.readouterr().out
    digest_path.write_text("0" * 32 + "\n")
    assert main([*argv, "--check-digest", str(digest_path)]) == 1


def _write_outage_plan(tmp_path):
    from repro.faults import FailStop, FaultPlan, ResiliencePolicy

    plan = FaultPlan(
        faults=(FailStop(disk=0, at=200.0, recover=1600.0),),
        resilience=ResiliencePolicy(
            timeout=240.0, max_retries=40, backoff_base=10.0,
            backoff_max=120.0,
        ),
        name="outage",
    )
    path = tmp_path / "outage.json"
    plan.save(str(path))
    return path, plan


def test_tournament_fault_plans_axis(tmp_path, capsys):
    plan_path, plan = _write_outage_plan(tmp_path)
    csv_path = tmp_path / "league.csv"
    rc = main([
        "tournament", "--patterns", "lw", "--policies", "none", "adaptive",
        "--fault-plans", "none", str(plan_path),
        "--csv", str(csv_path),
        *_TOURNAMENT_SMALL,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    # Both the healthy and the faulted slice of the matrix ran...
    assert plan.digest in out
    # ...and the faulted rows carry the plan in the CSV.
    csv = csv_path.read_text()
    assert plan.digest in csv


def test_soak_command(tmp_path, capsys):
    csv_path = tmp_path / "soak.csv"
    digest_path = tmp_path / "digest.txt"
    plans_dir = tmp_path / "plans"
    rc = main([
        "soak", "--plans", "2", "--nodes", "4", "--disks", "4",
        "--file-blocks", "200", "--reads", "200",
        "--csv", str(csv_path), "--digest-out", str(digest_path),
        "--save-plans", str(plans_dir),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos soak" in out
    assert "invariant sweep" in out and "PASS" in out
    assert csv_path.read_text().startswith("plan,plan_digest,")
    assert len(digest_path.read_text().strip()) == 32
    saved = sorted(plans_dir.glob("soak-*.json"))
    assert len(saved) == 2


def test_soak_digest_check(tmp_path, capsys):
    digest_path = tmp_path / "digest.txt"
    argv = [
        "soak", "--plans", "1", "--nodes", "4", "--disks", "4",
        "--file-blocks", "200", "--reads", "200",
    ]
    assert main([*argv, "--digest-out", str(digest_path)]) == 0
    capsys.readouterr()
    assert main([*argv, "--check-digest", str(digest_path)]) == 0
    assert "digest check: PASS" in capsys.readouterr().out
    digest_path.write_text("0" * 32 + "\n")
    assert main([*argv, "--check-digest", str(digest_path)]) == 1


def test_tournament_rejects_unknown_entrant(capsys):
    rc = main([
        "tournament", "--patterns", "lw", "--policies", "none", "zigzag",
        *_TOURNAMENT_SMALL,
    ])
    assert rc == 2
    assert "unknown entrant" in capsys.readouterr().err


def test_analyze_command(tmp_path, capsys):
    # Produce a trace with a tiny run, save it, analyze it.
    from repro.experiments import ExperimentConfig, run_experiment

    r = run_experiment(
        ExperimentConfig(
            pattern="gw", n_nodes=4, n_disks=4, file_blocks=40,
            total_reads=40, compute_mean=0.0, record_trace=True,
            prefetch=False,
        )
    )
    path = tmp_path / "t.jsonl"
    r.trace.save(path)
    rc = main(["analyze", str(path), "--cache-sizes", "10", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "40 accesses" in out
    assert "LRU hit ratio" in out
    assert "sequentiality" in out


def test_figure_command_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_figure_scatter_flag_parses():
    parser = build_parser()
    args = parser.parse_args(["figure", "fig3", "--scatter"])
    assert args.scatter
    args = parser.parse_args(["figure", "fig3"])
    assert not args.scatter


def test_figure_command_standalone(capsys):
    """Run a cheap standalone figure end to end through the CLI."""
    rc = main(["figure", "ext-scalability", "--seed", "1"])
    out = capsys.readouterr().out
    assert "Scalability" in out
    assert "check prefetch_wins_at_every_scale: PASS" in out
    assert rc == 0


def test_figure_runs_through_the_run_cache(tmp_path, capsys):
    """A config-built standalone figure batches its runs through the run
    cache: the second invocation simulates nothing."""
    argv = ["figure", "vd", "--seed", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert f"cache {tmp_path}: 0/5 hits, 5 stored" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert f"cache {tmp_path}: 5/5 hits, 0 stored" in second
    assert second.replace("5/5 hits, 0 stored", "") == first.replace(
        "0/5 hits, 5 stored", ""
    )


def test_sweep_command(capsys):
    rc = main([
        "sweep", "lead", "0", "10",
        "--pattern", "gw", "--sync", "per-proc", "--seed", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep lead" in out
    assert "total red %" in out


def test_sweep_command_value_casting():
    parser = build_parser()
    args = parser.parse_args(["sweep", "policy", "oracle", "obl"])
    assert args.values == ["oracle", "obl"]


def test_report_command(tmp_path, capsys, monkeypatch):
    """Report command plumbing (figures stubbed to keep the test fast)."""
    from repro.experiments import report_gen
    from repro.experiments.figures import FigureData

    monkeypatch.setattr(
        report_gen,
        "collect_all_figures",
        lambda seed, progress=None: [
            FigureData("figX", "T", ["a"], [(1,)], checks={"ok": True})
        ],
    )
    out_path = tmp_path / "R.md"
    rc = main(["report", "-o", str(out_path)])
    assert rc == 0
    assert "1/1 checks pass" in capsys.readouterr().out
    assert out_path.exists()


_RW_SMALL = [
    "--nodes", "4", "--disks", "4", "--file-blocks", "160",
    "--reads", "160", "--compute", "0", "--seed", "2",
]


def test_run_command_rw_pattern_shows_write_measures(capsys):
    rc = main(["run", "--pattern", "lfp-rw", "--sync", "none", *_RW_SMALL])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total writes" in out
    assert "dirty peak (buffers)" in out
    assert "throttle stalls" in out


def test_run_command_read_only_report_has_no_write_rows(capsys):
    rc = main(["run", "--pattern", "gw", "--sync", "none", *_RW_SMALL])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total writes" not in out


def test_run_write_flags_parse_and_validate():
    parser = build_parser()
    args = parser.parse_args([
        "run", "--pattern", "wstream", "--write-mode", "write-through",
        "--dirty-ratio", "0.4", "--dirty-background-ratio", "0.1",
    ])
    assert args.write_mode == "write-through"
    assert args.dirty_ratio == 0.4
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--write-mode", "journal"])


def test_chaos_writeback_is_a_known_figure():
    assert "chaos-writeback" in FIGURE_IDS


def test_trace_synth_write_fraction(tmp_path, capsys):
    path = tmp_path / "rw.jsonl"
    rc = main([
        "trace", "synth", "bursty", "-o", str(path),
        "--nodes", "4", "--file-blocks", "200", "--reads", "25",
        "--seed", "3", "--write-fraction", "0.3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "writes)" in out
    rc = main(["trace", "replay", str(path), "--disks", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total writes" in out
