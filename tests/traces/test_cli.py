"""The ``rapid-transit trace`` subcommand group, end to end."""

import pytest

from repro.cli import main

RECORD_ARGS = [
    "trace", "record", "--pattern", "gfp", "--sync", "portion",
    "--no-prefetch", "--nodes", "4", "--disks", "4",
    "--file-blocks", "200", "--reads", "200", "--seed", "3",
]


def test_trace_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_record_then_stats_then_replay(tmp_path, capsys):
    path = tmp_path / "rec.jsonl"
    rc = main(RECORD_ARGS + ["-o", str(path)])
    assert rc == 0
    assert path.exists()
    assert "recorded 200 reads" in capsys.readouterr().out

    rc = main(["trace", "stats", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "recorded 'gfp' trace" in out
    assert "200 reads" in out

    rc = main(["trace", "replay", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no-prefetch" in out
    assert "hit ratio" in out


def test_record_read_write_pattern(tmp_path, capsys):
    from repro.traces import ReplayTrace

    path = tmp_path / "rw.jsonl"
    rc = main([
        "trace", "record", "--pattern", "lfp-rw", "--nodes", "4",
        "--disks", "4", "--file-blocks", "200", "--reads", "200",
        "-o", str(path),
    ])
    assert rc == 0
    assert ReplayTrace.load(path).stats()["n_writes"] > 0


def test_synth_then_replay_audit(tmp_path, capsys):
    path = tmp_path / "syn.jsonl"
    rc = main([
        "trace", "synth", "skewed", "-o", str(path),
        "--nodes", "4", "--file-blocks", "100", "--reads-per-node", "20",
        "--seed", "5",
    ])
    assert rc == 0
    assert "synthesized 'skewed'" in capsys.readouterr().out

    rc = main(["trace", "replay", str(path), "--audit"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "IDENTICAL" in out
    assert "replay determinism audit: PASS" in out


def test_import_then_stats(tmp_path, capsys):
    csv = tmp_path / "ext.csv"
    csv.write_text(
        "time,node,block\n5.0,a,11\n0.0,a,10\n3.0,b,50\n"
    )
    out_path = tmp_path / "imp.jsonl"
    rc = main(["trace", "import", str(csv), "-o", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "imported 3 reads on 2 nodes" in out
    assert "re-sorted" in out

    rc = main(["trace", "stats", str(out_path)])
    assert rc == 0
    assert "imported 'imported' trace" in capsys.readouterr().out


def test_synth_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", "synth", "smooth", "-o", str(tmp_path / "x.jsonl")])
