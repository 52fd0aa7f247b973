"""The CLI's one config surface: per-verb defaults and the exit-2 contract.

Every verb that simulates builds its ExperimentConfig from one flag
table.  These tests pin what each verb builds from its required
arguments alone, and that a bad value, fault plan or trace file ends in
one ``error:`` line and exit status 2 instead of a traceback.
"""

import pytest

from repro.cli import build_parser, config_from_args, main
from repro.experiments import ExperimentConfig
from repro.faults import FailSlow, FaultPlan
from repro.traces import ReplayTrace, make_synthetic_trace, replay_config

SMALL = dict(n_nodes=4, n_disks=4, file_blocks=400, total_reads=400)
PER_PROC = ExperimentConfig(sync_style="per-proc")
PER_PROC_SMALL = ExperimentConfig(sync_style="per-proc", **SMALL)
SOAK_BASE = ExperimentConfig(
    n_nodes=8, n_disks=8, file_blocks=640, total_reads=640, record_trace=False
)

# (argv with only the required arguments, the config the verb builds).
# The last two also set every spec flag, which must not feed the config.
VERB_DEFAULTS = [
    (["run"], PER_PROC),
    (["sweep", "lead", "0"], PER_PROC),
    (["audit"], PER_PROC_SMALL),
    (["obs", "export", "-o", "t.json"], PER_PROC_SMALL),
    (["obs", "timeline"], PER_PROC_SMALL),
    (["obs", "attribute"], PER_PROC_SMALL),
    (["trace", "record", "-o", "t.jsonl"], ExperimentConfig()),
    (["tournament"], ExperimentConfig()),
    (["soak"], SOAK_BASE),
    (
        [
            "tournament", "--patterns", "lfp", "--sync", "total",
            "--policies", "none", "obl", "--fault-plans", "none",
        ],
        ExperimentConfig(),
    ),
    (
        ["soak", "--pattern", "lfp", "--sync", "total", "--policy", "none"],
        SOAK_BASE,
    ),
]


@pytest.mark.parametrize(
    "argv, expected", VERB_DEFAULTS, ids=[" ".join(a) for a, _ in VERB_DEFAULTS]
)
def test_verb_default_config(argv, expected):
    assert config_from_args(build_parser().parse_args(argv)) == expected


def _small_trace(tmp_path):
    path = tmp_path / "small.jsonl"
    make_synthetic_trace(
        "bursty", n_nodes=3, file_blocks=60, reads_per_node=8, seed=2
    ).save(path)
    return path


def test_trace_replay_defaults_to_one_disk_per_traced_node(
    tmp_path, monkeypatch
):
    import repro.traces as traces

    seen = []
    real_replay_pair = traces.replay_pair

    def spy(trace, config):
        seen.append(config)
        return real_replay_pair(trace, config)

    monkeypatch.setattr(traces, "replay_pair", spy)
    path = _small_trace(tmp_path)
    assert main(["trace", "replay", str(path)]) == 0
    trace = ReplayTrace.load(path)
    assert seen == [replay_config(trace, ExperimentConfig(n_disks=3))]


def _write_bad_files(tmp_path):
    (tmp_path / "bad.json").write_text("{}\n")
    (tmp_path / "bad.jsonl").write_text("not json\n")
    (tmp_path / "latin1.csv").write_bytes(b"time,node,block\n0,\xff,1\n")
    FaultPlan(faults=(FailSlow(disk=9, factor=2.0),)).save(
        str(tmp_path / "disk9.json")
    )


# (argv, text the error line must contain); {tmp} is the test's tmp_path.
BAD_INPUTS = [
    (["run", "--nodes", "0"], "n_nodes"),
    (["audit", "--nodes", "0"], "n_nodes"),
    (["sweep", "lead", "0", "--compute", "-1"], "compute_mean"),
    (["trace", "record", "-o", "{tmp}/t.jsonl", "--nodes", "0"], "n_nodes"),
    (["trace", "replay", "{tmp}/small.jsonl", "--disks", "0"], "n_disks"),
    (["obs", "export", "-o", "{tmp}/t.json", "--nodes", "0"], "n_nodes"),
    (["obs", "timeline", "--file-blocks", "-1"], "file_blocks"),
    (["obs", "attribute", "--reads", "0"], "total_reads"),
    (["run", "--pattern", "lw", "--sync", "portion"], "portion sync"),
    (["run", "--faults", "{tmp}/missing.json"], "{tmp}/missing.json"),
    (["run", "--faults", "{tmp}/bad.json"], "{tmp}/bad.json"),
    (
        ["run", "--nodes", "4", "--disks", "4", "--faults", "{tmp}/disk9.json"],
        "disk 9",
    ),
    (["tournament", "--nodes", "0"], "n_nodes"),
    (["soak", "--nodes", "0"], "n_nodes"),
    # Verbs that read a file without building a config.
    (["trace", "stats", "{tmp}/missing.jsonl"], "{tmp}/missing.jsonl"),
    (["trace", "replay", "{tmp}/missing.jsonl"], "{tmp}/missing.jsonl"),
    (["analyze", "{tmp}/missing.jsonl"], "{tmp}/missing.jsonl"),
    (["trace", "stats", "{tmp}/bad.jsonl"], "{tmp}/bad.jsonl"),
    (["trace", "replay", "{tmp}/bad.jsonl"], "{tmp}/bad.jsonl"),
    (["analyze", "{tmp}/bad.jsonl"], "{tmp}/bad.jsonl"),
    (
        ["trace", "import", "{tmp}/missing.csv", "-o", "{tmp}/t.jsonl"],
        "{tmp}/missing.csv",
    ),
    (
        ["trace", "import", "{tmp}/latin1.csv", "-o", "{tmp}/t.jsonl"],
        "{tmp}/latin1.csv:2: not UTF-8",
    ),
    (["faults", "show", "{tmp}/missing.json"], "{tmp}/missing.json"),
    (["faults", "show", "{tmp}/bad.json"], "{tmp}/bad.json"),
]


@pytest.mark.parametrize(
    "argv, names", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS]
)
def test_bad_input_exits_2_naming_the_field_or_file(
    argv, names, tmp_path, capsys
):
    _small_trace(tmp_path)
    _write_bad_files(tmp_path)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        status = exc.code
    err = capsys.readouterr().err
    assert status == 2
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1, err
    assert names.format(tmp=tmp_path) in error_lines[0]
    assert "Traceback" not in err
