"""Tests for ExperimentConfig."""

import pytest

from repro.experiments import ExperimentConfig


def test_defaults_match_paper():
    cfg = ExperimentConfig()
    assert cfg.n_nodes == 20
    assert cfg.n_disks == 20
    assert cfg.file_blocks == 2000
    assert cfg.effective_total_reads == 2000
    assert cfg.demand_buffers_per_node == 1
    assert cfg.prefetch_buffers_per_node == 3
    assert cfg.per_proc_k == 10
    assert cfg.total_k == 200
    assert cfg.costs.disk_access_time == 30.0


def test_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(pattern="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(sync_style="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(policy="psychic")
    with pytest.raises(ValueError):
        ExperimentConfig(compute_mean=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(lead=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(min_prefetch_time=-0.5)
    # Sizing fields fail at construction, naming the field.
    for name in (
        "n_nodes", "n_disks", "file_blocks", "total_reads",
        "per_proc_k", "total_k",
    ):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            ExperimentConfig(**{name: 0})
    with pytest.raises(ValueError, match="^per_proc_k must be positive"):
        ExperimentConfig(sync_style="per-proc", per_proc_k=-1)


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("replacement", "bogus", ValueError),
        ("disk_model", "warp", ValueError),
        ("demand_buffers_per_node", 0, ValueError),
        ("prefetch_buffers_per_node", -1, ValueError),
        ("prefetch_unused_limit", -3, ValueError),
        ("costs", None, TypeError),
        ("seed", "x", TypeError),
        ("prefetch", "yes", TypeError),
        ("lead", "abc", TypeError),
        # A bool is not a number.
        ("compute_mean", True, TypeError),
    ],
)
def test_invalid_field_fails_at_construction(name, value, error):
    """Each bad value fails when the config is built, naming its field —
    not mid-run, after the config was hashed or shipped to a worker."""
    with pytest.raises(error, match=name):
        ExperimentConfig(**{name: value})


def test_int_is_a_valid_float():
    assert ExperimentConfig(compute_mean=30).compute_mean == 30


def test_run_configs_built_from_fields():
    cfg = ExperimentConfig(
        n_nodes=4, replacement="global-lru", dirty_ratio=0.4
    )
    assert cfg.machine_config.n_nodes == 4
    assert cfg.cache_config.replacement == "global-lru"
    assert cfg.writeback_config.dirty_ratio == 0.4
    assert cfg.with_overrides(n_nodes=6).machine_config.n_nodes == 6


def test_sweep_rejects_bad_value_before_running():
    from repro.experiments.sweeps import run_sweep

    with pytest.raises(TypeError, match="^lead must be int"):
        run_sweep("lead", ["abc"])


def test_lw_portion_combination_rejected():
    with pytest.raises(ValueError, match="footnote 3"):
        ExperimentConfig(pattern="lw", sync_style="portion")


def test_intensity():
    assert ExperimentConfig(compute_mean=0.0).intensity == "io-bound"
    assert ExperimentConfig(compute_mean=30.0).intensity == "balanced"


def test_label_includes_key_fields():
    cfg = ExperimentConfig(pattern="lfp", sync_style="total", lead=20)
    assert "lfp" in cfg.label
    assert "total" in cfg.label
    assert "lead=20" in cfg.label
    base = cfg.paired_baseline()
    assert "no-prefetch" in base.label


def test_paired_baseline_shares_seed():
    cfg = ExperimentConfig(seed=42)
    base = cfg.paired_baseline()
    assert base.seed == 42
    assert not base.prefetch
    assert cfg.prefetch


def test_with_overrides():
    cfg = ExperimentConfig()
    other = cfg.with_overrides(lead=10, seed=9)
    assert other.lead == 10
    assert other.seed == 9
    assert cfg.lead == 0


def test_configs_hashable_and_comparable():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1)
    assert a == b
    assert hash(a) == hash(b)
