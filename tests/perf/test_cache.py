"""Run cache: slim round-trip, counters, corruption tolerance, opening."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.perf.cache import _FORMAT, CACHE_DIR_ENV, RunCache, open_cache
from repro.perf.digest import obs_digest, run_key
from repro.perf.serialize import (
    result_from_dict,
    result_to_dict,
    results_digest,
)


def _entry_path(cache, config):
    return cache.cache_dir / f"run-v{_FORMAT}-{run_key(config)}.json"

TINY = dict(n_nodes=2, n_disks=2, file_blocks=64, total_reads=64)


def _config(**overrides):
    base = dict(pattern="gw", sync_style="per-proc", seed=1, **TINY)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_round_trip_preserves_every_measure(tmp_path):
    config = _config()
    result = run_experiment(config)
    cache = RunCache(tmp_path)
    cache.put(config, result)
    got = cache.get(config)
    assert got is not None
    # Slim: raw handles dropped, every scalar measure identical.
    assert got.metrics is None and got.trace is None
    assert result_to_dict(got) == result_to_dict(result)
    assert results_digest([got]) == results_digest([result])
    # Restored dict fields keep integer keys.
    assert all(isinstance(k, int) for k in got.errors_by_disk)


def test_round_trip_preserves_adaptive_measures(tmp_path):
    config = _config(policy="adaptive")
    result = run_experiment(config)
    assert result.adaptive_distance_summary  # adaptive populated them
    cache = RunCache(tmp_path)
    cache.put(config, result)
    got = cache.get(config)
    assert got is not None
    assert got.adaptive_distance_summary == result.adaptive_distance_summary
    assert (
        got.adaptive_distance_trajectory
        == result.adaptive_distance_trajectory
    )
    assert got.prefetch_unused_evicted == result.prefetch_unused_evicted
    assert got.prefetch_unused_at_end == result.prefetch_unused_at_end
    assert got.unused_prefetch_rate == result.unused_prefetch_rate


def test_counters_and_summary(tmp_path):
    config = _config()
    cache = RunCache(tmp_path)
    assert cache.get(config) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put(config, run_experiment(config))
    assert cache.get(config) is not None
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
    assert "1/2 hits, 1 stored" in cache.summary()


def test_corrupt_entry_is_a_miss(tmp_path):
    config = _config()
    cache = RunCache(tmp_path)
    cache.put(config, run_experiment(config))
    entry = _entry_path(cache, config)
    entry.write_text("{not json", encoding="utf-8")
    assert cache.get(config) is None


@pytest.mark.parametrize(
    "field, value", [("total_time", "bogus"), ("prefetch_outcomes", [1, 2])]
)
def test_mistyped_field_is_a_miss(tmp_path, field, value):
    config = _config()
    cache = RunCache(tmp_path)
    cache.put(config, run_experiment(config))
    entry = _entry_path(cache, config)
    data = json.loads(entry.read_text(encoding="utf-8"))
    data["result"][field] = value
    entry.write_text(json.dumps(data), encoding="utf-8")
    assert cache.get(config) is None
    assert (cache.hits, cache.misses) == (0, 1)
    with pytest.raises(TypeError, match=f"^{field} must be"):
        result_from_dict(config, data["result"])


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("prefetch_outcomes", {"success": "lots"}, "['success']"),
        ("per_node_read_means", ["x"], "[0]"),
        # JSON stores the triple as a list and the key as a string; both
        # are restored before the check, so only the bad item fails.
        ("idle_by_kind", {"sync": ("a", 1, 2)}, "['sync'][0]"),
        ("errors_by_disk", {0: "many"}, "[0]"),
    ],
)
def test_mistyped_item_is_a_miss(tmp_path, field, value, path):
    config = _config()
    cache = RunCache(tmp_path)
    cache.put(config, run_experiment(config))
    entry = _entry_path(cache, config)
    data = json.loads(entry.read_text(encoding="utf-8"))
    data["result"][field] = value
    entry.write_text(json.dumps(data), encoding="utf-8")
    assert cache.get(config) is None
    assert (cache.hits, cache.misses) == (0, 1)
    stored = json.loads(entry.read_text(encoding="utf-8"))["result"]
    with pytest.raises(TypeError) as caught:
        result_from_dict(config, stored)
    assert str(caught.value).startswith(f"{field}{path} must be")


def test_obs_round_trip(tmp_path):
    config = _config()
    result = run_experiment(config)
    cache = RunCache(tmp_path)
    cache.put(config, result)
    got = cache.get(config)
    assert got is not None
    assert got.node_attribution == result.node_attribution
    assert got.obs_digest == result.obs_digest
    assert got.obs_digest == obs_digest(got.node_attribution)


def test_corrupt_obs_section_is_a_miss(tmp_path):
    config = _config()
    cache = RunCache(tmp_path)
    cache.put(config, run_experiment(config))
    entry = _entry_path(cache, config)

    # Tampered attribution no longer matches the stored digest.
    data = json.loads(entry.read_text(encoding="utf-8"))
    data["obs"]["attribution"][0]["compute"] += 1.0
    entry.write_text(json.dumps(data), encoding="utf-8")
    assert cache.get(config) is None

    # A missing obs section entirely is also a miss.
    cache.put(config, run_experiment(config))
    data = json.loads(entry.read_text(encoding="utf-8"))
    del data["obs"]
    entry.write_text(json.dumps(data), encoding="utf-8")
    assert cache.get(config) is None


def test_entries_keyed_by_config(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(_config(), run_experiment(_config()))
    assert cache.get(_config(seed=2)) is None


def test_entry_is_valid_json_with_label(tmp_path):
    config = _config()
    cache = RunCache(tmp_path)
    cache.put(config, run_experiment(config))
    entry = _entry_path(cache, config)
    data = json.loads(entry.read_text(encoding="utf-8"))
    assert data["format"] == _FORMAT
    assert data["label"] == config.label
    assert data["obs"]["digest"] == obs_digest(data["obs"]["attribution"])


def test_open_cache_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert open_cache() is None
    assert open_cache(tmp_path / "a").cache_dir == tmp_path / "a"
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
    assert open_cache().cache_dir == tmp_path / "env"
    # Explicit directory beats the environment; --no-cache beats both.
    assert open_cache(tmp_path / "a").cache_dir == tmp_path / "a"
    assert open_cache(tmp_path / "a", no_cache=True) is None
