"""Timeline instruments and the boundary-crossing sampler."""

import pytest

from repro.obs import Histogram, TimelineRegistry, TimelineSampler


def test_counter_monotone():
    registry = TimelineRegistry()
    counter = registry.counter("reads")
    counter.inc()
    counter.inc(2.0)
    assert counter.value == 3.0
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_histogram_buckets_and_mean():
    hist = Histogram("lat", bounds=(10.0, 30.0))
    for value in (5.0, 10.0, 29.0, 31.0):
        hist.observe(value)
    # <=10 twice, <=30 once, overflow once.
    assert hist.counts == [2, 1, 1]
    assert hist.total == 4
    assert hist.mean == pytest.approx(75.0 / 4)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10.0, 5.0))
    with pytest.raises(ValueError):
        Histogram("dup", bounds=(5.0, 5.0))


def test_gauge_sampled_through_registry():
    registry = TimelineRegistry()
    state = {"depth": 0.0}
    series = registry.register_gauge("queue", lambda: state["depth"])
    registry.sample_all(50.0)
    state["depth"] = 3.0
    registry.sample_all(100.0)
    assert series.samples == [(50.0, 0.0), (100.0, 3.0)]


def test_registration_order_is_export_order():
    registry = TimelineRegistry()
    registry.counter("b")
    registry.register_gauge("a", lambda: 0.0)
    registry.histogram("c")
    # Gauges, then counters, then histograms — never sorted by name.
    assert [s.name for s in registry.series] == ["a", "b", "c"]
    assert registry.find("c").kind == "histogram"
    assert registry.find("nope") is None


def test_sampler_crosses_boundaries():
    registry = TimelineRegistry()
    counter = registry.counter("n")
    sampler = TimelineSampler(registry, interval=50.0)
    series = registry.series[0]

    sampler(10.0, 0, 0, None)  # before the first boundary: no sample
    assert series.samples == []
    counter.inc()
    sampler(60.0, 0, 1, None)  # crosses t=50
    assert series.samples == [(50.0, 1.0)]
    sampler(230.0, 0, 2, None)  # crosses 100, 150, 200 in one hop
    assert [t for t, _ in series.samples] == [50.0, 100.0, 150.0, 200.0]
    sampler.finalize(231.5)
    assert series.samples[-1] == (231.5, 1.0)
    assert sampler.samples_taken == 5


def test_sampler_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        TimelineSampler(TimelineRegistry(), interval=0.0)


def _views(registry):
    """One series of each kind, plus a two-wide gauge group."""
    state = {"depth": 0, "cpus": [0, 1]}
    gauge = registry.register_gauge("queue", lambda: state["depth"])
    group = registry.register_gauges(
        ["cpu0", "cpu1"], lambda: list(state["cpus"])
    )
    counter = registry.counter("reads")
    histogram = registry.histogram("latency", bounds=(10.0,))
    return state, gauge, group, counter, histogram


def test_series_views_of_every_kind():
    registry = TimelineRegistry()
    state, gauge, (cpu0, cpu1), counter, histogram = _views(registry)
    assert [len(gauge), gauge.last(), gauge.samples] == [0, None, []]
    registry.sample_all(50.0)
    state["depth"] = 2
    state["cpus"] = [1, 0]
    counter.inc()
    histogram.observe(4.0)
    histogram.observe(40.0)
    registry.sample_all(100.0)
    assert gauge.samples == [(50.0, 0.0), (100.0, 2.0)]
    assert cpu0.samples == [(50.0, 0.0), (100.0, 1.0)]
    assert cpu1.samples == [(50.0, 1.0), (100.0, 0.0)]
    assert registry.find("reads").samples == [(50.0, 0.0), (100.0, 1.0)]
    assert registry.find("latency").samples == [(50.0, 0.0), (100.0, 2.0)]
    series = registry.series
    assert [s.kind for s in series] == [
        "gauge", "gauge", "gauge", "counter", "histogram"
    ]
    for s in series:
        assert len(s) == 2
        assert s.last() == s.samples[-1][1]
        # Values are floats whatever the read returned.
        assert all(type(v) is float for _, v in s.samples)


def test_series_registered_after_sampling_starts_at_the_next_sample():
    registry = TimelineRegistry()
    early = registry.counter("early")
    registry.sample_all(50.0)
    state, gauge, group, counter, histogram = _views(registry)
    late = [gauge, *group, registry.find("reads"), registry.find("latency")]
    assert all(len(s) == 0 and s.last() is None for s in late)
    early.inc()
    counter.inc(3.0)
    state["depth"] = 5
    registry.sample_all(100.0)
    assert registry.find("early").samples == [(50.0, 0.0), (100.0, 1.0)]
    assert [s.samples for s in late] == [
        [(100.0, 5.0)], [(100.0, 0.0)], [(100.0, 1.0)],
        [(100.0, 3.0)], [(100.0, 0.0)],
    ]
    assert registry.find("reads").last() == 3.0
