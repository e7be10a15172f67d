"""Unit tests for the metric instruments and the registry."""

import json

import pytest

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)


def test_counter_monotonic():
    c = Counter("events")
    c.inc()
    c.inc(3)
    assert c.value == 4
    assert c.to_dict() == {"type": "counter", "value": 4}


def test_gauge_tracks_extremes():
    g = Gauge("depth")
    g.set(3)
    g.add(-5)
    g.set(7)
    assert (g.value, g.min, g.max) == (7, -2, 7)


def test_gauge_first_write_initializes_extremes():
    g = Gauge("level")
    g.set(-4)
    assert g.min == -4 and g.max == -4


def test_histogram_buckets_and_stats():
    h = Histogram("wait", bounds=(1, 10, 100))
    for v in (0, 1, 5, 50, 5000):
        h.observe(v)
    assert h.count == 5
    assert h.sum == 5056
    assert (h.min, h.max) == (0, 5000)
    assert h.bucket_counts == [2, 1, 1, 1]  # le=1, le=10, le=100, +Inf
    assert h.to_dict()["buckets"] == {"le=1": 2, "le=10": 1, "le=100": 1,
                                      "le=+Inf": 1}
    assert h.mean == pytest.approx(5056 / 5)


def _linear_bucket(bounds, value):
    """Reference bucketing: the first bound >= value, else overflow."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


@pytest.mark.parametrize("bounds", [
    (0, 1, 2, 4, 8),
    (0.00025, 0.0005, 0.001, 0.002, 0.004),
    (1, 1, 2, 3),  # repeated bound: the first of the pair takes the value
])
def test_histogram_bucket_matches_linear_scan(bounds):
    between = [(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])]
    values = ([bounds[0] - 1, *bounds, *between, bounds[-1] * 2 + 1,
               float("inf"), float("-inf"), float("nan")])
    for value in values:
        h = Histogram("h", bounds=bounds)
        h.observe(value)
        expected = [0] * (len(bounds) + 1)
        expected[_linear_bucket(bounds, value)] += 1
        assert h.bucket_counts == expected, value


def test_histogram_nan_lands_in_overflow_bucket():
    h = Histogram("h", bounds=(1, 10))
    h.observe(float("nan"))
    assert h.bucket_counts == [0, 0, 1]
    assert h.count == 1


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10, 1))


def test_timeseries_change_compression_and_cap():
    ts = TimeSeries("occ", max_samples=3)
    ts.sample(0, 1)
    ts.sample(1, 1)   # unchanged: dropped silently
    ts.sample(2, 2)
    ts.sample(3, 3)
    ts.sample(4, 4)   # over cap: counted as dropped
    assert ts.samples == [(0, 1), (2, 2), (3, 3)]
    assert ts.dropped == 1


@pytest.mark.parametrize("cap", [0, 2, 5, 100])
def test_timeseries_extend_equals_sampling_each_point(cap):
    points = [(1, 3), (2, 3), (3, 1), (4, 2), (5, 2), (6, 4), (7, 1)]
    for split in (0, 3):  # a fresh series, and one already sampled
        one, bulk = TimeSeries("a", cap), TimeSeries("b", cap)
        for step, value in points[:split]:
            one.sample(step, value)
            bulk.sample(step, value)
        for step, value in points[split:]:
            one.sample(step, value)
        bulk.extend(points[split:])
        assert (bulk.samples, bulk.dropped) == (one.samples, one.dropped)
        assert bulk.to_dict() == one.to_dict()


def test_histogram_observe_counts_equals_observing_each_value():
    values = [3, 0, 7, 3, 70000, 1, 3, 16, 0]
    one, bulk = Histogram("a"), Histogram("b")
    for value in values:
        one.observe(value)
    bulk.observe_counts({value: values.count(value) for value in values})
    assert bulk.to_dict() == one.to_dict()


def test_registry_get_or_create_and_type_guard():
    reg = MetricsRegistry()
    c = reg.counter("a")
    assert reg.counter("a") is c
    assert "a" in reg
    with pytest.raises(TypeError):
        reg.gauge("a")
    reg.histogram("h")
    reg.timeseries("t")
    assert reg.names() == ["a", "h", "t"]


def test_registry_dump_is_sorted_valid_json():
    reg = MetricsRegistry()
    reg.counter("z").inc()
    reg.gauge("a").set(2)
    dumped = json.loads(reg.to_json())
    assert list(dumped) == sorted(dumped)
    assert dumped["z"]["value"] == 1


def test_registry_render_mentions_every_metric():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(1)
    reg.histogram("h").observe(2)
    reg.timeseries("t").sample(0, 1)
    text = reg.render()
    for name in ("c", "g", "h", "t"):
        assert name in text
