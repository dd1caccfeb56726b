"""Metrics registry: counters, log-bucketed histograms."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_spaced_buckets,
    set_registry,
)


class TestBuckets:
    def test_log_spaced_are_ascending_and_cover_range(self):
        bounds = log_spaced_buckets(1e-3, 10.0)
        assert bounds == sorted(bounds)
        assert bounds[0] <= 1e-3
        assert bounds[-1] >= 10.0

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            log_spaced_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_spaced_buckets(1.0, 1.0)

    def test_default_latency_buckets_span_100us_to_1000s(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-4
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 1e3


class TestCounter:
    def test_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestHistogram:
    def test_observations_land_in_fixed_buckets(self):
        h = Histogram("lat", bounds=[1.0, 10.0, 100.0])
        for v in (0.5, 5.0, 5.0, 50.0, 5000.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["bucket_counts"] == [1, 2, 1, 1]  # last = overflow
        assert snap["count"] == 5
        assert snap["min"] == 0.5
        assert snap["max"] == 5000.0
        assert h.mean == pytest.approx(snap["sum"] / 5)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=[2.0, 1.0])

    def test_snapshot_is_json_serializable(self):
        h = Histogram("lat")
        h.observe(0.123)
        json.dumps(h.snapshot())


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", bounds=[1.0]).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2.0}
        assert snap["h"]["type"] == "histogram"
        json.dumps(snap)

    def test_get_unknown_returns_none(self):
        assert MetricsRegistry().get("missing") is None

    def test_set_registry_swaps_process_default(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous
