"""Counter/gauge/histogram semantics and the registry contextvar binding."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    use_metrics,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("repro_things_total")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_are_independent_series(self):
        counter = Counter("repro_things_total")
        counter.inc(2, kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 2
        assert counter.value(kind="b") == 3
        assert counter.value() == 0.0

    def test_label_order_is_irrelevant(self):
        counter = Counter("repro_things_total")
        counter.inc(1, a="1", b="2")
        assert counter.value(b="2", a="1") == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("repro_things_total").inc(-1)

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("0bad")
        with pytest.raises(ValueError):
            Counter("repro_ok_total").inc(1, **{"bad-label": "x"})


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("repro_level")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13


class TestHistogram:
    def test_observations_fill_cumulative_buckets(self):
        histogram = Histogram("repro_h", buckets=(1, 5, 10))
        for value in (0.5, 3, 7, 100):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == [1, 2, 3]  # cumulative per bound
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(110.5)

    def test_bounds_are_sorted(self):
        histogram = Histogram("repro_h", buckets=(10, 1, 5))
        assert histogram.bounds == (1.0, 5.0, 10.0)

    def test_labeled_series(self):
        histogram = Histogram("repro_h", buckets=(1,))
        histogram.observe(0.5, stage="matrix")
        histogram.observe(2.0, stage="dbscan")
        assert histogram.snapshot(stage="matrix")["count"] == 1
        assert histogram.snapshot(stage="dbscan")["buckets"] == [0]

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("repro_h", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_c_total") is registry.counter("repro_c_total")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(TypeError):
            registry.gauge("repro_x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", help="c help").inc(2, kind="a")
        registry.gauge("repro_g").set(1.5)
        registry.histogram("repro_h", buckets=(1, 2)).observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["repro_c_total"]["type"] == "counter"
        assert snapshot["repro_c_total"]["help"] == "c help"
        assert snapshot["repro_c_total"]["series"] == [
            {"labels": {"kind": "a"}, "value": 2.0}
        ]
        assert snapshot["repro_g"]["series"][0]["value"] == 1.5
        histogram_series = snapshot["repro_h"]["series"][0]
        assert histogram_series["bounds"] == [1.0, 2.0]
        assert histogram_series["buckets"] == [0, 1]
        assert histogram_series["count"] == 1


class TestContextBinding:
    def test_use_metrics_binds_and_restores(self):
        outer, mine = MetricsRegistry(), MetricsRegistry()
        with use_metrics(outer):
            with use_metrics(mine):
                assert get_metrics() is mine
                get_metrics().counter("repro_scoped_total").inc()
            assert get_metrics() is outer
        assert mine.counter("repro_scoped_total").value() == 1
        assert outer.counter("repro_scoped_total").value() == 0

    def test_unbound_counter_is_not_kept(self):
        # With nothing bound there is no process-wide registry: what one
        # call records is invisible to every later one.
        name = "repro_test_unbound_total"
        get_metrics().counter(name).inc(4)
        assert get_metrics().counter(name).value() == 0
        assert get_metrics() is not get_metrics()


class TestCacheCounterCompat:
    def test_cache_counters_reads_active_registry(self):
        from repro.core.matrixcache import cache_counters

        with use_metrics(MetricsRegistry()):
            assert cache_counters() == {"hits": 0, "misses": 0, "stores": 0}
            get_metrics().counter("repro_matrix_cache_hits_total").inc(2)
            assert cache_counters()["hits"] == 2
        with use_metrics(MetricsRegistry()):
            assert cache_counters() == {"hits": 0, "misses": 0, "stores": 0}
        assert cache_counters() == {"hits": 0, "misses": 0, "stores": 0}
