"""Unit tests for the tagged metrics registry and HDR-style histograms."""

import math
import random

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import GROWTH, Histogram


def test_counter_interning_and_tags():
    reg = MetricsRegistry()
    a = reg.counter("transport.tx", proto="srudp")
    b = reg.counter("transport.tx", proto="srudp")
    c = reg.counter("transport.tx", proto="tcp")
    assert a is b and a is not c
    a.inc()
    a.inc(2)
    assert b.value == 3.0
    assert c.value == 0.0


def test_tag_order_does_not_matter():
    reg = MetricsRegistry()
    assert reg.counter("x", a="1", b="2") is reg.counter("x", b="2", a="1")


def test_gauge_set_and_timestamp():
    reg = MetricsRegistry(clock=lambda: 42.0)
    g = reg.gauge("daemon.load", host="h0")
    g.set(1.5, at=3.0)
    assert g.value == 1.5
    assert g.updated_at == 3.0


def test_histogram_exact_stats():
    h = Histogram("lat")
    for v in [0.001, 0.01, 0.1, 1.0]:
        h.observe(v)
    assert h.n == 4
    assert h.sum == pytest.approx(1.111)
    assert h.mean == pytest.approx(1.111 / 4)
    assert h.min == 0.001
    assert h.max == 1.0


def test_histogram_percentile_relative_error_bound():
    """Quantile estimates stay within the GROWTH-1 (10%) relative bound."""
    rng = random.Random(1234)
    values = [10 ** rng.uniform(-4, 1) for _ in range(5000)]  # 5 decades
    h = Histogram("lat")
    for v in values:
        h.observe(v)
    values.sort()
    for p in (50, 90, 95, 99):
        exact = values[max(0, math.ceil(len(values) * p / 100.0) - 1)]
        est = h.percentile(p)
        assert abs(est - exact) / exact <= (GROWTH - 1) + 1e-9, (p, est, exact)


def test_histogram_underflow_bucket():
    h = Histogram("lat")
    h.observe(0.0)
    h.observe(-1.0)
    assert h.p50 == 0.0
    assert h.n == 2
    assert h.min == -1.0


def test_histogram_empty():
    h = Histogram("lat")
    assert h.p50 == 0.0 and h.mean == 0.0 and h.min == 0.0 and h.max == 0.0


def test_histogram_single_value_clamps_to_observed():
    h = Histogram("lat")
    h.observe(0.37)
    # The bucket bound may overshoot; clamping pins it to the exact max.
    assert h.p50 == 0.37
    assert h.p99 == 0.37


def test_snapshot_and_export_shapes():
    reg = MetricsRegistry()
    reg.counter("a.ops").inc(2)
    reg.gauge("b.depth").set(7.0)
    reg.histogram("c.lat", proto="x").observe(0.5)
    snap = reg.snapshot()
    assert snap["a.ops"] == 2.0
    assert snap["b.depth"] == 7.0
    assert snap["c.lat{proto=x}.count"] == 1.0
    assert snap["c.lat{proto=x}.p99"] == 0.5
    export = reg.export()
    assert export["counters"][0] == {"name": "a.ops", "tags": {}, "value": 2.0}
    (hist,) = export["histograms"]
    assert hist["name"] == "c.lat" and hist["tags"] == {"proto": "x"}
    for col in ("count", "sum", "mean", "min", "max", "p50", "p95", "p99"):
        assert col in hist
    # export() must be JSON-serialisable as-is.
    import json

    json.dumps(export)
