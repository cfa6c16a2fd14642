"""Unit tests for spans, trace events, and the bounded trace ring."""

import pytest

from repro.obs import DEFAULT_CAPACITY, MetricsRegistry, Observability, Tracer, load_jsonl


def make_tracer(**kw):
    t = [0.0]
    tracer = Tracer(clock=lambda: t[0], enabled=True, **kw)
    return tracer, t


def test_span_nesting_records_parent():
    tracer, t = make_tracer()
    with tracer.span("outer", region="a") as outer:
        t[0] = 1.0
        with tracer.span("inner") as inner:
            t[0] = 2.0
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id  # inherited, not fresh
    records = tracer.records()
    assert [r["name"] for r in records] == ["inner", "outer"]  # close order
    inner_rec, outer_rec = records
    assert inner_rec["parent"] == outer.span_id
    assert outer_rec["t"] == 0.0 and outer_rec["end"] == 2.0
    assert outer_rec["outcome"] == "ok"
    assert outer_rec["region"] == "a"


def test_span_error_outcome():
    tracer, _ = make_tracer()
    try:
        with tracer.span("op"):
            raise ValueError("boom")
    except ValueError:
        pass
    (rec,) = tracer.records()
    assert rec["outcome"] == "error:ValueError"


def test_span_manual_finish_is_idempotent():
    tracer, t = make_tracer()
    span = tracer.span("sync")
    t[0] = 3.0
    span.finish("ok")
    span.finish("error:late")  # ignored
    (rec,) = tracer.records()
    assert rec["outcome"] == "ok" and rec["end"] == 3.0


def test_span_durations_feed_metrics_even_when_disabled():
    metrics = MetricsRegistry()
    t = [0.0]
    tracer = Tracer(clock=lambda: t[0], enabled=False, metrics=metrics)
    span = tracer.span("rcds.sync")
    t[0] = 0.25
    span.finish()
    assert tracer.records() == []  # no trace record while disabled
    h = metrics.histogram("span.rcds.sync")
    assert h.n == 1 and h.max == 0.25


def test_event_noop_when_disabled():
    tracer = Tracer(enabled=False)
    tracer.event("x", foo=1)
    assert len(tracer) == 0 and tracer.dropped == 0


def test_ring_buffer_evicts_oldest_and_counts_drops():
    tracer, _ = make_tracer(capacity=3)
    for i in range(5):
        tracer.event("e", i=i)
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert [r["i"] for r in tracer.records()] == [2, 3, 4]


def test_events_filter_by_trace_and_kind():
    tracer, _ = make_tracer()
    tid = tracer.new_trace_id()
    other = tracer.new_trace_id()
    tracer.event("send", trace_id=tid)
    tracer.event("send", trace_id=other)
    tracer.event("deliver", trace_id=tid)
    assert len(tracer.events(trace_id=tid)) == 2
    assert [r["kind"] for r in tracer.events(trace_id=tid, kind="deliver")] == ["deliver"]


def test_jsonl_round_trip(tmp_path):
    tracer, t = make_tracer()
    tracer.event("a", x=1)
    t[0] = 1.5
    tracer.event("b", y="z")
    path = tmp_path / "trace.jsonl"
    assert tracer.dump_jsonl(str(path)) == 2
    back = load_jsonl(path.read_text().splitlines())
    assert back == tracer.records()
    assert load_jsonl(tracer.to_jsonl().splitlines()) == tracer.records()


def test_sample_rate_keeps_deterministic_one_in_n():
    tracer, _ = make_tracer()
    tracer.sample_rate = 0.25
    for i in range(12):
        tracer.event("e", i=i)
    # Counter-based: every 4th record survives, same ones every run.
    assert [r["i"] for r in tracer.records()] == [3, 7, 11]
    assert tracer.sampled_out == 9
    assert tracer.dropped == 0  # thinned, not evicted


def test_sample_rate_roundtrip_and_validation():
    tracer, _ = make_tracer()
    assert tracer.sample_rate == 1.0  # default keeps everything
    tracer.sample_rate = 0.01
    assert tracer.sample_rate == pytest.approx(0.01)
    tracer.sample_rate = 2.0  # clamped to keep-everything
    assert tracer.sample_rate == 1.0
    for bad in (0.0, -0.5):
        with pytest.raises(ValueError):
            tracer.sample_rate = bad


def test_sampling_applies_to_spans_too():
    tracer, _ = make_tracer()
    tracer.sample_rate = 0.5
    for _ in range(4):
        with tracer.span("op"):
            pass
    assert len(tracer) == 2
    assert tracer.sampled_out == 2


def test_sampling_thins_records_but_histograms_stay_exact():
    metrics = MetricsRegistry()
    t = [0.0]
    tracer = Tracer(clock=lambda: t[0], enabled=True, metrics=metrics)
    tracer.sample_rate = 0.1
    for _ in range(20):
        span = tracer.span("rcds.sync")
        t[0] += 0.1
        span.finish()
    assert len(tracer) == 2  # 1-in-10 of 20 span records
    assert metrics.histogram("span.rcds.sync").n == 20  # every duration counted


def test_maybe_trace_id_allocates_only_when_enabled():
    tracer = Tracer(enabled=False)
    assert tracer.maybe_trace_id() is None
    assert tracer.maybe_trace_id() is None
    tracer.enabled = True
    assert tracer.maybe_trace_id() == 1  # ids start fresh: none were burned
    assert tracer.maybe_trace_id() == 2


def test_observability_bundle_export():
    obs = Observability(clock=lambda: 1.0)
    obs.tracer.enabled = True
    obs.metrics.counter("x.ops").inc()
    obs.event("e")
    out = obs.export()
    assert out["counters"][0]["name"] == "x.ops"
    assert out["trace"] == {"records": 1, "dropped": 0, "sampled_out": 0,
                            "capacity": DEFAULT_CAPACITY}
