"""Unit tests for spans, the tracer, and metrics."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    check_attrs,
    make_tracer,
)
from repro.obs.metrics import MetricsRegistry


class TestCheckAttrs:
    def test_scalars_pass_through_unchanged(self):
        attrs = {"clients": 3, "ratio": 0.5, "engine": "thread",
                 "ok": True, "missing": None}
        assert check_attrs(attrs) is attrs

    def test_arrays_are_rejected(self):
        with pytest.raises(TypeError, match="never capture arrays"):
            check_attrs({"weights": np.zeros(4, dtype=np.float64)})

    def test_containers_are_rejected(self):
        with pytest.raises(TypeError, match="must be a scalar"):
            check_attrs({"votes": [1, 0, 1]})


class TestSpanSchema:
    def test_dict_round_trip(self):
        span = Span(
            name="train", cat="phase", start_ns=123, dur_ns=456,
            pid=42, tid=7, round_idx=3, attrs={"clients": 2},
        )
        assert Span.from_dict(span.to_dict()) == span

    def test_instant_event_round_trip_keeps_none_round(self):
        span = Span(name="materialize", cat="event", start_ns=9, dur_ns=0,
                    pid=1, tid=1)
        restored = Span.from_dict(span.to_dict())
        assert restored.round_idx is None
        assert restored.dur_ns == 0


class TestNullTracer:
    def test_span_is_one_shared_object(self):
        a = NULL_TRACER.span("train", round_idx=1, clients=3)
        b = NULL_TRACER.span("validate")
        assert a is b  # zero allocation on the disabled hot path
        with a as span:
            assert span.duration_s == 0.0

    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.event("x") is None
        assert NULL_TRACER.elapsed_s() == 0.0

    def test_make_tracer_dispatch(self):
        assert make_tracer(None) is NULL_TRACER
        assert make_tracer("") is NULL_TRACER
        assert isinstance(make_tracer("/tmp/traces"), Tracer)
        assert isinstance(make_tracer(None), NullTracer)


class TestTracerRecording:
    def test_span_records_on_exit_with_duration(self):
        tracer = Tracer()
        with tracer.span("train", round_idx=2, clients=3) as ctx:
            time.sleep(0.001)
        assert ctx.dur_ns > 0
        [span] = tracer.finalized_spans()
        assert span.name == "train"
        assert span.cat == "phase"
        assert span.round_idx == 2
        assert span.attrs == {"clients": 3}
        assert span.pid == tracer.pid
        assert span.tid == threading.get_ident()

    def test_phase_spans_feed_the_phase_histogram(self):
        tracer = Tracer()
        with tracer.span("validate", round_idx=0):
            pass
        with tracer.span("commit", cat="round", round_idx=0):
            pass
        snapshot = tracer.metrics.snapshot()
        assert "phase.validate_s" in snapshot["histograms"]
        assert snapshot["histograms"]["phase.validate_s"]["count"] == 1
        # Non-phase categories never pollute the phase histograms.
        assert "phase.commit_s" not in snapshot["histograms"]

    def test_event_is_instant(self):
        tracer = Tracer()
        tracer.event("materialize", round_idx=1, clients=4)
        [span] = tracer.finalized_spans()
        assert span.dur_ns == 0
        assert span.cat == "event"

    def test_array_attr_rejected_at_open_time(self):
        tracer = Tracer()
        with pytest.raises(TypeError):
            tracer.span("train", weights=np.zeros(3, dtype=np.float64))

    def test_finalized_spans_sorted_by_start(self):
        tracer = Tracer()
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        starts = [s.start_ns for s in tracer.finalized_spans()]
        assert starts == sorted(starts)


class TestPoolThreadSpans:
    def test_spans_from_another_thread_keep_its_tid_and_the_pid(self):
        """The thread engine records worker spans from pool threads: they
        land on the one timeline with the tracer's pid and their own tid."""
        tracer = Tracer()
        tids = []

        def work():
            tids.append(threading.get_ident())
            with tracer.span("train.client", cat="worker", round_idx=0, client=5):
                pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        [span] = tracer.finalized_spans()
        assert (span.pid, span.tid) == (tracer.pid, tids[0])
        assert span.tid != threading.get_ident()
        assert span.attrs == {"client": 5}


class TestMetricsRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("rounds_total") is registry.counter("rounds_total")
        assert registry.gauge("rss") is registry.gauge("rss")
        assert registry.histogram("lag") is registry.histogram("lag")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("rounds_total").inc()
        registry.counter("rounds_total").inc(2)
        registry.gauge("rounds_per_s").set(3.5)
        for value in (1.0, 3.0):
            registry.histogram("phase.train_s").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"rounds_total": 3}
        assert snapshot["gauges"] == {"rounds_per_s": 3.5}
        hist = snapshot["histograms"]["phase.train_s"]
        assert hist == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
                        "mean": 2.0}

    def test_empty_histogram_mean_is_zero(self):
        assert MetricsRegistry().histogram("x").mean == 0.0
