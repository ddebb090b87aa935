"""Unit tests for spans, the tracer, clock-offset merge, and metrics."""

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
        assert NULL_TRACER.merge_worker(None) is None
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


class TestWorkerMerge:
    @staticmethod
    def row(name, start_ns, dur_ns=100, round_idx=0):
        # (name, cat, start_ns, dur_ns, tid, round_idx, attrs): the tuple
        # shape _drain_worker_trace packs in repro.fl.parallel.
        return (name, "worker", start_ns, dur_ns, 1, round_idx, {"client": 5})

    def test_none_payload_is_ignored(self):
        tracer = Tracer()
        tracer.merge_worker(None)
        assert tracer.finalized_spans() == []

    def test_worker_span_lands_on_server_timeline(self):
        tracer = Tracer()
        # Worker clock 5 s behind the server's: raw row times would land
        # nonsensically in the past without offset normalization.
        skew = 5_000_000_000
        sent_ns = time.monotonic_ns() - skew
        server_before_merge = time.monotonic_ns()
        tracer.merge_worker(
            (9999, sent_ns, [self.row("train.client", sent_ns - 1000)], None)
        )
        [span] = tracer.finalized_spans()
        assert span.pid == 9999
        # Shifted by receive-sent: lands at (receive - 1000), i.e. on the
        # server's timeline, never 5 s in the past.
        assert span.start_ns >= server_before_merge - 1000
        assert span.dur_ns == 100
        assert span.attrs == {"client": 5}

    def test_min_offset_across_batches_wins(self):
        tracer = Tracer()
        now = time.monotonic_ns()
        # First batch simulates slow transit (sent long ago), second is
        # fresh: the fresh batch's tighter offset must re-anchor both.
        tracer.merge_worker((7, now - 2_000_000_000, [self.row("a", now)], None))
        tracer.merge_worker((7, time.monotonic_ns(), [self.row("b", now)], None))
        spans = {s.name: s for s in tracer.finalized_spans()}
        # Same worker-clock start, same pid => same (minimum) offset.
        assert spans["a"].start_ns == spans["b"].start_ns

    def test_store_stats_feed_shm_counters(self):
        tracer = Tracer()
        tracer.merge_worker((1, time.monotonic_ns(), [], (4, 3)))
        tracer.merge_worker((2, time.monotonic_ns(), [], (2, 1)))
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["shm.worker_attaches"] == 6
        assert counters["shm.worker_attach_hits"] == 4


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
