"""Typed run metrics: counters, gauges, histograms, and their registry.

One :class:`MetricsRegistry` per traced run unifies the ad-hoc telemetry
previously scattered across ``RoundRecord`` fields, executor byte
counters and the model store: rounds/s, per-phase wall-clock,
transport volume, shared-memory attach cache hits, materialized clients,
peak RSS.  ``snapshot()`` returns one JSON-serializable dict — the API a
future streaming server polls, and what
:mod:`repro.experiments.persistence` embeds in saved run files.

All operations are lock-protected: the thread engine observes from pool
threads, and worker-batch merges land from gather threads.
"""

from __future__ import annotations

import threading


class Counter:
    """A monotonically increasing count (e.g. rounds, bytes, cache hits)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (e.g. rounds/s, peak RSS, materialized clients)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: int | float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Streaming summary of a distribution (count/sum/min/max, no buffer).

    Deliberately reservoir-free: per-phase wall-clock observations arrive
    every round and the registry must stay O(metrics), not O(rounds).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._lock = lock

    def observe(self, value: int | float) -> None:
        with self._lock:
            value = float(value)
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create access to named metrics plus a ``snapshot()`` view."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._resilience_provider = None

    def bind_resilience(self, provider) -> None:
        """Attach a callable returning the executor's resilience ledger.

        ``snapshot()`` then carries a ``"resilience"`` section sampled at
        snapshot time — the executor owns the counters (they must survive
        engine demotion, which swaps executors under the simulation), the
        registry only reads them.
        """
        self._resilience_provider = provider

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name, self._lock)
        return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name, self._lock)
        return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, self._lock)
        return metric

    def snapshot(self) -> dict:
        """One JSON-serializable view of every metric's current state."""
        provider = self._resilience_provider
        resilience = dict(provider()) if provider is not None else None
        with self._lock:
            view = {
                "counters": {
                    name: metric.value
                    for name, metric in sorted(self._counters.items())
                },
                "gauges": {
                    name: metric.value
                    for name, metric in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "count": metric.count,
                        "sum": metric.total,
                        "min": metric.min,
                        "max": metric.max,
                        "mean": metric.mean,
                    }
                    for name, metric in sorted(self._histograms.items())
                },
            }
        if resilience is not None:
            view["resilience"] = resilience
        return view
