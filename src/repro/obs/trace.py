"""Spans, events, and the tracer they accumulate in.

Everything here runs on the **monotonic** clock (``time.monotonic_ns``)
— wall-clock time (``time.time``) can step backwards under NTP and would
corrupt span durations; the ``observability-safety`` lint check enforces
the restriction for the whole package.

Two tracer implementations share one interface:

- :class:`NullTracer` (the module singleton :data:`NULL_TRACER`) is the
  default everywhere.  Its ``span()`` returns one shared, immutable
  context manager, so an un-traced hot path allocates nothing per call.
- :class:`Tracer` records :class:`Span` objects under a lock (the thread
  engine records from pool threads).

Span attributes must be scalars (:func:`check_attrs`): the hard contract
is that tracing never captures a weight array, so anything that is not
an ``int``/``float``/``str``/``bool``/``None`` is rejected at record
time.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

#: Scalar types admissible as span-attribute values.  Deliberately
#: closed: an ``np.ndarray`` (or anything else model-sized) must never
#: ride along on a span.
_SCALAR_TYPES = (int, float, str, bool, type(None))


def check_attrs(attrs: dict) -> dict:
    """Validate span attributes: scalars only, never arrays.

    Raises ``TypeError`` on the first offending value; returns ``attrs``
    unchanged otherwise so call sites can validate inline.
    """
    for key, value in attrs.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"span attribute {key!r} must be a scalar "
                f"(int/float/str/bool/None), got {type(value).__name__}; "
                "tracing must never capture arrays"
            )
    return attrs


@dataclass(frozen=True)
class Span:
    """One timed (or instant) observation on the run's timeline.

    ``start_ns`` is monotonic-clock nanoseconds; ``dur_ns == 0`` marks an
    instant event.
    """

    name: str
    cat: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: int
    round_idx: int | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "cat": self.cat,
            "ts": self.start_ns,
            "dur": self.dur_ns,
            "pid": self.pid,
            "tid": self.tid,
            "round": self.round_idx,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        round_idx = data.get("round")
        return cls(
            name=str(data["name"]),
            cat=str(data["cat"]),
            start_ns=int(data["ts"]),
            dur_ns=int(data["dur"]),
            pid=int(data["pid"]),
            tid=int(data["tid"]),
            round_idx=None if round_idx is None else int(round_idx),
            attrs=dict(data.get("attrs", {})),
        )


class _NullSpan:
    """The shared no-op span context: one instance serves every call."""

    __slots__ = ()
    dur_ns = 0

    @property
    def duration_s(self) -> float:
        return 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-allocation no-op tracer: the default at every call site.

    All methods are inert; ``span()`` hands back the one shared
    :class:`_NullSpan`, so disabled instrumentation costs a method call
    and nothing else.
    """

    enabled = False

    def span(self, name, cat="phase", round_idx=None, **attrs):
        return _NULL_SPAN

    def event(self, name, cat="event", round_idx=None, **attrs) -> None:
        return None

    def elapsed_s(self) -> float:
        return 0.0


#: The process-wide no-op tracer instance.
NULL_TRACER = NullTracer()


class _SpanContext:
    """An open span: times the enclosed block and records it on exit."""

    __slots__ = ("_tracer", "name", "cat", "round_idx", "attrs", "start_ns",
                 "dur_ns")

    def __init__(self, tracer, name, cat, round_idx, attrs):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.round_idx = round_idx
        self.attrs = attrs
        self.start_ns = 0
        self.dur_ns = 0

    @property
    def duration_s(self) -> float:
        return self.dur_ns * 1e-9

    def __enter__(self) -> "_SpanContext":
        self.start_ns = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.dur_ns = time.monotonic_ns() - self.start_ns
        self._tracer._record_open(self)
        return False


class Tracer:
    """Collects one run's spans and metrics on one monotonic timeline.

    Thread-safe: the thread engine's pool threads record spans directly.
    The tracer holds no model state — only names, scalars, and clock
    readings.
    """

    enabled = True

    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self.pid = os.getpid()
        self.t0_ns = time.monotonic_ns()
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name, cat="phase", round_idx=None, **attrs) -> _SpanContext:
        """Open a timed span; record happens when the ``with`` block exits."""
        return _SpanContext(self, name, cat, round_idx, check_attrs(attrs))

    def event(self, name, cat="event", round_idx=None, **attrs) -> None:
        """Record an instant (zero-duration) event at the current time."""
        span = Span(
            name=name,
            cat=cat,
            start_ns=time.monotonic_ns(),
            dur_ns=0,
            pid=self.pid,
            tid=threading.get_ident(),
            round_idx=round_idx,
            attrs=check_attrs(attrs),
        )
        with self._lock:
            self._spans.append(span)

    def _record_open(self, ctx: _SpanContext) -> None:
        span = Span(
            name=ctx.name,
            cat=ctx.cat,
            start_ns=ctx.start_ns,
            dur_ns=ctx.dur_ns,
            pid=self.pid,
            tid=threading.get_ident(),
            round_idx=ctx.round_idx,
            attrs=ctx.attrs,
        )
        with self._lock:
            self._spans.append(span)
        if ctx.cat == "phase":
            self.metrics.histogram(f"phase.{ctx.name}_s").observe(
                ctx.dur_ns * 1e-9
            )

    def elapsed_s(self) -> float:
        """Seconds since this tracer was created (monotonic)."""
        return (time.monotonic_ns() - self.t0_ns) * 1e-9

    def finalized_spans(self) -> list[Span]:
        """All recorded spans, sorted by start time."""
        with self._lock:
            out = list(self._spans)
        out.sort(key=lambda s: (s.start_ns, s.pid, s.tid, s.name))
        return out


def make_tracer(trace: str | bool | None) -> Tracer | NullTracer:
    """A :class:`Tracer` when tracing is requested, else :data:`NULL_TRACER`.

    ``trace`` is typically ``ExperimentConfig.trace`` — an output
    directory (truthy) or ``None``.
    """
    return Tracer() if trace else NULL_TRACER
