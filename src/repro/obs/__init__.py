"""Round-lifecycle observability: tracing spans and a metrics registry.

The round loop (:mod:`repro.fl.simulation`), the executors
(:mod:`repro.fl.parallel`) and the defense (:mod:`repro.core.baffle`)
emit monotonic-clock spans for every phase of a round — select,
materialize, client train, aggregate, validate, commit / reject, and
recovery replays — into a :class:`Tracer`, the thread engine's pool
threads included.

Tracing is pure instrumentation: it draws no randomness, never touches a
weight array, and a traced run commits bit-identical models to an
untraced one (enforced by the ``observability-safety`` lint check and the
equivalence tests).  The default is the zero-allocation
:data:`NULL_TRACER`, so un-traced runs pay one attribute check per
instrumentation site.

Exports (:mod:`repro.obs.export`) cover a JSONL event log, Chrome
trace-event JSON loadable in Perfetto / ``chrome://tracing``, and a
terminal summary; ``python -m repro trace <file> [file]`` summarizes or
diffs them.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    check_attrs,
    make_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "check_attrs",
    "make_tracer",
]
