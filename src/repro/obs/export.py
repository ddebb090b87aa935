"""Trace exporters: JSONL event log, Chrome trace-event JSON, summaries.

Formats
-------
- **JSONL** (``<label>.jsonl``): one JSON object per line.  Line 1 is a
  ``{"type": "meta", ...}`` header, then one ``{"type": "span", ...}``
  per span (schema: :meth:`repro.obs.trace.Span.to_dict`), then a final
  ``{"type": "metrics", "snapshot": ...}`` line.  Round-trips through
  :func:`load_trace`.
- **Chrome trace-event JSON** (``<label>.chrome.json``): the
  ``{"traceEvents": [...]}`` object format, loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Complete spans use
  ``ph: "X"`` with microsecond ``ts``/``dur``; instant events use
  ``ph: "i"``; ``process_name`` metadata labels the server's pid.
- **Terminal summary** (:func:`summarize_trace`): per-phase wall-clock
  table plus the headline gauges, for humans and for ``python -m repro
  trace``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.trace import NullTracer, Span, Tracer

_FORMAT_VERSION = 1

#: Monotonic counter disambiguating multiple traced runs per process
#: (e.g. a sweep running many configs over one seed).
_RUN_COUNTER = [0]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write the finalized timeline + metrics snapshot as JSONL."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(
            {
                "type": "meta",
                "format_version": _FORMAT_VERSION,
                "server_pid": tracer.pid,
                "t0_ns": tracer.t0_ns,
            }
        )
    ]
    lines.extend(json.dumps(span.to_dict()) for span in tracer.finalized_spans())
    lines.append(
        json.dumps({"type": "metrics", "snapshot": tracer.metrics.snapshot()})
    )
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(path: str | Path) -> tuple[list[Span], dict, dict]:
    """Load ``(spans, metrics_snapshot, meta)`` from a JSONL trace."""
    spans: list[Span] = []
    snapshot: dict = {}
    meta: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        kind = row.get("type")
        if kind == "span":
            spans.append(Span.from_dict(row))
        elif kind == "metrics":
            snapshot = row.get("snapshot", {})
        elif kind == "meta":
            meta = row
            version = row.get("format_version")
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported trace version: {version!r}")
    return spans, snapshot, meta


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def chrome_trace(tracer: Tracer) -> dict:
    """The trace as a Chrome trace-event object (microsecond timestamps)."""
    t0 = tracer.t0_ns
    events: list[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": tracer.pid,
        "tid": 0,
        "args": {"name": "server"},
    }]
    for span in tracer.finalized_spans():
        args = dict(span.attrs)
        if span.round_idx is not None:
            args["round"] = span.round_idx
        event = {
            "name": span.name,
            "cat": span.cat,
            "ts": (span.start_ns - t0) / 1000.0,
            "pid": span.pid,
            "tid": span.tid,
            "args": args,
        }
        if span.dur_ns:
            event["ph"] = "X"
            event["dur"] = span.dur_ns / 1000.0
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer)))
    return path


# ----------------------------------------------------------------------
# Summaries and diffs
# ----------------------------------------------------------------------
def phase_table(spans: list[Span]) -> dict[str, dict]:
    """Per-phase aggregate: ``{name: {count, total_s, mean_s}}``."""
    table: dict[str, dict] = {}
    for span in spans:
        if span.cat != "phase":
            continue
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.dur_ns * 1e-9
    for row in table.values():
        row["mean_s"] = row["total_s"] / row["count"] if row["count"] else 0.0
    return table


def summarize_trace(
    spans: list[Span], snapshot: dict | None = None, title: str = "trace summary"
) -> str:
    """Human-readable run summary: phases, rounds, throughput."""
    snapshot = snapshot or {}
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    pids = sorted({span.pid for span in spans})
    lines = [
        title,
        f"spans: {len(spans)} across {len(pids)} process(es)",
    ]
    rounds = counters.get("rounds_total")
    if rounds:
        accepted = counters.get("rounds_accepted", 0)
        lines.append(
            f"rounds: {rounds} ({accepted} accepted, "
            f"{counters.get('rounds_rejected', 0)} rejected)"
        )
    if "rounds_per_s" in gauges:
        lines.append(f"throughput: {gauges['rounds_per_s']:.2f} rounds/s")
    table = phase_table(spans)
    if table:
        lines.append(f"{'phase':<18} {'count':>6} {'total s':>10} {'mean ms':>10}")
        for name in sorted(table, key=lambda n: -table[n]["total_s"]):
            row = table[name]
            lines.append(
                f"{name:<18} {row['count']:>6} {row['total_s']:>10.3f} "
                f"{row['mean_s'] * 1e3:>10.3f}"
            )
    return "\n".join(lines)


def diff_traces(
    spans_a: list[Span], spans_b: list[Span]
) -> tuple[str | None, list[str]]:
    """Compare two traces: structural first-divergence + per-phase deltas.

    Mirrors :func:`repro.analysis.divergence.first_divergence`: the
    structural pass walks both phase-span sequences in order and reports
    the first position where the ``(round, name)`` shape differs — two
    runs of the same configuration must execute the same phases in the
    same order, whatever their timings.  Returns ``(structural_msg,
    per_phase_delta_lines)`` where ``structural_msg`` is ``None`` for
    structurally identical traces.
    """
    shape_a = [
        (s.round_idx, s.name) for s in spans_a if s.cat in ("phase", "round")
    ]
    shape_b = [
        (s.round_idx, s.name) for s in spans_b if s.cat in ("phase", "round")
    ]
    structural: str | None = None
    for index, (a, b) in enumerate(zip(shape_a, shape_b)):
        if a != b:
            structural = (
                f"traces diverge structurally at span {index}: "
                f"round {a[0]} {a[1]!r} vs round {b[0]} {b[1]!r}"
            )
            break
    if structural is None and len(shape_a) != len(shape_b):
        structural = (
            f"traces diverge structurally: {len(shape_a)} vs "
            f"{len(shape_b)} phase spans"
        )
    table_a, table_b = phase_table(spans_a), phase_table(spans_b)
    lines = [
        f"{'phase':<18} {'A mean ms':>11} {'B mean ms':>11} {'delta':>8}"
    ]
    for name in sorted(set(table_a) | set(table_b)):
        mean_a = table_a.get(name, {}).get("mean_s", 0.0) * 1e3
        mean_b = table_b.get(name, {}).get("mean_s", 0.0) * 1e3
        delta = (
            f"{(mean_b - mean_a) / mean_a * 100.0:+.1f}%" if mean_a else "n/a"
        )
        lines.append(f"{name:<18} {mean_a:>11.3f} {mean_b:>11.3f} {delta:>8}")
    return structural, lines


# ----------------------------------------------------------------------
# Run export
# ----------------------------------------------------------------------
def export_run(
    tracer: Tracer | NullTracer, trace_dir: str | None, label: str
) -> dict[str, Path] | None:
    """Write a traced run's JSONL + Chrome trace into ``trace_dir``.

    No-op (returns ``None``) when tracing is off.  File names embed the
    pid and a per-process run counter so seed fan-out processes and
    multi-config sweeps never overwrite each other.  Returns
    ``{"base": stem-path, "jsonl": ..., "chrome": ...}``.
    """
    if not trace_dir or not getattr(tracer, "enabled", False):
        return None
    _RUN_COUNTER[0] += 1
    stem = f"{label}-p{tracer.pid}-r{_RUN_COUNTER[0]:03d}"
    base = Path(trace_dir) / stem
    return {
        "base": base,
        "jsonl": write_jsonl(tracer, base.with_suffix(".jsonl")),
        "chrome": write_chrome_trace(tracer, base.with_suffix(".chrome.json")),
    }
