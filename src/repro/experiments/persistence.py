"""JSON persistence for experiment results.

Lets the CLI and long sweeps checkpoint their outputs:
``save_results``/``load_results`` round-trip the aggregate statistics of
arbitrary sweep grids (keys become strings; values keep full precision);
``save_run``/``load_run`` round-trip one run's per-round records — the
round-loop telemetry plus, when the run was traced, per-phase wall-clock
timings and the final metrics snapshot (:mod:`repro.obs`).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path

from repro.experiments.metrics import AggregateStats

_FORMAT_VERSION = 1


def _key_to_str(key) -> str:
    if isinstance(key, tuple):
        return "|".join(str(part) for part in key)
    return str(key)


def _str_to_key(text: str):
    if "|" not in text:
        return _parse_scalar(text)
    return tuple(_parse_scalar(part) for part in text.split("|"))


def _parse_scalar(text: str):
    for parser in (int, float):
        try:
            return parser(text)
        except ValueError:
            continue
    return text


def save_results(
    results: Mapping[object, AggregateStats], path: str | Path, metadata: dict | None = None
) -> Path:
    """Serialise a sweep-result mapping to JSON."""
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "metadata": metadata or {},
        "results": {
            _key_to_str(key): {
                "fp_mean": stats.fp_mean,
                "fp_std": stats.fp_std,
                "fn_mean": stats.fn_mean,
                "fn_std": stats.fn_std,
                "num_runs": stats.num_runs,
            }
            for key, stats in results.items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_results(path: str | Path) -> tuple[dict, dict]:
    """Load ``(results, metadata)`` saved by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported result-file version: {version!r}")
    results = {
        _str_to_key(key): AggregateStats(
            fp_mean=value["fp_mean"],
            fp_std=value["fp_std"],
            fn_mean=value["fn_mean"],
            fn_std=value["fn_std"],
            num_runs=value["num_runs"],
        )
        for key, value in payload["results"].items()
    }
    return results, payload.get("metadata", {})


def _record_to_dict(record) -> dict:
    """One round record as a JSON-safe dict.

    getattr-defensive throughout: callers may hand in pre-registry or
    pre-tracing record objects that lack the newer telemetry fields, and
    a duck-typed record (tests) may lack ``decision`` entirely.
    """
    decision = getattr(record, "decision", None)
    row = {
        "round_idx": record.round_idx,
        "accepted": bool(record.accepted),
        "reject_votes": getattr(decision, "reject_votes", 0),
        "num_validators": getattr(decision, "num_validators", 0),
        "peak_rss_kb": getattr(record, "peak_rss_kb", 0),
        "materialized_clients": getattr(record, "materialized_clients", 0),
        "metrics": {k: float(v) for k, v in getattr(record, "metrics", {}).items()},
    }
    phase_times = getattr(record, "phase_times", None)
    if phase_times:
        row["phase_times"] = {k: float(v) for k, v in sorted(phase_times.items())}
    return row


def save_run(
    records,
    path: str | Path,
    metrics: dict | None = None,
    metadata: dict | None = None,
) -> Path:
    """Serialise one run's per-round records (plus an optional final
    metrics snapshot from :meth:`repro.obs.MetricsRegistry.snapshot`)."""
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "metadata": metadata or {},
        "metrics": metrics or {},
        "rounds": [_record_to_dict(r) for r in records],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_run(path: str | Path) -> tuple[list[dict], dict, dict]:
    """Load ``(rounds, metrics, metadata)`` saved by :func:`save_run`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported run-file version: {version!r}")
    return (
        payload.get("rounds", []),
        payload.get("metrics", {}),
        payload.get("metadata", {}),
    )
