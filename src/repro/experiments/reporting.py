"""Text rendering of the paper's tables and figure series."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.experiments.metrics import AggregateStats

_MODE_LABELS = {"clients": "C", "server": "S", "both": "C+S"}


def format_table1(
    results: Mapping[tuple[int, float, str], AggregateStats],
    lookbacks: Sequence[int],
    splits: Sequence[float],
    dataset: str,
) -> str:
    """Render a Table I block: FP/FN per (lookback, split, mode)."""
    lines = [
        f"Table I ({dataset}): detection rates for look-back window l and split C-S%",
        f"{'l':>3} {'split':>7} | "
        f"{'FP(C)':>13} {'FP(S)':>13} {'FP(C+S)':>13} | "
        f"{'FN(C)':>13} {'FN(S)':>13} {'FN(C+S)':>13}",
    ]
    for split in splits:
        for lookback in lookbacks:
            cells = {
                mode: results[(lookback, split, mode)]
                for mode in ("clients", "server", "both")
                if (lookback, split, mode) in results
            }
            fp = " ".join(
                _rate(cells.get(m), "fp") for m in ("clients", "server", "both")
            )
            fn = " ".join(
                _rate(cells.get(m), "fn") for m in ("clients", "server", "both")
            )
            lines.append(f"{lookback:>3} {_split_label(split):>7} | {fp} | {fn}")
    return "\n".join(lines)


def format_quorum_series(
    results: Mapping[tuple[int, float, str], AggregateStats],
    quorums: Sequence[int],
    split: float,
    dataset: str,
) -> str:
    """Render one Fig. 3 panel: FP/FN vs quorum threshold for one split."""
    lines = [
        f"Figure 3 ({dataset}, split {_split_label(split)}): detection vs quorum q",
        f"{'q':>3} | {'C FP':>7} {'C FN':>7} | {'S FP':>7} {'S FN':>7} | "
        f"{'C+S FP':>7} {'C+S FN':>7}",
    ]
    for q in quorums:
        row = [f"{q:>3} |"]
        for mode in ("clients", "server", "both"):
            stats = results.get((q, split, mode))
            if stats is None:
                row.append(f"{'-':>7} {'-':>7}")
            else:
                row.append(f"{stats.fp_mean:>7.3f} {stats.fn_mean:>7.3f}")
            if mode != "both":
                row.append("|")
        lines.append(" ".join(row))
    return "\n".join(lines)


def format_table2(
    results: Mapping[float, "object"],  # split -> AdaptiveExperimentResult
) -> str:
    """Render Table II: FN rates for adaptive vs non-adaptive injections."""
    lines = [
        "Table II: FN rates against adaptive injections (CIFAR-like)",
        f"{'split':>7} {'attack':>13} | {'FN (C+S)':>12} {'self-check pass':>16}",
    ]
    for split, result in sorted(results.items()):
        lines.append(
            f"{_split_label(split):>7} {'Non-Adaptive':>13} | "
            f"{result.non_adaptive.fn_mean:>12.3f} {'-':>16}"
        )
        lines.append(
            f"{_split_label(split):>7} {'Adaptive':>13} | "
            f"{result.adaptive.fn_mean:>12.3f} "
            f"{result.self_check_pass_rate:>16.2f}"
        )
    return "\n".join(lines)


def format_vote_distribution(
    votes_by_split: Mapping[float, Sequence[int]], num_validators: int
) -> str:
    """Render Fig. 5: cumulative share of injections vs reject votes."""
    lines = [
        "Figure 5: distribution of reject votes on adaptively poisoned models",
        "votes>= " + " ".join(f"{v:>6}" for v in range(1, num_validators + 1)),
    ]
    for split, votes in sorted(votes_by_split.items()):
        counts = np.asarray(votes, dtype=np.float64)
        if len(counts) == 0:
            continue
        cumulative = [
            float((counts >= v).mean()) for v in range(1, num_validators + 1)
        ]
        lines.append(
            f"{_split_label(split):>7} "
            + " ".join(f"{c:>6.2f}" for c in cumulative)
        )
    return "\n".join(lines)


def format_series(
    title: str, columns: Mapping[str, Sequence[float]], x: Sequence[int | float]
) -> str:
    """Generic figure-as-text: one x column plus named y series."""
    names = list(columns)
    lines = [title, "x " + " ".join(f"{n:>14}" for n in names)]
    for i, xv in enumerate(x):
        row = " ".join(f"{columns[n][i]:>14.3f}" for n in names)
        lines.append(f"{xv} {row}")
    return "\n".join(lines)


def format_execution_report(
    records: Sequence["object"],
    resilience: Mapping[str, int] | None = None,
) -> str:
    """Render the round loop's execution telemetry.

    Summarizes the :class:`~repro.fl.simulation.RoundRecord` telemetry:
    accepted/rejected rounds, transport volume, population and memory
    figures, and per-phase wall-clock on traced runs.

    ``resilience`` is the executor's recovery ledger
    (:meth:`repro.fl.faults.ResilienceStats.as_dict`); when any counter is
    nonzero — or the records themselves carry retries/shrunken quorums —
    the report grows a "resilience" section so recovered faults never
    vanish from a run summary.
    """
    if not records:
        return "execution report: no rounds"
    rejected = [r for r in records if not r.accepted]
    transport = [r.transport_bytes for r in records]
    lines = [
        "Execution report",
        f"rounds: {len(records)} "
        f"({len(records) - len(rejected)} accepted, {len(rejected)} rejected)",
        f"transport: {np.mean(transport):.0f} B/round mean",
    ]
    # Population-scale telemetry (getattr-defensive: pre-registry record
    # objects lack these fields).  peak_rss_kb is the OS high-water mark,
    # so the last round's value is the run's peak.
    materialized = [getattr(r, "materialized_clients", 0) for r in records]
    peak_rss = getattr(records[-1], "peak_rss_kb", 0)
    if any(materialized):
        lines.append(
            f"materialized clients: {max(materialized)}/round peak "
            f"({np.mean(materialized):.1f} mean)"
        )
    if peak_rss:
        lines.append(f"peak RSS: {peak_rss / 1024:.1f} MiB")
    # Per-phase wall-clock, present only on traced runs (repro.obs).
    phase_totals: dict[str, float] = {}
    for r in records:
        for name, secs in (getattr(r, "phase_times", None) or {}).items():
            phase_totals[name] = phase_totals.get(name, 0.0) + secs
    if phase_totals:
        parts = ", ".join(
            f"{name} {total / len(records) * 1e3:.1f}ms"
            for name, total in sorted(phase_totals.items())
        )
        lines.append(f"phase wall-clock (mean/round): {parts}")
    # Resilience (repro.fl.faults): what the recovery machinery did.
    # Shown whenever anything fired — a crash that was absorbed by a
    # retry still belongs in the run summary.
    record_retries = sum(getattr(r, "retries", 0) for r in records)
    stats = {k: v for k, v in (resilience or {}).items() if v}
    if record_retries or stats:
        lines.append("resilience:")
        if record_retries:
            retried = sum(1 for r in records if getattr(r, "retries", 0))
            lines.append(
                f"  recovery incidents: {record_retries} "
                f"(rounds touched: {retried})"
            )
        for name, value in stats.items():
            lines.append(f"  {name.replace('_', ' ')}: {value}")
    return "\n".join(lines)


def _rate(stats: AggregateStats | None, which: str) -> str:
    if stats is None:
        return f"{'-':>13}"
    mean = stats.fp_mean if which == "fp" else stats.fn_mean
    std = stats.fp_std if which == "fp" else stats.fn_std
    return f"{mean:>6.3f}±{std:<5.3f}"


def _split_label(split: float) -> str:
    client = 100.0 * split
    server = 100.0 - client
    client_str = f"{client:g}"
    server_str = f"{server:g}"
    return f"{client_str}-{server_str}"
