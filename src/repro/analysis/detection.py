"""Detection-behaviour summaries over round records."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.fl.simulation import RoundRecord


def detection_latency(
    records: Sequence[RoundRecord], injection_rounds: Iterable[int]
) -> dict[int, int | None]:
    """Rounds until each injection was first rejected.

    0 means the injection round itself was rejected (the normal BaFFLe
    outcome); ``None`` means no rejection happened at or after the
    injection (a clean miss).  Positive values can occur for defenses that
    only notice poisoning later.
    """
    by_round = {r.round_idx: r for r in records}
    latencies: dict[int, int | None] = {}
    last_round = max(by_round) if by_round else -1
    for injection in sorted(set(injection_rounds)):
        latency = None
        for r in range(injection, last_round + 1):
            record = by_round.get(r)
            if record is not None and not record.accepted:
                latency = r - injection
                break
        latencies[injection] = latency
    return latencies


def rejection_bursts(records: Sequence[RoundRecord]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive rejected rounds as ``(start, length)``.

    Long bursts on clean rounds are the signature of the threshold
    death-spiral the README's "Scale and deviations from the paper"
    discusses (the history freezes on rejection, so a borderline threshold
    keeps rejecting).
    """
    bursts: list[tuple[int, int]] = []
    start: int | None = None
    length = 0
    for record in sorted(records, key=lambda r: r.round_idx):
        if not record.accepted:
            if start is None:
                start = record.round_idx
                length = 1
            else:
                length += 1
        elif start is not None:
            bursts.append((start, length))
            start = None
    if start is not None:
        bursts.append((start, length))
    return bursts


def vote_summary(records: Sequence[RoundRecord]) -> dict[str, float]:
    """Aggregate vote statistics over rounds that collected votes."""
    voted = [r for r in records if r.decision.num_validators > 0]
    if not voted:
        return {"rounds": 0.0, "mean_reject_share": 0.0, "max_reject_share": 0.0}
    shares = np.array(
        [r.decision.reject_votes / r.decision.num_validators for r in voted]
    )
    return {
        "rounds": float(len(voted)),
        "mean_reject_share": float(shares.mean()),
        "max_reject_share": float(shares.max()),
    }
