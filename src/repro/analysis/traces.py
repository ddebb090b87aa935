"""LOF / threshold traces of a validator over a model sequence."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.validation import MisclassificationValidator, ValidationContext
from repro.nn.network import Network


@dataclass
class ValidatorTrace:
    """Round-by-round Algorithm 2 diagnostics for one validator.

    Lists are aligned; ``None`` entries mark rounds where the validator
    abstained (history too short).  ``slack`` is the validator's
    ``threshold_slack``: it votes reject iff ``LOF > slack * threshold``.
    """

    slack: float = 1.0
    rounds: list[int] = field(default_factory=list)
    candidate_lofs: list[float | None] = field(default_factory=list)
    thresholds: list[float | None] = field(default_factory=list)
    votes: list[int] = field(default_factory=list)

    def margin(self) -> np.ndarray:
        """``LOF / (slack * threshold)`` per round (NaN where abstained):
        a margin above 1 is a reject vote."""
        out = np.full(len(self.rounds), np.nan)
        for i, (lof, tau) in enumerate(zip(self.candidate_lofs, self.thresholds)):
            if lof is not None and tau is not None and tau > 0:
                out[i] = lof / (self.slack * tau)
        return out


def collect_validator_trace(
    validator: MisclassificationValidator,
    model_sequence: list[Network],
    lookback: int,
) -> ValidatorTrace:
    """Replay a model sequence through one validator.

    Treats every model in the sequence as *accepted* (as Fig. 2's analysis
    does): at round ``r`` the candidate is ``model_sequence[r]`` and the
    history is the preceding ``lookback + 1`` models.  Useful to visualise
    how the LOF signal evolves for clean vs poisoned trajectories.
    """
    if lookback < 4:
        raise ValueError(f"lookback must be >= 4, got {lookback}")
    if len(model_sequence) < 2:
        raise ValueError("need at least two models")
    trace = ValidatorTrace(slack=validator.threshold_slack)
    history: list[tuple[int, Network]] = [(0, model_sequence[0])]
    for r in range(1, len(model_sequence)):
        candidate = model_sequence[r]
        report = validator.explain(
            ValidationContext(candidate, history[-(lookback + 1) :])
        )
        trace.rounds.append(r)
        trace.candidate_lofs.append(report.candidate_lof)
        trace.thresholds.append(report.threshold)
        trace.votes.append(report.vote)
        history.append((r, candidate))
    return trace
