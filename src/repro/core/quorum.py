"""Vote-robustness calibration (paper Sec. IV-B and VI-C).

With ``n`` validating clients of which ``n_M`` are malicious, and a
fraction ``rho`` of the honest validators assessing the model *correctly*
(non-IID data makes some honest validators err), the paper derives:

- valid quorum range:
  ``n_M + (1 - rho) * (n - n_M)  <  q  <=  rho * (n - n_M)``
  so that wrong voters (malicious or naive) cannot reject a clean model and
  aware honest voters can reject a poisoned one;
- recommended setting: ``q := rho * (n - n_M)``;
- tolerable malicious validators: requiring the correct honest voters to
  outnumber the malicious ones, ``(1 - rho) * (n - n_M) > n_M`` gives
  ``n_M < (1 - rho) * n / (2 - rho)``.

The functions below evaluate these formulas and also estimate ``rho``
empirically from recorded vote traces (paper Fig. 5 estimates
``rho ~ 0.5`` from the distribution of reject votes on adaptively poisoned
models).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def quorum_bounds(n: int, n_malicious: int, rho: float) -> tuple[float, float]:
    """``(lower, upper)`` of the valid quorum range; valid iff lower < upper.

    ``q`` must satisfy ``lower < q <= upper``.
    """
    _check_args(n, n_malicious, rho)
    honest = n - n_malicious
    lower = n_malicious + (1.0 - rho) * honest
    upper = rho * honest
    return lower, upper


def recommended_quorum(n: int, n_malicious: int, rho: float) -> int:
    """The paper's setting ``q := rho * (n - n_M)``, floored to an integer.

    Raises ``ValueError`` when the valid range holds no integer (the
    deployment cannot distinguish malicious from erring-honest votes).
    That includes a non-empty range such as ``(3.15, 3.85]``: flooring its
    upper end would give a quorum the erring voters alone can reach.
    """
    lower, upper = quorum_bounds(n, n_malicious, rho)
    quorum = int(np.floor(upper))
    if quorum <= lower:
        raise ValueError(
            f"no valid quorum for n={n}, n_M={n_malicious}, rho={rho}: "
            f"range ({lower:.2f}, {upper:.2f}] holds no integer"
        )
    return quorum


def max_tolerable_malicious(n: int, rho: float) -> float:
    """Upper bound on tolerable malicious validators: ``(1-rho)n / (2-rho)``.

    E.g. ``n = 10, rho = 0.5`` gives ``n_M < 3.33`` (paper Sec. VI-C).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    return (1.0 - rho) * n / (2.0 - rho)


def estimate_rho_from_votes(
    reject_vote_counts: Sequence[int], num_validators: int
) -> float:
    """Estimate ``rho`` from reject-vote counts on *known-poisoned* rounds.

    ``rho`` is read as the worst-case fraction of honest validators that
    judged a poisoned model correctly: the minimum observed reject share.
    The paper reads Fig. 5 the same way ("most of these injections were
    detected by 5 or more validating clients ... i.e. rho = 0.5").
    """
    if not reject_vote_counts:
        raise ValueError("need at least one poisoned-round vote count")
    if num_validators < 1:
        raise ValueError(f"num_validators must be >= 1, got {num_validators}")
    counts = np.asarray(reject_vote_counts, dtype=np.float64)
    if counts.min() < 0 or counts.max() > num_validators:
        raise ValueError("vote counts must lie in [0, num_validators]")
    return float(counts.min() / num_validators)


def _check_args(n: int, n_malicious: int, rho: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= n_malicious < n:
        raise ValueError(f"n_malicious must be in [0, {n}), got {n_malicious}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
