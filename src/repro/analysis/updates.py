"""Update-norm statistics across clients.

Model replacement boosts an update by ``N / lambda``; its L2 norm sticks
out by roughly that factor.  These statistics quantify the gap — what a
norm-clipping defense calibrates against, and what a stealthy attacker
must stay inside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.client import Client, LocalTrainingConfig
from repro.nn.network import Network


@dataclass(frozen=True)
class UpdateNormStats:
    """Distribution summary of per-client update norms."""

    mean: float
    std: float
    minimum: float
    maximum: float
    percentile_95: float

    def outlier_factor(self, norm: float) -> float:
        """How many honest 95th-percentiles a given update norm spans."""
        if self.percentile_95 <= 0:
            return float("inf") if norm > 0 else 0.0
        return norm / self.percentile_95


def update_norm_stats(
    clients: list[Client],
    global_model: Network,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
    round_idx: int = 0,
) -> UpdateNormStats:
    """Collect one update from every client and summarise the norms."""
    if not clients:
        raise ValueError("need at least one client")
    norms = []
    for client in clients:
        update = client.produce_update(global_model, config, round_idx, rng)
        norms.append(float(np.linalg.norm(update)))
    norms_arr = np.array(norms)
    return UpdateNormStats(
        mean=float(norms_arr.mean()),
        std=float(norms_arr.std()),
        minimum=float(norms_arr.min()),
        maximum=float(norms_arr.max()),
        percentile_95=float(np.percentile(norms_arr, 95)),
    )
