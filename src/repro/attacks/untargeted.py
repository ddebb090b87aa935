"""Untargeted poisoning attacks (Fang et al. 2020, related work).

Unlike backdoors, untargeted poisoning degrades *overall* model quality.
The paper cites these attacks when discussing why Byzantine-robust
aggregation falls short in FL; we implement the two standard primitives so
the harness can study how BaFFLe's accuracy-trend validation responds to
them (an accuracy collapse perturbs per-class error variations even more
violently than a backdoor does).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import MaliciousClient
from repro.fl.client import LocalTrainingConfig, local_train
from repro.nn.blas import l2_norm
from repro.nn.network import Network


class SignFlipClient(MaliciousClient):
    """Submits the *negated* honest update, scaled by ``boost``.

    Pushes the global model in the direction that locally increases the
    loss — the classic gradient-inversion untargeted attack.
    """

    def __init__(self, client_id, dataset, boost: float, attack_rounds) -> None:
        super().__init__(client_id, dataset)
        if boost <= 0:
            raise ValueError(f"boost must be positive, got {boost}")
        self.boost = boost
        self.attack_rounds = frozenset(attack_rounds)

    def produce_update(
        self,
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        local = global_model.clone()
        local_train(local, self.dataset, config, rng)
        update = local.get_flat() - global_model.get_flat()
        if round_idx not in self.attack_rounds:
            return update
        return -self.boost * update


class RandomUpdateClient(MaliciousClient):
    """Submits Gaussian noise of a chosen norm instead of a trained update."""

    def __init__(self, client_id, dataset, norm: float, attack_rounds) -> None:
        super().__init__(client_id, dataset)
        if norm <= 0:
            raise ValueError(f"norm must be positive, got {norm}")
        self.norm = norm
        self.attack_rounds = frozenset(attack_rounds)

    def produce_update(
        self,
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if round_idx not in self.attack_rounds:
            local = global_model.clone()
            local_train(local, self.dataset, config, rng)
            return local.get_flat() - global_model.get_flat()
        noise = rng.normal(size=global_model.num_parameters)
        return noise * (self.norm / l2_norm(noise))
