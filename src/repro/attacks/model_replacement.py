"""Model replacement: the train-and-scale attack (paper Sec. III-B).

The attacker trains a backdoored local model ``X`` on a blend of poisoned
and clean data, then submits the boosted update

    U = gamma * (X - G),      gamma = N / lambda,

so the server's aggregation ``G' = G + (lambda/N) sum_i U_i`` yields
``G' = X + (lambda/N) sum_{honest} U_i`` — the global model is replaced by
the attacker's model, up to the honest contributions.  A single such update
in a single round suffices to implant a semantic backdoor ("single-shot
attack", Bagdasaryan et al.).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.base import BackdoorTask, MaliciousClient
from repro.attacks.poisoning import make_poison_blend
from repro.data.dataset import Dataset
from repro.fl.client import LocalTrainingConfig, local_train
from repro.nn.blas import l2_norm
from repro.nn.network import Network


@dataclass(frozen=True)
class ReplacementConfig:
    """Knobs of the train-and-scale strategy.

    Attributes
    ----------
    boost:
        The scaling factor ``gamma``; use
        :attr:`repro.fl.FLConfig.replacement_boost` (= ``N / lambda``) for
        full replacement, or less to trade backdoor strength for stealth.
    poison_ratio:
        Fraction of poisoned samples in the attacker's training blend.
    poison_samples:
        Size of the poisoned-sample pool drawn from the backdoor task.
    attack_epochs / attack_lr:
        The attacker's local training schedule (typically more epochs and a
        lower LR than honest clients, to bake the backdoor in smoothly).
    max_update_norm:
        Optional L2 clip applied *after* boosting (an attacker hiding from
        norm-based defenses); ``None`` disables clipping.
    """

    boost: float
    poison_ratio: float = 0.2
    poison_samples: int = 64
    attack_epochs: int = 6
    attack_lr: float = 0.05
    max_update_norm: float | None = None

    def __post_init__(self) -> None:
        if self.boost <= 0:
            raise ValueError(f"boost must be positive, got {self.boost}")
        if not 0.0 < self.poison_ratio < 1.0:
            raise ValueError(f"poison_ratio must be in (0, 1), got {self.poison_ratio}")
        if self.poison_samples < 1:
            raise ValueError(f"poison_samples must be >= 1, got {self.poison_samples}")
        if self.attack_epochs < 1:
            raise ValueError(f"attack_epochs must be >= 1, got {self.attack_epochs}")
        if self.attack_lr <= 0:
            raise ValueError(f"attack_lr must be positive, got {self.attack_lr}")
        if self.max_update_norm is not None and self.max_update_norm <= 0:
            raise ValueError("max_update_norm must be positive when set")


class ModelReplacementClient(MaliciousClient):
    """A malicious client mounting train-and-scale model replacement.

    In rounds listed in ``attack_rounds`` it submits the boosted backdoor
    update; in all other rounds it behaves honestly (maximising stealth, as
    in the paper's single-shot evaluation).

    The submitted update is a pure function of the inputs, so the client is
    ``parallel_safe``; only the ``crafted_models`` inspection dict stays in
    whichever process ran the attack round.
    """

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        backdoor: BackdoorTask,
        replacement: ReplacementConfig,
        attack_rounds: frozenset[int] | set[int],
    ) -> None:
        super().__init__(client_id, dataset)
        self.backdoor = backdoor
        self.replacement = replacement
        self.attack_rounds = frozenset(attack_rounds)
        #: Backdoored local models produced per attack round (inspection).
        self.crafted_models: dict[int, Network] = {}

    def produce_update(
        self,
        global_model: Network,
        config: LocalTrainingConfig,
        round_idx: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if round_idx not in self.attack_rounds:
            # Behave honestly outside injection rounds.
            local = global_model.clone()
            local_train(local, self.dataset, config, rng)
            return local.get_flat() - global_model.get_flat()
        backdoored = self.craft_backdoored_model(global_model, config, rng)
        self.crafted_models[round_idx] = backdoored
        return self.scale_update(global_model, backdoored)

    # ------------------------------------------------------------------
    # Attack steps (exposed for the adaptive subclass)
    # ------------------------------------------------------------------
    def craft_backdoored_model(
        self,
        global_model: Network,
        config: LocalTrainingConfig,
        rng: np.random.Generator,
        poison_ratio: float | None = None,
    ) -> Network:
        """Train the backdoored local model ``X`` on the poison blend."""
        ratio = self.replacement.poison_ratio if poison_ratio is None else poison_ratio
        poison = self.backdoor.poisoned_training_data(
            self.replacement.poison_samples, rng
        )
        blend = make_poison_blend(self.dataset, poison, ratio, rng)
        attack_cfg = LocalTrainingConfig(
            epochs=self.replacement.attack_epochs,
            batch_size=config.batch_size,
            lr=self.replacement.attack_lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        model = global_model.clone()
        return local_train(model, blend, attack_cfg, rng)

    def scale_update(self, global_model: Network, backdoored: Network) -> np.ndarray:
        """Boost ``X - G`` by gamma and optionally clip its norm."""
        update = self.replacement.boost * (
            backdoored.get_flat() - global_model.get_flat()
        )
        cap = self.replacement.max_update_norm
        if cap is not None:
            norm = l2_norm(update)
            if norm > cap:
                update = update * (cap / norm)
        return update
