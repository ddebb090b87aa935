"""Unit tests for the model-replacement attack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.model_replacement import ModelReplacementClient, ReplacementConfig
from repro.attacks.semantic_backdoor import SemanticBackdoor
from repro.fl.client import LocalTrainingConfig
from repro.nn.models import make_mlp


@pytest.fixture
def attack_setup(cifar_task, rng):
    backdoor = SemanticBackdoor(cifar_task)
    shard = cifar_task.sample(120, rng)
    model = make_mlp(cifar_task.flat_dim, 10, rng, hidden=(32,))
    config = ReplacementConfig(boost=10.0, poison_ratio=0.3, poison_samples=40,
                               attack_epochs=3, attack_lr=0.05)
    client = ModelReplacementClient(0, shard, backdoor, config, attack_rounds={5})
    return client, model, backdoor


class TestReplacementConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"boost": 0.0},
            {"boost": 1.0, "poison_ratio": 0.0},
            {"boost": 1.0, "poison_ratio": 1.0},
            {"boost": 1.0, "poison_samples": 0},
            {"boost": 1.0, "attack_epochs": 0},
            {"boost": 1.0, "attack_lr": 0.0},
            {"boost": 1.0, "max_update_norm": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReplacementConfig(**kwargs)


class TestModelReplacementClient:
    def test_is_malicious(self, attack_setup):
        client, _, _ = attack_setup
        assert client.is_malicious

    def test_honest_outside_attack_rounds(self, attack_setup, rng):
        client, model, _ = attack_setup
        update = client.produce_update(model, LocalTrainingConfig(), 0, rng)
        # honest updates are unboosted: small norm relative to boosted ones
        boosted = client.produce_update(model, LocalTrainingConfig(), 5, rng)
        assert np.linalg.norm(boosted) > 3 * np.linalg.norm(update)

    def test_attack_round_scales_by_boost(self, attack_setup, rng):
        client, model, _ = attack_setup
        client.produce_update(model, LocalTrainingConfig(), 5, rng)
        crafted = client.crafted_models[5]
        expected = client.replacement.boost * (
            crafted.get_flat() - model.get_flat()
        )
        update = client.scale_update(model, crafted)
        np.testing.assert_allclose(update, expected)

    def test_replacement_property(self, attack_setup, rng):
        """With lambda = N/n, aggregating the boosted update replaces G."""
        client, model, _ = attack_setup
        from repro.fl.aggregation import apply_global_update

        update = client.produce_update(model, LocalTrainingConfig(), 5, rng)
        crafted = client.crafted_models[5]
        # one attacker alone in the round, N=100, lambda=N/n with n=10 -> boost 10
        new_flat = apply_global_update(
            model.get_flat(), update, num_selected=1, global_lr=10.0, num_clients=100
        )
        np.testing.assert_allclose(new_flat, crafted.get_flat(), atol=1e-9)

    def test_backdoor_learned_by_crafted_model(self, attack_setup, rng):
        client, model, backdoor = attack_setup

        # give the global model basic competence first
        from repro.fl.client import LocalTrainingConfig as LTC, local_train

        local_train(model, client.dataset, LTC(epochs=8, lr=0.1), rng)
        crafted = client.craft_backdoored_model(model, LTC(), rng)
        assert backdoor.backdoor_accuracy(crafted, 150, rng) > 0.5

    def test_norm_clipping_respected(self, cifar_task, rng):
        backdoor = SemanticBackdoor(cifar_task)
        shard = cifar_task.sample(100, rng)
        model = make_mlp(cifar_task.flat_dim, 10, rng, hidden=(16,))
        config = ReplacementConfig(
            boost=50.0, poison_samples=20, attack_epochs=1, max_update_norm=1.0
        )
        client = ModelReplacementClient(0, shard, backdoor, config, {0})
        update = client.produce_update(model, LocalTrainingConfig(), 0, rng)
        assert np.linalg.norm(update) <= 1.0 + 1e-9
